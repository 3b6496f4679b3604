package tycoon

import (
	"errors"
	"testing"

	"tycoon/internal/iofault"
	"tycoon/internal/store"
)

// TestCrashAtEveryOpSession crashes one System session — create a
// relation, insert rows, install a module over it, Close — at every
// filesystem operation in turn, and once after its last. Close flushes
// the session's publications as one batch, so each reopened store holds
// the whole module, callable and counting every row, or nothing at all.
func TestCrashAtEveryOpSession(t *testing.T) {
	const path = "d/session.tyst"
	const rows = 10
	session := func(fs *iofault.MemFS) error {
		st, err := store.OpenFS(fs, path)
		if err != nil {
			return err
		}
		sys, err := open(st, Config{})
		if err != nil {
			st.Close()
			return err
		}
		rel, err := sys.CreateRelation("r", []Column{{Name: "id", Type: ColInt}}, 0)
		if err != nil {
			return err
		}
		for i := int64(0); i < rows; i++ {
			if err := sys.InsertRow(rel, IntVal(i)); err != nil {
				return err
			}
		}
		if _, err := sys.Install(`module m export n
		  rel r : Rel(id : Int)
		  let n() : Int = count(r)
		  end`); err != nil {
			return err
		}
		return sys.Close()
	}

	probe := iofault.NewMemFS(iofault.NewInjector(1))
	if err := session(probe); err != nil {
		t.Fatal(err)
	}
	ops := probe.Injector().Ops()
	var whole, empty int
	for crashAt := 0; crashAt <= ops; crashAt++ {
		inj := iofault.NewInjector(int64(crashAt + 1))
		fs := iofault.NewMemFS(inj)
		inj.CrashAt(crashAt)
		if err := session(fs); err != nil && !errors.Is(err, iofault.ErrCrashed) {
			t.Fatalf("crash at op %d: session failed with %v, want the injected crash", crashAt, err)
		}
		fs.Crash()
		st, err := store.OpenFS(fs, path)
		if err != nil {
			t.Fatalf("crash at op %d: reopen: %v", crashAt, err)
		}
		if _, ok := st.Root("module:m"); !ok {
			if st.Len() != 0 || len(st.Roots()) != 0 {
				t.Errorf("crash at op %d: no module, but %d objects and roots %v survived", crashAt, st.Len(), st.Roots())
			}
			empty++
			st.Close()
			continue
		}
		sys, err := open(st, Config{})
		if err != nil {
			t.Fatalf("crash at op %d: %v", crashAt, err)
		}
		if v, err := sys.Call("m", "n"); err != nil || v != Value(Int(rows)) {
			t.Errorf("crash at op %d: m.n() = %v, %v; want %d", crashAt, v, err, rows)
		}
		whole++
		sys.Store.Close()
	}
	// The sweep must cross the commit: early crashes lose the session,
	// late ones keep it.
	if whole == 0 || empty == 0 {
		t.Errorf("over %d operations: %d whole sessions, %d empty stores; want some of each", ops, whole, empty)
	}
}
