package machine

import (
	"sync"
	"testing"

	"tycoon/internal/store"
)

// openTxn returns a transaction over a fresh in-memory store, aborted
// when the test ends.
func openTxn(t testing.TB) *store.Txn {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	t.Cleanup(func() {
		tx.Abort()
		st.Close()
	})
	return tx
}

// storeInc commits n closures sharing one compiled "+ a 1" code blob.
func storeInc(t *testing.T, st *store.Store, n int) []store.OID {
	t.Helper()
	prog, err := CompileProc(compileAbsSrc(t, "proc(a !e !k) (+ a 1 e k)"), "inc")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := EncodeProgram(prog)
	tx := st.Begin()
	codeOID := tx.Alloc(&store.Blob{Bytes: code})
	oids := make([]store.OID, n)
	for i := range oids {
		oids[i] = tx.Alloc(&store.Closure{Name: "inc", Code: codeOID})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return oids
}

func TestCodeTableSharedAcrossMachines(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	oid := storeInc(t, st, 1)[0]
	m1, m2 := New(st), New(st)
	m2.Code = m1.Code
	// Both machines run the original, linked lazily into the shared table.
	for i, m := range []*Machine{m1, m2} {
		if v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != Value(Int(2)) {
			t.Fatalf("machine %d before install = %v, %v", i+1, v, err)
		}
	}
	// Code installed through the table overrides both machines' links.
	dec := compileClosure(t, "proc(a !e !k) (- a 1 e k)", "dec", nil)
	m1.Code.Install(oid, dec)
	for i, m := range []*Machine{m1, m2} {
		if v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != Value(Int(0)) {
			t.Errorf("machine %d after install = %v, %v", i+1, v, err)
		}
	}
	// A machine with a table of its own still runs the original.
	if v, err := New(st).Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != Value(Int(2)) {
		t.Errorf("private table = %v, %v", v, err)
	}
}

// TestCodeTableConcurrent installs into one table while several machines
// apply through it; run it under -race.
func TestCodeTableConcurrent(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	oids := storeInc(t, st, 500)
	shared := new(CodeTable)
	dec := compileClosure(t, "proc(a !e !k) (- a 1 e k)", "dec", nil)
	installed := func(i int) bool { return i%7 == 0 }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := New(st)
			m.Code = shared
			for i, oid := range oids {
				if installed(i) && i%4 == w {
					shared.Install(oid, dec)
				}
				v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)})
				if err != nil || (v != Value(Int(2)) && v != Value(Int(0))) {
					t.Errorf("apply 0x%x = %v, %v", uint64(oid), v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Afterwards every installed OID answers with the installed code.
	fresh := New(st)
	fresh.Code = shared
	for i, oid := range oids {
		want := Value(Int(2))
		if installed(i) {
			want = Int(0)
		}
		if v, err := fresh.Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != want {
			t.Fatalf("apply 0x%x = %v, %v; want %s", uint64(oid), v, err, want.Show())
		}
	}
}

// TestCodeTableOneImage: machines sharing a table share one code image.
// Every closure OID links to one value whichever machine linked it, and
// every code blob is decoded into one program.
func TestCodeTableOneImage(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	oids := append(storeInc(t, st, 8), storeInc(t, st, 8)...) // two code blobs
	shared := new(CodeTable)
	machines := make([]*Machine, 4)
	for i := range machines {
		machines[i] = New(st)
		machines[i].Code = shared
	}
	apply := func(m *Machine) {
		for _, oid := range oids {
			if v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != Value(Int(2)) {
				t.Errorf("apply 0x%x = %v, %v", uint64(oid), v, err)
			}
		}
	}
	// The first machine links everything; the other three then apply
	// concurrently and must find its links and programs.
	apply(machines[0])
	links := make(map[store.OID]Value, len(oids))
	for _, oid := range oids {
		links[oid], _ = TableClosure(shared, oid)
	}
	var wg sync.WaitGroup
	for _, m := range machines[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			apply(m)
		}()
	}
	wg.Wait()
	if n := TablePrograms(shared); n != 2 {
		t.Errorf("table holds %d programs, want one per code blob (2)", n)
	}
	progs := make(map[*Program]bool)
	for _, m := range machines {
		for _, oid := range oids {
			v, err := m.linkClosure(oid)
			if err != nil {
				t.Fatal(err)
			}
			if v != links[oid] {
				t.Errorf("machine linked 0x%x to a value of its own", uint64(oid))
			}
			progs[v.(*TAMClosure).Prog] = true
		}
	}
	if len(progs) != 2 {
		t.Errorf("links run %d distinct programs, want 2", len(progs))
	}
}

// TestCodeTableInstallBeatsLinks: an Install racing the first links of
// its OID wins for every apply that starts after it returned, on every
// machine sharing the table.
func TestCodeTableInstallBeatsLinks(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	oids := storeInc(t, st, 200)
	shared := new(CodeTable)
	dec := compileClosure(t, "proc(a !e !k) (- a 1 e k)", "dec", nil)
	machines := make([]*Machine, 4)
	for i := range machines {
		machines[i] = New(st)
		machines[i].Code = shared
	}
	for _, oid := range oids {
		// The install and every machine's first apply of oid start together.
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, m := range machines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)})
				if err != nil || (v != Value(Int(2)) && v != Value(Int(0))) {
					t.Errorf("apply 0x%x = %v, %v", uint64(oid), v, err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			shared.Install(oid, dec)
		}()
		close(start)
		wg.Wait()
		for _, m := range append(machines, New(st)) {
			m.Code = shared
			if v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != Value(Int(0)) {
				t.Fatalf("apply 0x%x after install = %v, %v; want 0", uint64(oid), v, err)
			}
		}
	}
}

// TestCodeTablePlaceholderNotCached: a placeholder closure record (no
// code yet, as the linker and ship.Import allocate before compiling)
// fails to link and leaves nothing in the table, so it links correctly
// once its record is complete. This is the precondition of sharing
// links: only a placeholder is ever rewritten.
func TestCodeTablePlaceholderNotCached(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	obj, err := st.Get(storeInc(t, st, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	code := obj.(*store.Closure).Code
	tx := st.Begin()
	defer tx.Abort()
	oid := tx.Alloc(&store.Closure{Name: "inc"})
	m := New(tx)
	if v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)}); err == nil {
		t.Fatalf("placeholder applied to %v", v)
	}
	if _, ok := TableClosure(m.Code, oid); ok {
		t.Fatal("failed link was cached")
	}
	if err := tx.Update(oid, &store.Closure{Name: "inc", Code: code}); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != Value(Int(2)) {
		t.Fatalf("completed closure = %v, %v; want 2", v, err)
	}
}
