package machine

import (
	"sync"
	"testing"

	"tycoon/internal/store"
)

// storeInc persists n closures sharing one compiled "+ a 1" code blob.
func storeInc(t *testing.T, st *store.Store, n int) []store.OID {
	t.Helper()
	prog, err := CompileProc(compileAbsSrc(t, "proc(a !e !k) (+ a 1 e k)"), "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := EncodeProgram(prog)
	codeOID := st.Alloc(&store.Blob{Bytes: code})
	oids := make([]store.OID, n)
	for i := range oids {
		oids[i] = st.Alloc(&store.Closure{Name: "inc", Code: codeOID})
	}
	return oids
}

func TestCodeTableSharedAcrossMachines(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	oid := storeInc(t, st, 1)[0]
	m1, m2 := New(st), New(st)
	m2.Code = m1.Code
	// Both machines link the original lazily, each into its own cache.
	for i, m := range []*Machine{m1, m2} {
		if v, err := m.Apply(Ref{OID: oid}, []Value{Int(1)}); err != nil || v != Value(Int(2)) {
			t.Fatalf("machine %d before install = %v, %v", i+1, v, err)
		}
	}
	// Code installed through the table overrides both machines' links.
	dec := &Closure{Abs: compileAbsSrc(t, "proc(a !e !k) (- a 1 e k)")}
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
	dec := &Closure{Abs: compileAbsSrc(t, "proc(a !e !k) (- a 1 e k)")}
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
