package machine_test

import (
	"errors"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
)

// These tests pin the per-request memo (link.go): within one request a
// library reference — a module member fetch, an applied closure OID —
// resolves once, and the next request starts from an empty memo, so an
// install or a rebinding is seen there and never in the middle of one.

// storeProc persists a compiled procedure as a closure record with no
// free variables and returns its OID.
func storeProc(t *testing.T, st *store.Txn, src, name string) store.OID {
	t.Helper()
	code, err := machine.EncodeProgram(compileProc(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return st.Alloc(&store.Closure{Name: name, Code: st.Alloc(&store.Blob{Bytes: code})})
}

// storeLib persists a module "lib" exporting add = proc(a b) a+b.
func storeLib(t *testing.T, st *store.Txn) store.OID {
	t.Helper()
	add := storeProc(t, st, "proc(a b !ce !k) (+ a b ce k)", "add")
	return st.Alloc(&store.Module{Name: "lib", Exports: []store.Export{{Name: "add", Val: store.RefVal(add)}}})
}

// openTxn returns a transaction over a fresh in-memory store, aborted
// when the test ends.
func openTxn(t *testing.T) *store.Txn {
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

func wantMemoEmpty(t *testing.T, m *machine.Machine, when string) {
	t.Helper()
	if members, links := machine.MemoSizes(m); members != 0 || links != 0 {
		t.Errorf("%s: memo holds %d members and %d links, want none", when, members, links)
	}
}

// installWriter installs code for an OID when the program prints: a
// CodeTable.Install that lands in the middle of a request.
type installWriter struct {
	table *machine.CodeTable
	oid   store.OID
	c     *machine.TAMClosure
}

func (w installWriter) Write(p []byte) (int, error) {
	w.table.Install(w.oid, w.c)
	return len(p), nil
}

// TestMemoInstallSeenAtNextApply: an install between two Applys is seen
// by the second; one landing between two calls of the same OID within an
// Apply is not seen by the second call.
func TestMemoInstallSeenAtNextApply(t *testing.T) {
	st := openTxn(t)
	inc := storeProc(t, st, "proc(a !e !k) (+ a 1 e k)", "inc")
	dec := closureOf(compileProc(t, "proc(a !e !k) (- a 1 e k)"))
	twice := closureOf(compileProc(t, "proc(x !ce !cc) (f x ce cont(a) (f a ce cc))"), machine.Ref{OID: inc})
	m := machine.New(st)
	if v, err := m.Apply(twice, []machine.Value{machine.Int(10)}); err != nil || v != machine.Value(machine.Int(12)) {
		t.Fatalf("before install = %v, %v; want 12", v, err)
	}
	m.Code.Install(inc, dec)
	if v, err := m.Apply(twice, []machine.Value{machine.Int(10)}); err != nil || v != machine.Value(machine.Int(8)) {
		t.Fatalf("after install = %v, %v; want 8", v, err)
	}

	m = machine.New(st)
	m.Out = installWriter{m.Code, inc, dec}
	mid := closureOf(compileProc(t, "proc(x !ce !cc) (f x ce cont(a) (print a cont(u) (f a ce cc)))"), machine.Ref{OID: inc})
	if v, err := m.Apply(mid, []machine.Value{machine.Int(10)}); err != nil || v != machine.Value(machine.Int(12)) {
		t.Fatalf("install in mid-request = %v, %v; want 12 (both calls on the request's link)", v, err)
	}
	if v, err := m.Apply(twice, []machine.Value{machine.Int(10)}); err != nil || v != machine.Value(machine.Int(8)) {
		t.Fatalf("next request = %v, %v; want 8", v, err)
	}
}

// TestMemoSkipsStoreArrays: a store array is mutable, so a [] after a
// [:=] on the same Ref within one Apply reads the new value.
func TestMemoSkipsStoreArrays(t *testing.T) {
	st := openTxn(t)
	arr := st.Alloc(&store.Array{Elems: []store.Val{store.IntVal(1), store.IntVal(2)}})
	fn := closureOf(compileProc(t, `proc(x !ce !cc)
	  ([] a 1 cont(old) ([:=] a 1 x cont(u) ([] a 1 cont(now) (+ old now ce cc))))`), machine.Ref{OID: arr})
	for _, generic := range []bool{false, true} {
		m := machine.New(st)
		if generic {
			machine.ForceGenericPath(m)
		}
		for _, x := range []int64{40, 7} {
			// The first Apply reads the initial 2, the second the 40 it wrote.
			want := map[int64]int64{40: 42, 7: 47}[x]
			if v, err := m.Apply(fn, []machine.Value{machine.Int(x)}); err != nil || v != machine.Value(machine.Int(want)) {
				t.Fatalf("generic=%v x=%d: %v, %v; want %d", generic, x, v, err, want)
			}
		}
		st.Update(arr, &store.Array{Elems: []store.Val{store.IntVal(1), store.IntVal(2)}})
	}
}

// TestMemoPlaceholderModule: an empty placeholder module has no export to
// memoize, so once it is updated with exports the next Apply resolves
// them.
func TestMemoPlaceholderModule(t *testing.T) {
	st := openTxn(t)
	inc := storeProc(t, st, "proc(a !e !k) (+ a 1 e k)", "inc")
	mod := st.Alloc(&store.Module{Name: "lib"})
	fn := closureOf(compileProc(t, "proc(x !ce !cc) ([] lib 0 cont(f) (f x ce cc))"), machine.Ref{OID: mod})
	m := machine.New(st)
	if v, err := m.Apply(fn, []machine.Value{machine.Int(1)}); !errors.Is(err, machine.ErrUnhandled) {
		t.Fatalf("placeholder = %v, %v; want an unhandled range exception", v, err)
	}
	wantMemoEmpty(t, m, "after the placeholder")
	if err := st.Update(mod, &store.Module{Name: "lib", Exports: []store.Export{{Name: "inc", Val: store.RefVal(inc)}}}); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Apply(fn, []machine.Value{machine.Int(1)}); err != nil || v != machine.Value(machine.Int(2)) {
		t.Fatalf("completed module = %v, %v; want 2", v, err)
	}
}

// TestMemoLivesForOutermostApply: the memos are empty once the outermost
// Apply returns, and a nested entry — a query predicate's call back into
// the machine — leaves them as it found them.
func TestMemoLivesForOutermostApply(t *testing.T) {
	st := openTxn(t)
	mg := relalg.NewManager(st)
	mg.NoVector = true
	rel, err := relalg.CreateRelation(st, "r", []store.Column{{Name: "id", Type: store.ColInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := relalg.InsertRow(st, rel, []store.Val{store.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	lib := storeLib(t, st)
	m := machine.New(st)
	mg.Register(m)
	sel, ok := machine.LookupExec(m, "select")
	if !ok {
		t.Fatal("no select executor")
	}
	var inside [][2]int
	m.RegisterExec("select", func(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
		out, err := sel(m, vals, conts)
		members, links := machine.MemoSizes(m)
		inside = append(inside, [2]int{members, links})
		return out, err
	})
	// The outer program resolves lib.add before the query; every row's
	// predicate resolves it again, each in a nested entry.
	pred := closureOf(compileProc(t, "proc(x !e !k) ([] x 0 cont(a) ([] lib 0 cont(add) (add a 1 e cont(b) (< b 5 cont() (k true) cont() (k false)))))"), machine.Ref{OID: lib})
	outer := closureOf(compileProc(t, `proc(r h !ce !cc)
	  ([] lib 0 cont(add) (add 1 2 ce cont(three)
	     (select proc(x !pe !pk) (h x pe pk) r ce cont(v) (count v ce cont(n) (+ n three ce cc)))))`), machine.Ref{OID: lib})
	v, err := m.Apply(outer, []machine.Value{machine.Ref{OID: rel}, pred})
	if err != nil || v != machine.Value(machine.Int(4+3)) {
		t.Fatalf("query = %v, %v; want 7", v, err)
	}
	if len(inside) != 1 || inside[0] != [2]int{1, 1} {
		t.Errorf("memo after the nested predicate entries = %v, want one member and one link", inside)
	}
	wantMemoEmpty(t, m, "after the outermost Apply")
}

// TestMemoResolvedCount: within one Apply every call of lib.add after the
// first is served from the memo — its member fetch on the fused [] and
// its link — and the next Apply starts from an empty memo.
func TestMemoResolvedCount(t *testing.T) {
	const n = 50
	st := openTxn(t)
	// The loop counts to n through lib's add, fetching the member and
	// applying its OID once per iteration: the library-factored shape of E1.
	fn := closureOf(compileProc(t, `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 0)
	        cont(i)
	          (>= i n
	             cont() (cc i)
	             cont() ([] lib 0 cont(add) (add i 1 ce cont(j) (loop j))))))`), machine.Ref{OID: storeLib(t, st)})
	for _, tc := range []struct {
		generic bool
		want    int64
	}{{false, 2 * (n - 1)}, {true, n - 1}} {
		m := machine.New(st)
		if tc.generic {
			// The generic [] never reads the member memo; links still do.
			machine.ForceGenericPath(m)
		}
		for i := 0; i < 2; i++ {
			m.ResetProfile()
			if v, err := m.Apply(fn, []machine.Value{machine.Int(n)}); err != nil || v != machine.Value(machine.Int(n)) {
				t.Fatalf("loop = %v, %v; want %d", v, err, n)
			}
			if got := m.Profile().Resolved; got != tc.want {
				t.Errorf("generic=%v Apply %d: %d references served from the memo, want %d", tc.generic, i+1, got, tc.want)
			}
			wantMemoEmpty(t, m, "after Apply")
		}
	}
}
