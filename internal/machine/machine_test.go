package machine

import (
	"strings"
	"testing"

	"tycoon/internal/store"
	"tycoon/internal/tml"
)

func TestValueStoreConversions(t *testing.T) {
	cases := []Value{Int(3), Real(2.5), Bool(true), Char('x'), Str("s"), Ref{OID: 9}, Unit{}}
	for _, v := range cases {
		sv, err := ToStoreVal(v)
		if err != nil {
			t.Errorf("ToStoreVal(%s): %v", v.Show(), err)
			continue
		}
		back := FromStoreVal(sv)
		if !Eq(v, back) {
			t.Errorf("round trip %s → %s", v.Show(), back.Show())
		}
	}
	// Transient heap values cannot be persisted implicitly.
	if _, err := ToStoreVal(&Array{}); err == nil {
		t.Error("ToStoreVal(array) succeeded")
	}
	if _, err := ToStoreVal(&Closure{}); err == nil {
		t.Error("ToStoreVal(closure) succeeded")
	}
}

func TestValueToTMLRoundTrip(t *testing.T) {
	cases := []Value{Int(3), Real(2.5), Bool(false), Char('x'), Str("s"), Ref{OID: 7}, Unit{}}
	for _, v := range cases {
		sv, err := ToStoreVal(v)
		if err != nil {
			t.Fatalf("ToStoreVal(%s): %v", v.Show(), err)
		}
		back, ok := LitValue(StoreValToTML(sv))
		if !ok || !Eq(v, back) {
			t.Errorf("round trip %s → %v", v.Show(), back)
		}
	}
}

func TestOverrideLink(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	m := New(st)
	// A fake OID overridden with a real closure value runs that closure.
	abs := compileAbsSrc(t, "proc(a !e !k) (+ a 1 e k)")
	clo := &Closure{Abs: abs}
	m.Code.Install(42, clo)
	v, err := m.Apply(Ref{OID: 42}, []Value{Int(1)})
	if err != nil || v != Value(Int(2)) {
		t.Fatalf("override apply = %v, %v", v, err)
	}
}

func TestLinkErrors(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	m := New(st)
	// Applying an OID of a non-closure object.
	blob := st.Alloc(&store.Blob{Bytes: []byte("x")})
	if _, err := m.Apply(Ref{OID: blob}, nil); err == nil {
		t.Error("applied a blob")
	}
	// A closure whose code blob is missing.
	clo := st.Alloc(&store.Closure{Name: "broken", Code: 999})
	if _, err := m.Apply(Ref{OID: clo}, nil); err == nil {
		t.Error("applied closure with dangling code")
	}
	// A closure with an unbound free variable.
	abs := compileAbsSrc(t, "proc(a !e !k) (+ a delta e k)")
	prog, err := CompileProc(abs, "f", nil)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := EncodeProgram(prog)
	codeOID := st.Alloc(&store.Blob{Bytes: code})
	clo2 := st.Alloc(&store.Closure{Name: "f", Code: codeOID})
	if _, err := m.Apply(Ref{OID: clo2}, []Value{Int(1)}); err == nil {
		t.Error("applied closure with missing binding")
	}
	// No store at all.
	m2 := New(nil)
	if _, err := m2.Apply(Ref{OID: 1}, nil); err == nil {
		t.Error("linked without a store")
	}
}

func TestCallExportErrors(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	m := New(st)
	blob := st.Alloc(&store.Blob{})
	if _, err := m.CallExport(blob, "f", nil); err == nil {
		t.Error("CallExport on non-module succeeded")
	}
	mod := st.Alloc(&store.Module{Name: "m"})
	if _, err := m.CallExport(mod, "missing", nil); err == nil {
		t.Error("CallExport on missing member succeeded")
	}
	if _, err := m.CallExport(12345, "f", nil); err == nil {
		t.Error("CallExport on dangling OID succeeded")
	}
}

func TestDisasmCoversAllOpcodes(t *testing.T) {
	src := `proc(n !ce !cc)
	  (Y proc(!c0 fact !c)
	     (c cont() (fact n ce cc)
	        proc(k !ce2 !cc2)
	          (< k 2
	             cont() (cc2 1)
	             cont() (- k 1 ce2 cont(k1)
	                      (fact k1 ce2 cont(r) (* k r ce2 cc2))))))`
	abs := compileAbsSrc(t, src)
	prog, err := CompileProc(abs, "fact", nil)
	if err != nil {
		t.Fatal(err)
	}
	listing := Disasm(prog)
	for _, want := range []string{"block 0", "(entry)", "prim", "call", "cell", "setc", "jump", "clos"} {
		if !strings.Contains(listing, want) {
			t.Errorf("Disasm missing %q:\n%s", want, listing)
		}
	}
}

func TestHandlerStack(t *testing.T) {
	m := New(nil)
	h1 := &Halt{}
	h2 := &Halt{Err: true}
	m.PushHandler(h1)
	m.PushHandler(h2)
	if h, ok := m.PopHandler(); !ok || h != Value(h2) {
		t.Error("LIFO order violated")
	}
	if h, ok := m.PopHandler(); !ok || h != Value(h1) {
		t.Error("second pop wrong")
	}
	if _, ok := m.PopHandler(); ok {
		t.Error("pop from empty stack succeeded")
	}
}

func TestProgramCacheSharedAcrossClosures(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	abs := compileAbsSrc(t, "proc(a !e !k) (+ a 1 e k)")
	prog, err := CompileProc(abs, "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := EncodeProgram(prog)
	codeOID := st.Alloc(&store.Blob{Bytes: code})
	c1 := st.Alloc(&store.Closure{Name: "a", Code: codeOID})
	c2 := st.Alloc(&store.Closure{Name: "b", Code: codeOID})
	m := New(st)
	if _, err := m.Apply(Ref{OID: c1}, []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(Ref{OID: c2}, []Value{Int(2)}); err != nil {
		t.Fatal(err)
	}
	v1, _ := m.linked[c1].(*TAMClosure)
	v2, _ := m.linked[c2].(*TAMClosure)
	if v1 == nil || v2 == nil || v1.Prog != v2.Prog {
		t.Error("decoded program not shared between closures")
	}
}

func TestEnvSet(t *testing.T) {
	g := tml.NewVarGen()
	x := g.Fresh("x")
	env := (*Env)(nil).Extend([]*tml.Var{x}, []Value{Int(1)})
	if !env.set(x, Int(2)) {
		t.Fatal("set failed")
	}
	if v, _ := env.Lookup(x); v != Value(Int(2)) {
		t.Error("set did not take effect")
	}
	if env.set(g.Fresh("y"), Int(3)) {
		t.Error("set of unbound variable succeeded")
	}
}
