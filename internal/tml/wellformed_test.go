package tml

import (
	"errors"
	"testing"
)

// testSigs resolves signatures for the primitives used in checker tests.
func testSigs(name string) (Signature, bool) {
	switch name {
	case "+", "-", "*", "/", "%":
		return Signature{NVals: 2, NConts: 2}, true
	case "<", ">", "<=", ">=":
		return Signature{NVals: 2, NConts: 2}, true
	case "[]":
		return Signature{NVals: 2, NConts: 1}, true
	case "==":
		return Signature{NVals: -1, NConts: -1}, true
	case "Y":
		return Signature{NVals: 1, NConts: 0}, true
	case "array":
		return Signature{NVals: -1, NConts: 1}, true
	}
	return Signature{}, false
}

func checkSrc(t *testing.T, src string) error {
	t.Helper()
	n, err := Parse(src, testOpts)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Check(n, CheckOpts{Signatures: testSigs, AllowFree: FreeVars(n)})
}

func TestCheckAcceptsWellFormed(t *testing.T) {
	good := []string{
		"(+ 1 2 ce cc)",
		"(proc(x ce cc) (+ x 1 ce cc) 5 e k)",
		"(cont(t) (k t) 3)",
		"(== x 1 2 cont()(k 1) cont()(k 2) cont()(k 0))",
		"([] a 3 cont(t) (k t))",
		`(Y proc(!c0 !for !c)
		   (c cont() (for 1)
		      cont(i) (> i 10 cont()(k ok) cont()(for i))))`,
		// Twins of the escapes rejected below ('!' marks the free e and k
		// as continuations, as a server's rebinding does).
		"(+ 40 2 !e cont(n) (!k n))",
		"(cont(f) (f 1 !e !k) proc(x !ce !cc) (cc x))",
	}
	for _, src := range good {
		if err := checkSrc(t, src); err != nil {
			t.Errorf("Check(%q) = %v, want nil", src, err)
		}
	}
}

func TestCheckRejectsIllFormed(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"literal in functional position", "(3 x)"},
		{"beta arity mismatch", "(cont(a b) (k a b) 1)"},
		{"prim value arity", "(+ 1 ce cc)"},
		{"prim cont arity", "([] a 1 cont(t)(k t) cont(u)(k u))"},
		// Only the knot-tying call of a Y body may pass a continuation
		// to a continuation (§2.3); any other continuation takes values.
		{"continuation passed to a continuation", "(+ 40 2 !e cont(n) (!k k))"},
		// A proc value may be called after the continuation it would
		// capture is gone: its body uses only its own ce/cc.
		{"proc uses an outer continuation", "(cont(f) (f 1 !e !k) proc(x !ce !cc) (k x))"},
	}
	for _, tt := range bad {
		if err := checkSrc(t, tt.src); err == nil {
			t.Errorf("%s: Check(%q) = nil, want error", tt.name, tt.src)
		} else if !errors.Is(err, ErrIllFormed) {
			t.Errorf("%s: error %v does not wrap ErrIllFormed", tt.name, err)
		}
	}
}

func TestCheckUnknownPrimitive(t *testing.T) {
	g := NewVarGen()
	cc := g.FreshCont("cc")
	app := NewApp(NewPrim("frobnicate"), Int(1), cc)
	err := Check(app, CheckOpts{Signatures: testSigs, AllowFree: []*Var{cc}})
	if err == nil {
		t.Error("unknown primitive accepted")
	}
}

func TestCheckUniqueBinding(t *testing.T) {
	// Build a tree where the same *Var is bound twice — impossible to
	// parse, so construct it directly (the paper's forbidden example
	// λ(x)(λ(x)app val)).
	g := NewVarGen()
	x := g.Fresh("x")
	k := g.FreshCont("k")
	inner := &Abs{Params: []*Var{x}, Body: NewApp(k, x)}
	outer := &Abs{Params: []*Var{x}, Body: NewApp(inner, Int(1))}
	err := Check(outer, CheckOpts{Signatures: testSigs, AllowFree: []*Var{k}})
	if err == nil {
		t.Fatal("double binding not rejected")
	}
}

func TestCheckContEscape(t *testing.T) {
	// A continuation variable passed in a value position of a primitive.
	g := NewVarGen()
	k := g.FreshCont("k")
	ce := g.FreshCont("ce")
	cc := g.FreshCont("cc")
	app := NewApp(NewPrim("+"), k, Int(1), ce, cc)
	err := Check(app, CheckOpts{Signatures: testSigs, AllowFree: []*Var{k, ce, cc}})
	if err == nil {
		t.Fatal("escaping continuation not rejected")
	}
}

func TestCheckFreeVariable(t *testing.T) {
	g := NewVarGen()
	x := g.Fresh("x")
	cc := g.FreshCont("cc")
	app := NewApp(cc, x)
	if err := Check(app, CheckOpts{Signatures: testSigs}); err == nil {
		t.Error("unlisted free variable accepted")
	}
	if err := Check(app, CheckOpts{Signatures: testSigs, AllowFree: []*Var{x, cc}}); err != nil {
		t.Errorf("allowed free variable rejected: %v", err)
	}
}

func TestCheckProcShape(t *testing.T) {
	// An abstraction with one continuation parameter in the middle is
	// neither proc, cont nor Y-shaped.
	g := NewVarGen()
	a := g.Fresh("a")
	k := g.FreshCont("k")
	b := g.Fresh("b")
	bad := &Abs{Params: []*Var{a, k, b}, Body: NewApp(k, a, b)}
	if err := Check(bad, CheckOpts{Signatures: testSigs}); err == nil {
		t.Error("malformed parameter shape accepted")
	}
}

func TestSplitArgs(t *testing.T) {
	g := NewVarGen()
	k1 := g.FreshCont("k1")
	k2 := g.FreshCont("k2")
	x := g.Fresh("x")
	vals, conts := SplitArgs([]Value{x, Int(1), Int(2), k1, k2})
	if len(vals) != 3 || len(conts) != 2 {
		t.Errorf("SplitArgs = %d vals, %d conts; want 3, 2", len(vals), len(conts))
	}
	vals, conts = SplitArgs([]Value{x})
	if len(vals) != 1 || len(conts) != 0 {
		t.Errorf("SplitArgs(no conts) = %d, %d", len(vals), len(conts))
	}
}
