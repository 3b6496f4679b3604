package machine

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"tycoon/internal/opt"
	"tycoon/internal/prim"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

var popts = tml.ParseOpts{IsPrim: prim.IsPrim}

// runSrc parses src (an application), binds its free variables: any free
// variable named "halt"/"fail" becomes the top-level ok/error continuation
// and extra names are taken from binds; then runs it.
func runSrc(t *testing.T, m *Machine, src string, binds map[string]Value) (Value, error) {
	t.Helper()
	app, err := tml.ParseApp(src, popts)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return runApp(m, app, binds)
}

func runApp(m *Machine, app *tml.App, binds map[string]Value) (Value, error) {
	free := tml.FreeVars(app)
	vals := make([]Value, len(free))
	for i, v := range free {
		switch {
		case v.Name == "halt":
			vals[i] = &Halt{}
		case v.Name == "fail":
			vals[i] = &Halt{Err: true}
		case binds[v.Name] != nil:
			vals[i] = binds[v.Name]
		default:
			vals[i] = Unit{}
		}
	}
	env := (*Env)(nil).Extend(free, vals)
	return m.RunApp(app, env)
}

func wantIntResult(t *testing.T, v Value, err error, want int64) {
	t.Helper()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	i, ok := v.(Int)
	if !ok || int64(i) != want {
		t.Fatalf("result = %v, want %d", v.Show(), want)
	}
}

func TestArithmetic(t *testing.T) {
	m := New(nil)
	v, err := runSrc(t, m, "(+ 1 2 fail halt)", nil)
	wantIntResult(t, v, err, 3)

	v, err = runSrc(t, m, "(* 6 7 fail cont(x) (- x 2 fail halt))", nil)
	wantIntResult(t, v, err, 40)
}

func TestDivisionByZeroRaises(t *testing.T) {
	m := New(nil)
	_, err := runSrc(t, m, "(/ 1 0 fail halt)", nil)
	if !errors.Is(err, ErrUnhandled) {
		t.Fatalf("err = %v, want unhandled exception", err)
	}
}

func TestComparisonBranches(t *testing.T) {
	m := New(nil)
	v, err := runSrc(t, m, "(< 1 2 cont()(halt 1) cont()(halt 0))", nil)
	wantIntResult(t, v, err, 1)
	v, err = runSrc(t, m, "(>= 1 2 cont()(halt 1) cont()(halt 0))", nil)
	wantIntResult(t, v, err, 0)
}

func TestPaperLoopExample(t *testing.T) {
	// The §2.3 loop: for i = 1 upto 10 do f(i) end, with f accumulating
	// into an array cell so the side effect is observable.
	src := `
(array 0 cont(acc)
  (Y proc(!c0 !for !c)
     (c cont() (for 1)
        cont(i)
          (> i 10
             cont() ([] acc 0 cont(r) (halt r))
             cont() ([] acc 0 cont(a)
                      (+ a i fail cont(b)
                        ([:=] acc 0 b cont(u)
                          (+ i 1 fail cont(j) (for j)))))))))`
	m := New(nil)
	v, err := runSrc(t, m, src, nil)
	wantIntResult(t, v, err, 55)
}

func TestDeepLoopDoesNotOverflowStack(t *testing.T) {
	// One million iterations through the trampoline.
	src := `
(Y proc(!c0 !loop !c)
   (c cont() (loop 0)
      cont(i)
        (>= i 1000000
           cont() (halt i)
           cont() (+ i 1 fail cont(j) (loop j)))))`
	m := New(nil)
	v, err := runSrc(t, m, src, nil)
	wantIntResult(t, v, err, 1000000)
}

func TestMutualRecursionViaY(t *testing.T) {
	// even/odd mutual recursion: even(10) = true → 1.
	src := `
(Y proc(!c0 even odd !c)
   (c cont() (even 10 cont(r) (if r cont()(halt 1) cont()(halt 0)))
      cont(n k1)
        (== n 0 cont() (k1 true)
                cont() (- n 1 fail cont(p) (odd p k1)))
      cont(n2 k2)
        (== n2 0 cont() (k2 false)
                 cont() (- n2 1 fail cont(p2) (even p2 k2)))))`
	m := New(nil)
	v, err := runSrc(t, m, src, nil)
	wantIntResult(t, v, err, 1)
}

func TestArraysAndCase(t *testing.T) {
	m := New(nil)
	src := `
(array 10 20 30 cont(a)
  ([:=] a 1 99 cont(u)
    ([] a 1 cont(x)
      (== x 99 cont() (halt 1) cont() (halt 0)))))`
	v, err := runSrc(t, m, src, nil)
	wantIntResult(t, v, err, 1)
}

func TestIndexOutOfRangeIsCatchable(t *testing.T) {
	m := New(nil)
	// Without a handler, the program dies.
	_, err := runSrc(t, m, "(array 1 cont(a) ([] a 5 cont(x) (halt x)))", nil)
	if !errors.Is(err, ErrUnhandled) {
		t.Fatalf("err = %v, want unhandled exception", err)
	}
	// With pushHandler, the handler receives the exception value.
	src := `
(pushHandler cont(ex) (halt 42)
             cont() (array 1 cont(a) ([] a 5 cont(x) (halt x))))`
	v, err := runSrc(t, m, src, nil)
	wantIntResult(t, v, err, 42)
}

func TestRaiseAndPopHandler(t *testing.T) {
	m := New(nil)
	// raise transfers to the installed handler.
	v, err := runSrc(t, m, `(pushHandler cont(ex) (halt ex) cont() (raise 7))`, nil)
	wantIntResult(t, v, err, 7)
	// popHandler removes it again: raise then reaches the top level.
	_, err = runSrc(t, m, `
(pushHandler cont(ex) (halt 1)
             cont() (popHandler cont() (raise 9)))`, nil)
	if !errors.Is(err, ErrUnhandled) {
		t.Fatalf("err = %v, want unhandled", err)
	}
}

func TestExceptionValueCarried(t *testing.T) {
	m := New(nil)
	_, err := runSrc(t, m, `(raise "boom")`, nil)
	var ex *Exception
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *Exception", err)
	}
	if ex.Value.Show() != "boom" {
		t.Errorf("exception value = %s", ex.Value.Show())
	}
}

func TestCCall(t *testing.T) {
	m := New(nil)
	v, err := runSrc(t, m, `(ccall "sqrt" 25.0 fail halt)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := v.(Real); !ok || r != 5.0 {
		t.Errorf("sqrt = %v", v.Show())
	}
	// Domain fault goes to ce.
	_, err = runSrc(t, m, `(ccall "sqrt" -1.0 fail halt)`, nil)
	if !errors.Is(err, ErrUnhandled) {
		t.Errorf("err = %v", err)
	}
	// Unknown host function is a machine error, not an exception.
	_, err = runSrc(t, m, `(ccall "fork" fail halt)`, nil)
	var rte *RuntimeError
	if !errors.As(err, &rte) {
		t.Errorf("err = %v, want RuntimeError", err)
	}
}

func TestPrint(t *testing.T) {
	var buf bytes.Buffer
	m := New(nil)
	m.Out = &buf
	_, err := runSrc(t, m, `(print "hello" cont(u) (print 42 cont(v) (halt ok)))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "hello\n42\n" {
		t.Errorf("output = %q", got)
	}
}

func TestStoreAccess(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	oid := st.Alloc(&store.Array{Elems: []store.Val{store.IntVal(5), store.IntVal(6)}})
	m := New(st)
	binds := map[string]Value{"arr": Ref{OID: oid}}
	v, err := runSrc(t, m, "([] arr 1 cont(x) (halt x))", binds)
	wantIntResult(t, v, err, 6)
	// Store update through [:=].
	_, err = runSrc(t, m, "([:=] arr 0 77 cont(u) (halt ok))", binds)
	if err != nil {
		t.Fatal(err)
	}
	got := st.MustGet(oid).(*store.Array).Elems[0].Int
	if got != 77 {
		t.Errorf("store array not updated: %d", got)
	}
}

func TestOidLiteralResolves(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	oid := st.Alloc(&store.Tuple{Fields: []store.Val{store.RealVal(3.5)}})
	m := New(st)
	src := "([] <oid 0x" + refHex(uint64(oid)) + "> 0 cont(x) (halt x))"
	v, err := runSrc(t, m, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := v.(Real); !ok || r != 3.5 {
		t.Errorf("tuple field = %v", v.Show())
	}
}

func refHex(u uint64) string {
	const digits = "0123456789abcdef"
	if u == 0 {
		return "0"
	}
	var b []byte
	for u > 0 {
		b = append([]byte{digits[u&15]}, b...)
		u >>= 4
	}
	return string(b)
}

func TestStepBudget(t *testing.T) {
	m := New(nil)
	m.MaxSteps = 100
	src := `
(Y proc(!c0 !loop !c)
   (c cont() (loop 0)
      cont(i) (+ i 1 fail cont(j) (loop j))))`
	_, err := runSrc(t, m, src, nil)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want step budget", err)
	}
}

func TestApplyClosure(t *testing.T) {
	m := New(nil)
	app, err := tml.ParseApp("(halt cont(x !ce !cc) (+ x 1 ce cc))", popts)
	if err != nil {
		t.Fatal(err)
	}
	// Extract the abstraction and apply it directly.
	abs := app.Args[0].(*tml.Abs)
	clo := &Closure{Abs: abs, Env: nil, Name: "inc"}
	v, err := m.Apply(clo, []Value{Int(41)})
	wantIntResult(t, v, err, 42)
	// Arity mismatch.
	if _, err := m.Apply(clo, []Value{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Applying a non-closure.
	if _, err := m.Apply(Int(3), nil); err == nil {
		t.Error("applied an integer")
	}
}

func TestUnboundVariable(t *testing.T) {
	g := tml.NewVarGen()
	x := g.Fresh("x")
	k := g.FreshCont("k")
	app := tml.NewApp(k, x)
	m := New(nil)
	env := (*Env)(nil).Extend([]*tml.Var{k}, []Value{&Halt{}})
	if _, err := m.RunApp(app, env); err == nil {
		t.Error("unbound variable tolerated")
	}
}

func TestStringsAndConversions(t *testing.T) {
	m := New(nil)
	v, err := runSrc(t, m, `(s+ "ab" "cd" cont(s) (slen s cont(n) (halt n)))`, nil)
	wantIntResult(t, v, err, 4)
	v, err = runSrc(t, m, "(char2int 'a' cont(i) (halt i))", nil)
	wantIntResult(t, v, err, 97)
	v, err = runSrc(t, m, "(int2real 3 cont(r) (r* r 2.0 fail cont(x) (real2int x fail halt)))", nil)
	wantIntResult(t, v, err, 6)
}

func TestValueShow(t *testing.T) {
	cases := map[string]Value{
		"7":      Int(7),
		"2.5":    Real(2.5),
		"3.0":    Real(3),
		"true":   Bool(true),
		"a":      Char('a'),
		"s":      Str("s"),
		"ok":     Unit{},
		"<halt>": &Halt{},
		"proc f": &Closure{Name: "f"},
	}
	for want, v := range cases {
		if got := v.Show(); got != want {
			t.Errorf("Show = %q, want %q", got, want)
		}
	}
	arr := &Array{Elems: []Value{Int(1), Int(2)}}
	if got := arr.Show(); got != "array(1 2)" {
		t.Errorf("array Show = %q", got)
	}
}

func TestEq(t *testing.T) {
	a1 := &Array{}
	a2 := &Array{}
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Real(1), false},
		{Str("x"), Str("x"), true},
		{Unit{}, Unit{}, true},
		{Ref{OID: 3}, Ref{OID: 3}, true},
		{Ref{OID: 3}, Ref{OID: 4}, false},
		{a1, a1, true},
		{a1, a2, false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v", c.a.Show(), c.b.Show(), got, c.want)
		}
	}
}

// TestOptimizePreservesSemantics is the central cross-package property:
// for random arithmetic TML programs, the optimizer must not change the
// observable result.
func TestOptimizePreservesSemantics(t *testing.T) {
	gen := func(seed int64, depth int) *tml.App {
		g := tml.NewVarGen()
		ce := g.FreshCont("fail")
		cc := g.FreshCont("halt")
		rnd := seed
		next := func(n int64) int64 {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			r := rnd >> 33
			if r < 0 {
				r = -r
			}
			return r % n
		}
		var build func(d int, avail []*tml.Var) *tml.App
		build = func(d int, avail []*tml.Var) *tml.App {
			operand := func() tml.Value {
				if len(avail) > 0 && next(2) == 0 {
					return avail[next(int64(len(avail)))]
				}
				return tml.Int(next(100) - 50)
			}
			if d == 0 {
				return tml.NewApp(cc, operand())
			}
			switch next(4) {
			case 0: // comparison branch
				tv := g.Fresh("t")
				left := build(d-1, avail)
				right := build(d-1, avail)
				_ = tv
				return tml.NewApp(tml.NewPrim("<"), operand(), operand(),
					&tml.Abs{Body: left}, &tml.Abs{Body: right})
			default:
				ops := []string{"+", "-", "*"}
				tv := g.Fresh("t")
				rest := build(d-1, append(avail, tv))
				return tml.NewApp(tml.NewPrim(ops[next(3)]), operand(), operand(), ce,
					&tml.Abs{Params: []*tml.Var{tv}, Body: rest})
			}
		}
		return build(depth, nil)
	}

	runBoth := func(seed int64, depthRaw uint8) bool {
		depth := int(depthRaw % 7)
		app := gen(seed, depth)
		m := New(nil)
		v1, err1 := runApp(m, app, nil)
		optApp, _, err := opt.Optimize(app, opt.Options{})
		if err != nil {
			t.Logf("optimize error: %v", err)
			return false
		}
		// The optimizer renames nothing at top level, but free variables
		// are shared pointers, so rebinding works identically.
		v2, err2 := runApp(m, optApp, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("error mismatch: %v vs %v", err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		return Eq(v1, v2)
	}
	if err := quick.Check(runBoth, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEnvLookupShadowing(t *testing.T) {
	g := tml.NewVarGen()
	x := g.Fresh("x")
	y := g.Fresh("y")
	env := (*Env)(nil).Extend([]*tml.Var{x}, []Value{Int(1)})
	env2 := env.Extend([]*tml.Var{y}, []Value{Int(2)})
	if v, ok := env2.Lookup(x); !ok || v.(Int) != 1 {
		t.Error("outer binding lost")
	}
	if v, ok := env2.Lookup(y); !ok || v.(Int) != 2 {
		t.Error("inner binding lost")
	}
	if _, ok := env2.Lookup(g.Fresh("z")); ok {
		t.Error("unbound variable resolved")
	}
}

func TestShowTruncatesLongArrays(t *testing.T) {
	elems := make([]Value, 20)
	for i := range elems {
		elems[i] = Int(int64(i))
	}
	s := (&Array{Elems: elems}).Show()
	if !strings.Contains(s, "…") {
		t.Errorf("long array not truncated: %s", s)
	}
}
