package machine

import (
	"errors"
	"testing"
	"testing/quick"

	"tycoon/internal/tml"
)

// compileAndRun compiles a proc abstraction (given as the sole argument
// of a (halt proc…) wrapper or parsed directly) and applies it.
func compileAbsSrc(t *testing.T, src string) *tml.Abs {
	t.Helper()
	n, err := tml.Parse(src, popts)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	abs, ok := n.(*tml.Abs)
	if !ok {
		t.Fatalf("source is %T, want abstraction", n)
	}
	return abs
}

func compileClosure(t *testing.T, src, name string, free []Value) *TAMClosure {
	t.Helper()
	abs := compileAbsSrc(t, src)
	prog, err := CompileProc(abs, name)
	if err != nil {
		t.Fatalf("CompileProc: %v", err)
	}
	if want := len(prog.EntryBlock().FreeNames); want != len(free) {
		t.Fatalf("entry captures %v, got %d values", prog.EntryBlock().FreeNames, len(free))
	}
	return &TAMClosure{Prog: prog, Blk: prog.Entry, Free: free, Name: name}
}

func TestTAMSimpleArith(t *testing.T) {
	clo := compileClosure(t, "proc(x !ce !cc) (+ x 1 ce cont(t) (* t 2 ce cc))", "f", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(20)})
	wantIntResult(t, v, err, 42)
}

func TestTAMConditional(t *testing.T) {
	clo := compileClosure(t, "proc(x !ce !cc) (< x 10 cont() (cc 1) cont() (cc 0))", "f", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(5)})
	wantIntResult(t, v, err, 1)
	v, err = m.Apply(clo, []Value{Int(15)})
	wantIntResult(t, v, err, 0)
}

func TestTAMLoop(t *testing.T) {
	// Sum 1..n with a Y loop: continuation bindings become join points,
	// the recursive jump is a frame-local OpJump.
	src := `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 1 0)
	        cont(i acc)
	          (> i n
	             cont() (cc acc)
	             cont() (+ acc i ce cont(a2)
	                      (+ i 1 ce cont(i2) (loop i2 a2))))))`
	clo := compileClosure(t, src, "sum", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(10)})
	wantIntResult(t, v, err, 55)
	v, err = m.Apply(clo, []Value{Int(1000)})
	wantIntResult(t, v, err, 500500)
}

func TestTAMDeepLoopConstantSpace(t *testing.T) {
	src := `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 0)
	        cont(i)
	          (>= i n
	             cont() (cc i)
	             cont() (+ i 1 ce cont(j) (loop j)))))`
	clo := compileClosure(t, src, "count", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(2_000_000)})
	wantIntResult(t, v, err, 2_000_000)
}

func TestTAMRecursiveProc(t *testing.T) {
	// Recursive factorial through a Y procedure binding (cell-tied).
	src := `proc(n !ce !cc)
	  (Y proc(!c0 fact !c)
	     (c cont() (fact n ce cc)
	        proc(k !ce2 !cc2)
	          (< k 2
	             cont() (cc2 1)
	             cont() (- k 1 ce2 cont(k1)
	                      (fact k1 ce2 cont(r)
	                        (* k r ce2 cc2))))))`
	clo := compileClosure(t, src, "fact", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(10)})
	wantIntResult(t, v, err, 3628800)
}

func TestTAMMutualRecursion(t *testing.T) {
	src := `proc(n !ce !cc)
	  (Y proc(!c0 even odd !c)
	     (c cont() (even n ce cc)
	        proc(a !e1 !k1)
	          (== a 0 cont() (k1 1)
	                  cont() (- a 1 e1 cont(p) (odd p e1 k1)))
	        proc(b !e2 !k2)
	          (== b 0 cont() (k2 0)
	                  cont() (- b 1 e2 cont(q) (even q e2 k2)))))`
	clo := compileClosure(t, src, "even", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(10)})
	wantIntResult(t, v, err, 1)
	v, err = m.Apply(clo, []Value{Int(7)})
	wantIntResult(t, v, err, 0)
}

func TestTAMHigherOrder(t *testing.T) {
	// apply-twice: the continuation of the outer call escapes into the
	// unknown callee and must be reified.
	src := `proc(f x !ce !cc)
	  (f x ce cont(y) (f y ce cc))`
	twice := compileClosure(t, src, "twice", nil)
	inc := compileClosure(t, "proc(a !e !k) (+ a 1 e k)", "inc", nil)
	m := New(nil)
	v, err := m.Apply(twice, []Value{inc, Int(40)})
	wantIntResult(t, v, err, 42)
}

func TestTAMFreeVariables(t *testing.T) {
	// The abstraction captures free variables bound at closure creation.
	abs := compileAbsSrc(t, "proc(x !ce !cc) (+ x delta ce cc)")
	prog, err := CompileProc(abs, "addDelta")
	if err != nil {
		t.Fatal(err)
	}
	names := prog.EntryBlock().FreeNames
	if len(names) != 1 {
		t.Fatalf("FreeNames = %v, want [delta_…]", names)
	}
	clo := &TAMClosure{Prog: prog, Blk: prog.Entry, Free: []Value{Int(100)}}
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(1)})
	wantIntResult(t, v, err, 101)
}

func TestTAMNestedClosureCapture(t *testing.T) {
	// An inner proc captures both its enclosing parameter and a global:
	// transitive capture through two block levels.
	src := `proc(a !ce !cc)
	  (cc proc(b !e2 !k2) (+ a b e2 cont(t) (+ t g e2 k2)))`
	abs := compileAbsSrc(t, src)
	prog, err := CompileProc(abs, "makeAdder")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.EntryBlock().FreeNames) != 1 {
		t.Fatalf("entry FreeNames = %v", prog.EntryBlock().FreeNames)
	}
	mk := &TAMClosure{Prog: prog, Blk: prog.Entry, Free: []Value{Int(1000)}}
	m := New(nil)
	adder, err := m.Apply(mk, []Value{Int(30)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Apply(adder, []Value{Int(12)})
	wantIntResult(t, v, err, 1042)
}

func TestTAMCaseAnalysis(t *testing.T) {
	src := `proc(x !ce !cc)
	  (== x 1 2 3
	      cont() (cc 10)
	      cont() (cc 20)
	      cont() (cc 30)
	      cont() (cc 0))`
	clo := compileClosure(t, src, "sel", nil)
	m := New(nil)
	for _, tt := range []struct{ in, want int64 }{{1, 10}, {2, 20}, {3, 30}, {9, 0}} {
		v, err := m.Apply(clo, []Value{Int(tt.in)})
		wantIntResult(t, v, err, tt.want)
	}
}

func TestTAMExceptions(t *testing.T) {
	src := `proc(x !ce !cc)
	  (pushHandler cont(ex) (cc 99)
	               cont() (/ 10 x ce cont(q) (popHandler cont() (cc q))))`
	clo := compileClosure(t, src, "safe", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(2)})
	wantIntResult(t, v, err, 5)
	// Division by zero raises through ce… which here is the top-level
	// handler; instead make the TML raise explicitly.
	src2 := `proc(x !ce !cc)
	  (pushHandler cont(ex) (cc 99)
	               cont() (== x 0 cont() (raise "zero") cont() (cc x)))`
	clo2 := compileClosure(t, src2, "guard", nil)
	v, err = m.Apply(clo2, []Value{Int(0)})
	wantIntResult(t, v, err, 99)
	v, err = m.Apply(clo2, []Value{Int(5)})
	wantIntResult(t, v, err, 5)
}

// TestHandlersDoNotLeakAcrossApply: a program that finishes inside a try,
// or is aborted there, must not leave its handler to catch the next
// program's exception on the same machine (tycd keeps one machine per
// session); a nested Apply must not drop its caller's handlers.
func TestHandlersDoNotLeakAcrossApply(t *testing.T) {
	guard := compileClosure(t, `proc(x !ce !cc)
	  (pushHandler cont(ex) (cc 99) cont() (+ x 1 ce cc))`, "guard", nil)
	raise := compileClosure(t, "proc(x !ce !cc) (raise x)", "raise", nil)
	spin := compileClosure(t, `proc(x !ce !cc)
	  (pushHandler cont(ex) (cc 99)
	     cont() (Y proc(!c0 !loop !c) (c cont() (loop) cont() (+ x 1 ce cont(y) (loop)))))`, "spin", nil)
	wantUnhandled := func(m *Machine, after string) {
		t.Helper()
		v, err := m.Apply(raise, []Value{Int(7)})
		var ex *Exception
		if !errors.As(err, &ex) || ex.Value != Value(Int(7)) {
			t.Errorf("raise after %s = %v, %v; want unhandled exception 7", after, v, err)
		}
	}

	m := New(nil)
	v, err := m.Apply(guard, []Value{Int(4)})
	wantIntResult(t, v, err, 5)
	wantUnhandled(m, "a program that finished inside a try")

	if _, err := m.Apply(guard, []Value{Str("four")}); err == nil {
		t.Fatal("guard on a string: want a runtime error")
	}
	wantUnhandled(m, "a runtime error inside a try")

	m.MaxSteps = 1000
	if _, err := m.Apply(spin, []Value{Int(1)}); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("spin: %v, want the step budget", err)
	}
	m.MaxSteps = 0
	wantUnhandled(m, "a step-budget abort inside a try")

	// A nested Apply (as a query predicate runs) that leaves a handler
	// behind returns with its caller's handlers intact.
	inner := compileClosure(t, "proc(!ce !cc) (pushHandler cont(ex) (cc 1) cont() (cc 2))", "inner", nil)
	outer := compileClosure(t, `proc(x !ce !cc)
	  (pushHandler cont(ex) (cc 99) cont() (print x cont(u) (raise x)))`, "outer", nil)
	m = New(nil)
	m.RegisterExec("print", func(m *Machine, vals, conts []Value) (Outcome, error) {
		if _, err := m.Apply(inner, nil); err != nil {
			return Outcome{}, err
		}
		return Outcome{Branch: 0, Results: []Value{Unit{}}}, nil
	})
	v, err = m.Apply(outer, []Value{Int(3)})
	wantIntResult(t, v, err, 99)
}

func TestTAMParallelMovesOnBackEdge(t *testing.T) {
	// Swap-style loop: (loop b a) from parameters (a b) requires staging
	// through a temporary or the values alias.
	src := `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 0 1 n)
	        cont(a b i)
	          (== i 0
	             cont() (cc a)
	             cont() (+ a b ce cont(s)
	                      (- i 1 ce cont(j) (loop b s j))))))`
	clo := compileClosure(t, src, "fib", nil)
	m := New(nil)
	v, err := m.Apply(clo, []Value{Int(10)})
	wantIntResult(t, v, err, 55) // fib(10)
}

func TestTAMCodecRoundTrip(t *testing.T) {
	src := `proc(n !ce !cc)
	  (Y proc(!c0 fact !c)
	     (c cont() (fact n ce cc)
	        proc(k !ce2 !cc2)
	          (< k 2
	             cont() (cc2 1)
	             cont() (- k 1 ce2 cont(k1)
	                      (fact k1 ce2 cont(r)
	                        (* k r ce2 cc2))))))`
	abs := compileAbsSrc(t, src)
	prog, err := CompileProc(abs, "fact")
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded program must run identically.
	m := New(nil)
	clo := &TAMClosure{Prog: back, Blk: back.Entry}
	v, err := m.Apply(clo, []Value{Int(6)})
	wantIntResult(t, v, err, 720)
	// Re-encoding is deterministic.
	data2, err := EncodeProgram(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("encoding not deterministic")
	}
}

func TestTAMCodecRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {'X'}, {'T', 9}, {'T', 1, 5}} {
		if _, err := DecodeProgram(data); err == nil {
			t.Errorf("DecodeProgram(%v) succeeded", data)
		}
	}
}

// TestTAMAgreesWithInterpreter is the cross-engine property: compiled and
// interpreted execution of random programs must agree.
func TestTAMAgreesWithInterpreter(t *testing.T) {
	gen := func(seed int64, depth int) *tml.Abs {
		g := tml.NewVarGen()
		x := g.Fresh("x")
		ce := g.FreshCont("ce")
		cc := g.FreshCont("cc")
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
				if next(2) == 0 {
					return avail[next(int64(len(avail)))]
				}
				return tml.Int(next(100) - 50)
			}
			if d == 0 {
				return tml.NewApp(cc, operand())
			}
			switch next(4) {
			case 0:
				left := build(d-1, avail)
				right := build(d-1, avail)
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
		return &tml.Abs{Params: []*tml.Var{x, ce, cc}, Body: build(depth, []*tml.Var{x})}
	}
	f := func(seed int64, depthRaw uint8, arg int16) bool {
		abs := gen(seed, int(depthRaw%7))
		m := New(nil)
		interp := &Closure{Abs: abs}
		v1, err1 := m.refApply(interp, []Value{Int(int64(arg))})
		prog, err := CompileProc(abs, "p")
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		compiled := &TAMClosure{Prog: prog, Blk: prog.Entry}
		v2, err2 := m.Apply(compiled, []Value{Int(int64(arg))})
		if (err1 == nil) != (err2 == nil) {
			t.Logf("error mismatch: %v vs %v", err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		return Eq(v1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestTAMStepBudget(t *testing.T) {
	src := `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 0)
	        cont(i) (+ i 1 ce cont(j) (loop j))))`
	clo := compileClosure(t, src, "spin", nil)
	m := New(nil)
	m.MaxSteps = 1000
	if _, err := m.Apply(clo, []Value{Int(0)}); err == nil {
		t.Error("runaway compiled loop not stopped")
	}
}
