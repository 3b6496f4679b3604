package machine

import (
	"testing"
	"testing/quick"

	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

// recompile round-trips an abstraction through compiled code and back.
func recompile(t *testing.T, src string) (*tml.Abs, *tml.Abs) {
	t.Helper()
	abs := compileAbsSrc(t, src)
	prog, err := CompileProc(abs, "f")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Round-trip the code through its persistent encoding too.
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	rec, free, err := Decompile(back, nil)
	if err != nil {
		t.Fatalf("decompile: %v\n%s", err, Disasm(prog))
	}
	// The reconstruction must be well-formed TML.
	if err := tml.Check(rec, tml.CheckOpts{Signatures: prim.Signatures, AllowFree: free}); err != nil {
		t.Fatalf("reconstructed tree ill-formed: %v\n%s", err, tml.Print(rec))
	}
	return abs, rec
}

// agree checks that original and reconstruction compute the same results.
func agree(t *testing.T, orig, rec *tml.Abs, argSets ...[]Value) {
	t.Helper()
	m := New(nil)
	for _, args := range argSets {
		v1, err1 := m.refApply(&Closure{Abs: orig}, args)
		v2, err2 := m.refApply(&Closure{Abs: rec}, args)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch on %v: %v vs %v", args, err1, err2)
		}
		if err1 == nil && !Eq(v1, v2) {
			t.Errorf("args %v: original %s, reconstruction %s", args, v1.Show(), v2.Show())
		}
	}
}

func ints(vs ...int64) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = Int(v)
	}
	return out
}

func TestDecompileStraightLine(t *testing.T) {
	orig, rec := recompile(t, "proc(x !ce !cc) (+ x 1 ce cont(t) (* t 2 ce cc))")
	agree(t, orig, rec, ints(5), ints(-3), ints(0))
}

func TestDecompileConditional(t *testing.T) {
	orig, rec := recompile(t, `proc(x !ce !cc)
	  (< x 10 cont() (cc 1) cont() (cc 0))`)
	agree(t, orig, rec, ints(5), ints(15))
}

func TestDecompileCase(t *testing.T) {
	orig, rec := recompile(t, `proc(x !ce !cc)
	  (== x 1 2 3 cont()(cc 10) cont()(cc 20) cont()(cc 30) cont()(cc 0))`)
	agree(t, orig, rec, ints(1), ints(2), ints(3), ints(9))
}

func TestDecompileLoop(t *testing.T) {
	orig, rec := recompile(t, `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 1 0)
	        cont(i acc)
	          (> i n
	             cont() (cc acc)
	             cont() (+ acc i ce cont(a2)
	                      (+ i 1 ce cont(i2) (loop i2 a2))))))`)
	agree(t, orig, rec, ints(10), ints(0), ints(100))
}

func TestDecompileWhileShapedLoop(t *testing.T) {
	// Parameterless loop head with mutable cell, the while-loop shape.
	orig, rec := recompile(t, `proc(n !ce !cc)
	  (array 0 cont(cell)
	    (Y proc(!c0 !loop !c)
	       (c cont() (loop)
	          cont()
	            ([] cell 0 cont(s)
	              (>= s n
	                 cont() (cc s)
	                 cont() (+ s 3 ce cont(s2)
	                          ([:=] cell 0 s2 cont(u) (loop))))))))`)
	agree(t, orig, rec, ints(10), ints(0))
}

func TestDecompileRecursion(t *testing.T) {
	orig, rec := recompile(t, `proc(n !ce !cc)
	  (Y proc(!c0 fact !c)
	     (c cont() (fact n ce cc)
	        proc(k !ce2 !cc2)
	          (< k 2
	             cont() (cc2 1)
	             cont() (- k 1 ce2 cont(k1)
	                      (fact k1 ce2 cont(r) (* k r ce2 cc2))))))`)
	agree(t, orig, rec, ints(0), ints(5), ints(10))
}

func TestDecompileMutualRecursion(t *testing.T) {
	orig, rec := recompile(t, `proc(n !ce !cc)
	  (Y proc(!c0 even odd !c)
	     (c cont() (even n ce cc)
	        proc(a !e1 !k1)
	          (== a 0 cont() (k1 1)
	                  cont() (- a 1 e1 cont(p) (odd p e1 k1)))
	        proc(b !e2 !k2)
	          (== b 0 cont() (k2 0)
	                  cont() (- b 1 e2 cont(q) (even q e2 k2)))))`)
	agree(t, orig, rec, ints(10), ints(7), ints(0))
}

func TestDecompileHigherOrder(t *testing.T) {
	orig, rec := recompile(t, `proc(x !ce !cc)
	  (cc proc(b !e2 !k2) (+ x b e2 k2))`)
	m := New(nil)
	adder1, err := m.refApply(&Closure{Abs: orig}, ints(100))
	if err != nil {
		t.Fatal(err)
	}
	adder2, err := m.refApply(&Closure{Abs: rec}, ints(100))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := m.refApply(adder1, ints(11))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.refApply(adder2, ints(11))
	if err != nil {
		t.Fatal(err)
	}
	if !Eq(v1, v2) || v1 != Value(Int(111)) {
		t.Errorf("adders disagree: %s vs %s", v1.Show(), v2.Show())
	}
}

func TestDecompileEscapingContinuation(t *testing.T) {
	orig, rec := recompile(t, `proc(f x !ce !cc)
	  (f x ce cont(y) (f y ce cc))`)
	inc := compileAbsSrc(t, "proc(a !e !k) (+ a 1 e k)")
	m := New(nil)
	v1, err := m.refApply(&Closure{Abs: orig}, []Value{&Closure{Abs: inc}, Int(40)})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.refApply(&Closure{Abs: rec}, []Value{&Closure{Abs: inc}, Int(40)})
	if err != nil {
		t.Fatal(err)
	}
	if !Eq(v1, v2) || v1 != Value(Int(42)) {
		t.Errorf("%s vs %s", v1.Show(), v2.Show())
	}
}

func TestDecompileFreeVariableNames(t *testing.T) {
	abs := compileAbsSrc(t, "proc(x !ce !cc) (+ x delta ce cc)")
	prog, err := CompileProc(abs, "f")
	if err != nil {
		t.Fatal(err)
	}
	rec, free, err := Decompile(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 1 {
		t.Fatalf("free = %v", free)
	}
	// The reconstructed free variable prints exactly like the capture
	// name, so closure-record bindings resolve against it.
	if free[0].String() != prog.EntryBlock().FreeNames[0] {
		t.Errorf("free name %s vs capture %s", free[0], prog.EntryBlock().FreeNames[0])
	}
	// Behaviour with the free variable bound.
	m := New(nil)
	clo := &Closure{Abs: rec, Env: (*Env)(nil).Extend(free, []Value{Int(7)})}
	v, err := m.refApply(clo, ints(1))
	if err != nil || v != Value(Int(8)) {
		t.Errorf("f(1) with delta=7 = %v, %v", v, err)
	}
}

// TestDecompileAgreesOnRandomPrograms is the decompiler's central
// property: reconstruction preserves behaviour on random programs.
func TestDecompileAgreesOnRandomPrograms(t *testing.T) {
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
		abs := gen(seed, int(depthRaw%6))
		prog, err := CompileProc(abs, "p")
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		rec, _, err := Decompile(prog, nil)
		if err != nil {
			t.Logf("decompile: %v", err)
			return false
		}
		m := New(nil)
		v1, err1 := m.refApply(&Closure{Abs: abs}, ints(int64(arg)))
		v2, err2 := m.refApply(&Closure{Abs: rec}, ints(int64(arg)))
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || Eq(v1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDecompileIsReoptimizable answers the paper's §6 question: the
// reconstructed tree supports the same optimizations — it is, in
// particular, valid input for PTML encoding and further rewriting.
func TestDecompileIsReoptimizable(t *testing.T) {
	_, rec := recompile(t, `proc(x !ce !cc)
	  (+ 1 2 ce cont(a) (+ a x ce cc))`)
	// The constant subexpression folds in the reconstruction just as in
	// the original.
	m := New(nil)
	v, err := m.refApply(&Closure{Abs: rec}, ints(10))
	if err != nil || v != Value(Int(13)) {
		t.Fatalf("rec(10) = %v, %v", v, err)
	}
}

// TestDecompileNestedBlocks round-trips the blocks Decompile never
// reaches on its own: the nested procedures a closure instruction
// instantiates — query predicates, as tycd serves them. For each, the
// reconstructed abstraction must be well-formed, name its free variables
// exactly as the block's capture list does (index for index: that is how
// relalg lines them up with TAMClosure.Free), recompile to the same
// instruction count, and — closed over the same captured values — agree
// with the compiled block on result, exception and abstract step count.
func TestDecompileNestedBlocks(t *testing.T) {
	preds := map[string]string{
		"compare-capture": `proc(x !ce !cc) ([] x 1 cont(a) (< a n cont() (cc true) cont() (cc false)))`,
		"arith-two-captures": `proc(x !ce !cc) ([] x 0 cont(a) (+ a n ce cont(b)
			(* b m ce cont(c) (vector c a cont(row) (cc row)))))`,
		"raises":        `proc(x !ce !cc) ([] x 0 cont(a) (== a n cont() (ce "boom") cont() (cc false)))`,
		"row-forwarded": `proc(x !ce !cc) (cc x)`,
		"no-captures":   `proc(x !ce !cc) ([] x 1 cont(a) (and a true cont(b) (cc b)))`,
	}
	rows := [][]Value{ints(3, 4), ints(0, 0), ints(1<<62, 1<<62), {Str("s"), BoolValue(true)}, ints(7)}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			outer := compileAbsSrc(t, `proc(n m !e !k) (k `+pred+`)`)
			prog, err := CompileProc(outer, "outer")
			if err != nil {
				t.Fatal(err)
			}
			if len(prog.Blocks) != 2 {
				t.Fatalf("%d blocks, want entry + predicate\n%s", len(prog.Blocks), Disasm(prog))
			}
			inner := 1 - prog.Entry
			rec, free, err := DecompileBlock(prog, inner, nil)
			if err != nil {
				t.Fatalf("decompile: %v\n%s", err, Disasm(prog))
			}
			if err := tml.Check(rec, tml.CheckOpts{Signatures: prim.Signatures, AllowFree: free}); err != nil {
				t.Fatalf("reconstructed tree ill-formed: %v\n%s", err, tml.Print(rec))
			}
			blk := prog.Blocks[inner]
			if len(free) != len(blk.FreeNames) {
				t.Fatalf("free %v, captures %v", free, blk.FreeNames)
			}
			caps := make([]Value, len(free))
			for i, fv := range free {
				if fv.String() != blk.FreeNames[i] {
					t.Errorf("free %d is %s, capture list says %s", i, fv, blk.FreeNames[i])
				}
				caps[i] = Int(int64(3 + 2*i))
				if blk.FreeNames[i][0] == 'm' {
					caps[i] = Int(1 << 40) // overflows the multiplication on the wide row
				}
			}
			again, err := CompileProc(rec, "again")
			if err != nil {
				t.Fatalf("recompile: %v", err)
			}
			if got, want := len(again.EntryBlock().Instrs), len(blk.Instrs); got != want {
				t.Errorf("recompiled to %d instructions, block has %d", got, want)
			}
			compiled := &TAMClosure{Prog: prog, Blk: inner, Free: caps}
			interp := &Closure{Abs: rec, Env: (*Env)(nil).Extend(free, caps)}
			for _, row := range rows {
				arg := []Value{&Vector{Elems: row}}
				m1, m2 := New(nil), New(nil)
				v1, err1 := m1.Apply(compiled, arg)
				v2, err2 := m2.refApply(interp, arg)
				if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
					t.Fatalf("row %v: compiled error %v, reconstruction %v", row, err1, err2)
				}
				if err1 == nil && v1.Show() != v2.Show() {
					t.Errorf("row %v: compiled %s, reconstruction %s", row, v1.Show(), v2.Show())
				}
				if m1.Steps() != m2.Steps() {
					t.Errorf("row %v: compiled %d steps, reconstruction %d", row, m1.Steps(), m2.Steps())
				}
			}
		})
	}
	if _, _, err := DecompileBlock(&Program{}, 0, nil); err == nil {
		t.Error("DecompileBlock accepted a block index out of range")
	}
}
