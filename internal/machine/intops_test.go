package machine_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

// TestIntOpsFoldAgreesWithExecution runs every integer primitive of
// prim.IntOps over edge operands three ways: folded at compile time, and
// executed on the resolved/fused path and the generic one. A fold fires
// exactly when execution takes the normal continuation, and both give
// the same value (or, for a comparison, the same branch).
func TestIntOpsFoldAgreesWithExecution(t *testing.T) {
	edges := []int64{math.MinInt64, -1, 0, 1, 7, -7, math.MaxInt64, 64}
	names := make([]string, 0, len(prim.IntOps))
	for name := range prim.IntOps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		op := prim.IntOps[name]
		desc, ok := prim.Lookup(name)
		if !ok || desc.Fold == nil {
			t.Fatalf("%s: no fold rule", name)
		}
		for _, a := range edges {
			for _, b := range edges {
				if op.Neg != nil && b != 0 {
					continue // unary: one pass per a
				}
				checkIntOp(t, name, op, desc.Fold, a, b)
			}
		}
	}
}

func checkIntOp(t *testing.T, name string, op prim.IntOp, fold prim.FoldFunc, a, b int64) {
	t.Helper()
	gen := tml.NewVarGen()
	ce, cc := gen.FreshCont("ce"), gen.FreshCont("cc")
	operands := []tml.Value{tml.Int(a), tml.Int(b)}
	if op.Neg != nil {
		operands = operands[:1]
	}
	var conts []tml.Value
	var ct *tml.Abs
	switch {
	case op.Cmp != nil:
		ct = &tml.Abs{Body: &tml.App{Fn: cc, Args: []tml.Value{tml.Bool(true)}}}
		cf := &tml.Abs{Body: &tml.App{Fn: cc, Args: []tml.Value{tml.Bool(false)}}}
		conts = []tml.Value{ct, cf}
	case op.Bits != nil:
		conts = []tml.Value{cc}
	default:
		conts = []tml.Value{ce, cc}
	}
	args := append(operands, conts...)
	call := &tml.App{Fn: tml.NewPrim(name), Args: args}

	folded, fired := fold(args)
	var foldVal string
	if fired {
		switch {
		case op.Cmp != nil:
			foldVal = tml.Bool(folded.Fn == tml.Value(ct)).String()
		case len(folded.Args) == 1:
			foldVal = folded.Args[0].String()
		}
	}

	prog, err := machine.CompileProc(&tml.Abs{Params: []*tml.Var{ce, cc}, Body: call}, name)
	if err != nil {
		t.Fatalf("%s %d %d: %v", name, a, b, err)
	}
	fn := closureOf(prog)
	fast, generic := machine.New(nil), machine.New(nil)
	machine.ForceGenericPath(generic)
	v, err := fast.Apply(fn, nil)
	gv, gerr := generic.Apply(fn, nil)
	if (err == nil) != (gerr == nil) || err == nil && v.Show() != gv.Show() {
		t.Errorf("(%s %d %d): resolved %v, %v; generic %v, %v", name, a, b, v, err, gv, gerr)
	}
	tookCC := err == nil
	if err != nil && !errors.Is(err, machine.ErrUnhandled) {
		t.Fatalf("(%s %d %d): %v", name, a, b, err)
	}
	if fired != tookCC {
		t.Errorf("(%s %d %d): fold fired %v, execution took cc %v (%v)", name, a, b, fired, tookCC, err)
		return
	}
	if fired && v.Show() != foldVal {
		t.Errorf("(%s %d %d): folded to %s, executed to %s", name, a, b, foldVal, v.Show())
	}
}
