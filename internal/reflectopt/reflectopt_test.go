package reflectopt_test

import (
	"errors"
	"strings"
	"testing"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/reflectopt"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tml"
	"tycoon/internal/tyclib"
)

type world struct {
	st   *store.Store
	lk   *linker.Linker
	comp *tl.Compiler
	m    *machine.Machine
	mg   *relalg.Manager
	ro   *reflectopt.Optimizer
}

func setup(t *testing.T) *world {
	t.Helper()
	return setupWith(t, linker.Config{})
}

// setupWith is setup with the library installed under cfg.
func setupWith(t *testing.T, cfg linker.Config) *world {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	lk := linker.New(cfg)
	w := &world{st: st, lk: lk}
	w.write(t, func(tx *store.Txn) {
		if w.comp, err = tyclib.Install(machine.New(tx), tx, lk); err != nil {
			t.Fatal(err)
		}
	})
	m := machine.New(st)
	mg := relalg.NewManager(st)
	mg.Register(m)
	w.m, w.mg, w.ro = m, mg, reflectopt.New(st, pipeline.New(st, pipeline.Config{}), reflectopt.Options{})
	return w
}

// write runs f in one transaction over the world's store and commits it.
func (w *world) write(t *testing.T, f func(tx *store.Txn)) {
	t.Helper()
	tx := w.st.Begin()
	defer tx.Abort()
	f(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (w *world) install(t *testing.T, src string) store.OID {
	t.Helper()
	unit, err := w.comp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var oid store.OID
	w.write(t, func(tx *store.Txn) {
		if oid, err = w.lk.InstallModuleOn(machine.New(tx), tx, unit); err != nil {
			t.Fatalf("install: %v", err)
		}
	})
	return oid
}

// exportOID finds the closure OID of an exported function.
func (w *world) exportOID(t *testing.T, modOID store.OID, name string) store.OID {
	t.Helper()
	mod := w.st.MustGet(modOID).(*store.Module)
	v, ok := mod.Lookup(name)
	if !ok || v.Kind != store.ValRef {
		t.Fatalf("export %s not a closure ref", name)
	}
	return v.Ref
}

// TestPaperAbsExample reproduces §4.1: module complex with encapsulated
// accessors, function abs using them through the barrier, and
// reflect.optimize(abs) producing code equivalent to
// sqrt(c.x*c.x + c.y*c.y).
func TestPaperAbsExample(t *testing.T) {
	w := setup(t)
	w.install(t, `
module complex export T, new, x, y
type T = Tuple x, y : Real end
let new(x : Real, y : Real) : T = tuple x, y end
let x(c : T) : Real = c.x
let y(c : T) : Real = c.y
end`)
	geomOID := w.install(t, `
module geom export abs
let abs(c : complex.T) : Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end`)

	point := &machine.Vector{Elems: []machine.Value{machine.Real(3), machine.Real(4)}}

	// Original dynamic-dispatch version.
	v, err := w.m.CallExport(geomOID, "abs", []machine.Value{point})
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	if r, ok := v.(machine.Real); !ok || r != 5.0 {
		t.Fatalf("abs(3,4) = %s, want 5", v.Show())
	}
	w.m.ResetSteps()
	if _, err := w.m.CallExport(geomOID, "abs", []machine.Value{point}); err != nil {
		t.Fatal(err)
	}
	stepsOriginal := w.m.Steps()

	// optimizedAbs = reflect.optimize(abs).
	absOID := w.exportOID(t, geomOID, "abs")
	res, err := w.ro.Optimize(absOID)
	if err != nil {
		t.Fatalf("reflect optimize: %v", err)
	}
	if res.Inlined == 0 {
		t.Error("no cross-barrier inlining happened")
	}
	optimized := tml.Print(res.Abs)
	// The module fetches are gone: no [] on module values remains
	// (tuple field access on the argument c remains, of course).
	if res.Stats.Rules["fold-field"] == 0 {
		t.Errorf("module member fetches were not folded: %v", res.Stats.Rules)
	}
	// The transcendental call is inlined down to the ccall primitive.
	if !strings.Contains(optimized, "ccall") {
		t.Errorf("sqrt not inlined to its primitive:\n%s", optimized)
	}
	// And the arithmetic is inlined down to real primitives.
	if !strings.Contains(optimized, "r*") || !strings.Contains(optimized, "r+") {
		t.Errorf("real arithmetic not inlined:\n%s", optimized)
	}

	// The optimized function computes the same value…
	w.m.ResetSteps()
	v2, err := w.m.Apply(res.Closure, []machine.Value{point})
	if err != nil {
		t.Fatalf("optimizedAbs: %v", err)
	}
	stepsOptimized := w.m.Steps()
	if r, ok := v2.(machine.Real); !ok || r != 5.0 {
		t.Fatalf("optimizedAbs(3,4) = %s, want 5", v2.Show())
	}
	// …and executes faster than the original (paper: "executes faster
	// than the original").
	if stepsOptimized*2 > stepsOriginal {
		t.Errorf("steps: original %d, optimized %d — expected ≥2× fewer", stepsOriginal, stepsOptimized)
	}
}

func TestOptimizeAndInstallOverridesLink(t *testing.T) {
	w := setup(t)
	modOID := w.install(t, `
module h export gauss
let gauss(n : Int) : Int =
  begin var s := 0; for i = 1 upto n do s := s + i end; s end
end`)
	gaussOID := w.exportOID(t, modOID, "gauss")

	w.m.ResetSteps()
	v, err := w.m.CallExport(modOID, "gauss", []machine.Value{machine.Int(1000)})
	if err != nil || v != machine.Value(machine.Int(500500)) {
		t.Fatalf("gauss = %v, %v", v, err)
	}
	stepsBefore := w.m.Steps()

	if _, err := w.ro.OptimizeAndInstall(w.m.Code, gaussOID); err != nil {
		t.Fatal(err)
	}
	// The same CallExport path now runs the optimized code.
	w.m.ResetSteps()
	v, err = w.m.CallExport(modOID, "gauss", []machine.Value{machine.Int(1000)})
	if err != nil || v != machine.Value(machine.Int(500500)) {
		t.Fatalf("optimized gauss = %v, %v", v, err)
	}
	stepsAfter := w.m.Steps()
	if stepsAfter*2 > stepsBefore {
		t.Errorf("dynamic optimization did not double speed: %d → %d steps", stepsBefore, stepsAfter)
	}
}

func TestRecursiveFunctionStaysCorrect(t *testing.T) {
	w := setup(t)
	modOID := w.install(t, `
module r export fact
let fact(n : Int) : Int = if n < 2 then 1 else n * fact(n - 1) end
end`)
	factOID := w.exportOID(t, modOID, "fact")
	res, err := w.ro.Optimize(factOID)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.m.Apply(res.Closure, []machine.Value{machine.Int(10)})
	if err != nil || v != machine.Value(machine.Int(3628800)) {
		t.Fatalf("optimized fact(10) = %v, %v", v, err)
	}
}

func TestStrippedClosureRejected(t *testing.T) {
	w := setupWith(t, linker.Config{StripPTML: true})
	modOID := w.install(t, `module s export f let f(n : Int) : Int = n + 1 end`)
	if _, err := w.ro.Optimize(w.exportOID(t, modOID, "f")); !errors.Is(err, reflectopt.ErrNoPTML) {
		t.Errorf("err = %v, want ErrNoPTML", err)
	}
}

// TestIndexThroughAbstraction is the E7 scenario: a query whose predicate
// calls an encapsulated key accessor. Program inlining exposes the column
// equality, and the query optimizer substitutes the index scan — the
// Fig. 4 interaction.
func TestIndexThroughAbstraction(t *testing.T) {
	w := setup(t)
	w.write(t, func(tx *store.Txn) {
		relOID, err := relalg.CreateRelation(tx, "emp", []store.Column{
			{Name: "id", Type: store.ColInt},
			{Name: "sal", Type: store.ColInt},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 500; i++ {
			if err := relalg.InsertRow(tx, relOID, []store.Val{store.IntVal(i), store.IntVal(i * 7)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	w.install(t, `
module schema export keyOf
type Emp = Tuple id, sal : Int end
let keyOf(e : Emp) : Int = e.id
end`)
	qmod := w.install(t, `
module q export byKey
rel emp : Rel(id : Int, sal : Int)
type Emp = Tuple id, sal : Int end
let byKey(k : Int) : Int =
  count(select e from e in emp where schema.keyOf(e) = k end)
end`)

	// Unoptimized execution scans.
	v, err := w.m.CallExport(qmod, "byKey", []machine.Value{machine.Int(123)})
	if err != nil || v != machine.Value(machine.Int(1)) {
		t.Fatalf("byKey = %v, %v", v, err)
	}
	w.m.ResetSteps()
	if _, err := w.m.CallExport(qmod, "byKey", []machine.Value{machine.Int(123)}); err != nil {
		t.Fatal(err)
	}
	stepsScan := w.m.Steps()

	byKeyOID := w.exportOID(t, qmod, "byKey")
	res, err := w.ro.OptimizeAndInstall(w.m.Code, byKeyOID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rules["index-scan"] == 0 {
		t.Fatalf("index-scan did not fire after inlining: %v\n%s",
			res.Stats.Rules, tml.Print(res.Abs))
	}
	// The access-path decision is surfaced in the result's plan, with the
	// equality estimate from live statistics (500 distinct keys → 1 row).
	planOK := false
	for _, n := range res.Plan {
		if n.Op == "indexscan" && n.Algo == "index" && n.Table == "emp" {
			planOK = true
			if n.EstRows != 1 {
				t.Errorf("indexscan est=%v, want 1 (unique key)", n.EstRows)
			}
		}
	}
	if !planOK {
		t.Errorf("no indexscan node in Result.Plan: %v", res.Plan)
	}
	w.m.ResetSteps()
	v, err = w.m.CallExport(qmod, "byKey", []machine.Value{machine.Int(123)})
	if err != nil || v != machine.Value(machine.Int(1)) {
		t.Fatalf("optimized byKey = %v, %v", v, err)
	}
	stepsIndex := w.m.Steps()
	// An index probe beats a 500-row scan by a wide margin.
	if stepsIndex*10 > stepsScan {
		t.Errorf("index scan not faster: scan %d steps, index %d steps", stepsScan, stepsIndex)
	}
}
