package linker_test

import (
	"errors"
	"path/filepath"
	"testing"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tyclib"
)

// library commits tyclib into a fresh in-memory store and returns the
// store, the linker and the compiler that knows the library.
func library(t *testing.T, cfg linker.Config) (*store.Store, *linker.Linker, *tl.Compiler) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	lk := linker.New(cfg)
	tx := st.Begin()
	comp, err := tyclib.Install(machine.New(tx), tx, lk)
	if err != nil {
		t.Fatalf("tyclib install: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return st, lk, comp
}

// setup returns the pieces needed to compile and run user modules over a
// library store: one open transaction, which installs write into and the
// machine runs against.
func setup(t *testing.T, localOpt bool) (*store.Txn, *linker.Linker, *tl.Compiler, *machine.Machine, *relalg.Manager) {
	t.Helper()
	st, lk, comp := library(t, linker.Config{LocalOpt: localOpt})
	tx := st.Begin()
	t.Cleanup(tx.Abort)
	m := machine.New(tx)
	mg := relalg.NewManager(tx)
	mg.Register(m)
	return tx, lk, comp, m, mg
}

func install(t *testing.T, tx *store.Txn, lk *linker.Linker, comp *tl.Compiler, src string) store.OID {
	t.Helper()
	unit, err := comp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	oid, err := lk.InstallModuleOn(machine.New(tx), tx, unit)
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	return oid
}

func callInt(t *testing.T, m *machine.Machine, mod store.OID, fn string, args ...machine.Value) int64 {
	t.Helper()
	v, err := m.CallExport(mod, fn, args)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	i, ok := v.(machine.Int)
	if !ok {
		t.Fatalf("%s returned %s, want integer", fn, v.Show())
	}
	return int64(i)
}

const demoSrc = `
module demo export fact, fib, sumTo, gauss, bubble, pickCase, safeDiv, stry, reals, hof, closures
let fact(n : Int) : Int = if n < 2 then 1 else n * fact(n - 1) end
let fib(n : Int) : Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end
let sumTo(n : Int) : Int =
  begin
    var s := 0;
    var i := 1;
    while i <= n do s := s + i; i := i + 1 end;
    s
  end
let gauss(n : Int) : Int =
  begin var s := 0; for i = 1 upto n do s := s + i end; s end
let bubble(n : Int) : Int =
  begin
    let a = newArray(n, 0);
    for i = 0 upto n - 1 do a[i] := n - i end;
    for i = 1 upto n - 1 do
      var j := i;
      while j > 0 and a[j - 1] > a[j] do
        let tmp = a[j];
        a[j] := a[j - 1];
        a[j - 1] := tmp;
        j := j - 1
      end
    end;
    a[0] * 1000 + a[n - 1]
  end
let pickCase(c : Char) : Int = case c of 'a' => 1 | 'b' => 2 else 99 end
let safeDiv(a, b : Int) : Int = try a / b handle ex => -1 end
let stry(s : String) : Int = if s + "!" = "hi!" then len(s) else 0 end
let reals(x : Real) : Int = real.toInt(real.sqrt(x) * 10.0)
let hof(n : Int) : Int =
  begin
    let double = fun(a : Int) : Int => a * 2;
    double(double(n))
  end
let closures(n : Int) : Int =
  begin
    let adder(d : Int) : Fun(Int) : Int = fun(a : Int) : Int => a + d;
    let add5 = adder(5);
    add5(add5(n))
  end
end
`

func TestEndToEndDemo(t *testing.T) {
	for _, level := range []bool{false, true} {
		st, lk, comp, m, _ := setup(t, level)
		mod := install(t, st, lk, comp, demoSrc)

		cases := []struct {
			fn   string
			args []machine.Value
			want int64
		}{
			{"fact", []machine.Value{machine.Int(10)}, 3628800},
			{"fib", []machine.Value{machine.Int(15)}, 610},
			{"sumTo", []machine.Value{machine.Int(100)}, 5050},
			{"gauss", []machine.Value{machine.Int(100)}, 5050},
			{"bubble", []machine.Value{machine.Int(20)}, 1020},
			{"pickCase", []machine.Value{machine.Char('b')}, 2},
			{"pickCase", []machine.Value{machine.Char('z')}, 99},
			{"safeDiv", []machine.Value{machine.Int(10), machine.Int(2)}, 5},
			{"safeDiv", []machine.Value{machine.Int(10), machine.Int(0)}, -1},
			{"stry", []machine.Value{machine.Str("hi")}, 2},
			{"reals", []machine.Value{machine.Real(25.0)}, 50},
			{"hof", []machine.Value{machine.Int(5)}, 20},
			{"closures", []machine.Value{machine.Int(1)}, 11},
		}
		for _, tt := range cases {
			if got := callInt(t, m, mod, tt.fn, tt.args...); got != tt.want {
				t.Errorf("localOpt %v: %s = %d, want %d", level, tt.fn, got, tt.want)
			}
		}
	}
}

func TestEndToEndQueries(t *testing.T) {
	st, lk, comp, m, _ := setup(t, false)
	// Create the relation the module binds against.
	oid, err := relalg.CreateRelation(st, "emp", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "sal", Type: store.ColInt},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 100; i++ {
		if err := relalg.InsertRow(st, oid, []store.Val{store.IntVal(i), store.IntVal(i * 100)}); err != nil {
			t.Fatal(err)
		}
	}

	src := `
module q export high, hasId, total, addOne, cnt
rel emp : Rel(id : Int, sal : Int)
let high(k : Int) : Int = count(select tuple e.id end from e in emp where e.sal > k end)
let hasId(k : Int) : Bool = exists e in emp where e.id = k end
let total() : Int = begin var s := 0; foreach e in emp do s := s + e.sal end; s end
let addOne(i : Int, s : Int) : Ok = insert tuple i, s end into emp
let cnt() : Int = count(emp)
end`
	mod := install(t, st, lk, comp, src)

	if got := callInt(t, m, mod, "high", machine.Int(5000)); got != 50 {
		t.Errorf("high(5000) = %d, want 50", got)
	}
	if got := callInt(t, m, mod, "total"); got != 505000 {
		t.Errorf("total() = %d, want 505000", got)
	}
	v, err := m.CallExport(mod, "hasId", []machine.Value{machine.Int(7)})
	if err != nil || v != machine.Value(machine.Bool(true)) {
		t.Errorf("hasId(7) = %v, %v", v, err)
	}
	v, err = m.CallExport(mod, "hasId", []machine.Value{machine.Int(7777)})
	if err != nil || v != machine.Value(machine.Bool(false)) {
		t.Errorf("hasId(7777) = %v, %v", v, err)
	}
	if _, err := m.CallExport(mod, "addOne", []machine.Value{machine.Int(101), machine.Int(1)}); err != nil {
		t.Fatalf("addOne: %v", err)
	}
	if got := callInt(t, m, mod, "cnt"); got != 101 {
		t.Errorf("cnt() = %d, want 101", got)
	}
}

func TestConstantsAndCrossModule(t *testing.T) {
	st, lk, comp, m, _ := setup(t, false)
	install(t, st, lk, comp, `
module geom export pi, area
let pi = 3.14159
let area(r : Real) : Real = pi * r * r
end`)
	mod2 := install(t, st, lk, comp, `
module uses export f
let f(r : Real) : Int = real.toInt(geom.area(r))
end`)
	if got := callInt(t, m, mod2, "f", machine.Real(10.0)); got != 314 {
		t.Errorf("f(10) = %d, want 314", got)
	}
}

func TestPersistAndRerun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.tyst")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	lk := linker.New(linker.Config{})
	tx := st.Begin()
	comp, err := tyclib.Install(machine.New(tx), tx, lk)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := comp.Compile(`module p export f let f(n : Int) : Int = n * n + 1 end`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lk.InstallModuleOn(machine.New(tx), tx, unit); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: code, PTML and bindings all come back from disk.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	modOID, ok := st2.Root(linker.ModuleRoot + "p")
	if !ok {
		t.Fatal("module root lost")
	}
	m := machine.New(st2)
	if got := callInt(t, m, modOID, "f", machine.Int(9)); got != 82 {
		t.Errorf("f(9) = %d, want 82", got)
	}
}

func TestUnhandledExceptionPropagates(t *testing.T) {
	st, lk, comp, m, _ := setup(t, false)
	mod := install(t, st, lk, comp, `
module boom export f
let f(n : Int) : Int = if n = 0 then raise "zero" else n end
end`)
	_, err := m.CallExport(mod, "f", []machine.Value{machine.Int(0)})
	if !errors.Is(err, machine.ErrUnhandled) {
		t.Fatalf("err = %v, want unhandled exception", err)
	}
	if got := callInt(t, m, mod, "f", machine.Int(3)); got != 3 {
		t.Errorf("f(3) = %d", got)
	}
}

func TestStripPTML(t *testing.T) {
	db, lk, comp := library(t, linker.Config{StripPTML: true})
	st := db.Begin()
	defer st.Abort()
	unit, err := comp.Compile(`module s export f let f(n : Int) : Int = n + 1 end`)
	if err != nil {
		t.Fatal(err)
	}
	modOID, err := lk.InstallModuleOn(machine.New(st), st, unit)
	if err != nil {
		t.Fatal(err)
	}
	mod := st.MustGet(modOID).(*store.Module)
	cloOID := mod.Exports[0].Val.Ref
	clo := st.MustGet(cloOID).(*store.Closure)
	if clo.PTML != store.Nil {
		t.Error("StripPTML left a PTML blob")
	}
	// Stripped code still runs.
	m := machine.New(st)
	if got := callInt(t, m, modOID, "f", machine.Int(41)); got != 42 {
		t.Errorf("f(41) = %d", got)
	}
}

func TestMissingRelationFailsInstall(t *testing.T) {
	st, lk, comp, _, _ := setup(t, false)
	unit, err := comp.Compile(`
module r export f
rel nosuch : Rel(id : Int)
let f() : Int = count(nosuch)
end`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lk.InstallModuleOn(machine.New(st), st, unit); err == nil {
		t.Error("install with missing relation succeeded")
	}
}

// TestFailedConstantLeavesNoObjects installs a module whose constant
// raises: the install fails with the exception, and once its transaction
// is aborted the store holds exactly the objects it held before, so a
// later commit cannot make any part of the failed module durable.
func TestFailedConstantLeavesNoObjects(t *testing.T) {
	st, lk, comp := library(t, linker.Config{})
	unit, err := comp.Compile(`
module bad export f, g, c
let c = 1 / 0
let f(n : Int) : Int = n + c
let g(n : Int) : Int = f(n) * 2
end`)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Len()
	tx := st.Begin()
	if _, err := lk.InstallModuleOn(machine.New(tx), tx, unit); !errors.Is(err, machine.ErrUnhandled) {
		t.Fatalf("install = %v, want the constant's unhandled exception", err)
	}
	tx.Abort()
	if after := st.Len(); after != before {
		t.Errorf("failed install moved the store from %d to %d objects", before, after)
	}
	if _, ok := st.Root(linker.ModuleRoot + "bad"); ok {
		t.Error("failed install registered its module root")
	}
}

// TestFunctionResolves: Function finds an exported closure through the
// module: root, in the store and in a transaction's snapshot, and
// reports a missing module or export as a *NotFoundError.
func TestFunctionResolves(t *testing.T) {
	st, lk, comp := library(t, linker.Config{})
	tx := st.Begin()
	mod := install(t, tx, lk, comp, `module p export f, k let f(n : Int) : Int = n let k = 3 end`)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := st.MustGet(mod).(*store.Module).Exports[0].Val.Ref
	txn := st.Begin()
	defer txn.Abort()
	for _, v := range []store.View{st, txn} {
		if oid, err := linker.Function(v, "p", "f"); err != nil || oid != want {
			t.Errorf("Function(p.f) = 0x%x, %v; want 0x%x", uint64(oid), err, uint64(want))
		}
	}
	for _, c := range []struct{ mod, fn, msg string }{
		{"nomod", "f", "module nomod not installed"},
		{"p", "nope", "p.nope is not an exported function"},
		{"p", "k", "p.k is not an exported function"},
	} {
		_, err := linker.Function(st, c.mod, c.fn)
		var nf *linker.NotFoundError
		if !errors.As(err, &nf) || err.Error() != c.msg {
			t.Errorf("Function(%s.%s) = %v, want NotFoundError %q", c.mod, c.fn, err, c.msg)
		}
	}
}
