package tyclib_test

import (
	"strings"
	"testing"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tyclib"
)

func install(t *testing.T) (*store.Store, *machine.Machine, *tl.Compiler) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tx := st.Begin()
	comp, err := tyclib.Install(machine.New(tx), tx, linker.New(linker.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return st, machine.New(st), comp
}

func call(t *testing.T, st *store.Store, m *machine.Machine, mod, fn string, args ...machine.Value) machine.Value {
	t.Helper()
	oid, ok := st.Root(linker.ModuleRoot + mod)
	if !ok {
		t.Fatalf("module %s missing", mod)
	}
	v, err := m.CallExport(oid, fn, args)
	if err != nil {
		t.Fatalf("%s.%s: %v", mod, fn, err)
	}
	return v
}

func TestIntModule(t *testing.T) {
	st, m, _ := install(t)
	i := func(v int64) machine.Value { return machine.Int(v) }
	cases := []struct {
		fn   string
		args []machine.Value
		want machine.Value
	}{
		{"add", []machine.Value{i(2), i(3)}, i(5)},
		{"sub", []machine.Value{i(2), i(3)}, i(-1)},
		{"mul", []machine.Value{i(-4), i(3)}, i(-12)},
		{"div", []machine.Value{i(17), i(5)}, i(3)},
		{"mod", []machine.Value{i(17), i(5)}, i(2)},
		{"neg", []machine.Value{i(9)}, i(-9)},
		{"lt", []machine.Value{i(1), i(2)}, machine.Bool(true)},
		{"le", []machine.Value{i(2), i(2)}, machine.Bool(true)},
		{"gt", []machine.Value{i(1), i(2)}, machine.Bool(false)},
		{"ge", []machine.Value{i(1), i(2)}, machine.Bool(false)},
		{"eq", []machine.Value{i(4), i(4)}, machine.Bool(true)},
		{"ne", []machine.Value{i(4), i(4)}, machine.Bool(false)},
		{"min", []machine.Value{i(4), i(7)}, i(4)},
		{"max", []machine.Value{i(4), i(7)}, i(7)},
		{"abs", []machine.Value{i(-5)}, i(5)},
		{"abs", []machine.Value{i(5)}, i(5)},
	}
	for _, tt := range cases {
		if got := call(t, st, m, "int", tt.fn, tt.args...); !machine.Eq(got, tt.want) {
			t.Errorf("int.%s(%v) = %s, want %s", tt.fn, tt.args, got.Show(), tt.want.Show())
		}
	}
}

func TestIntOverflowRaises(t *testing.T) {
	st, m, _ := install(t)
	oid, _ := st.Root(linker.ModuleRoot + "int")
	const max = int64(9223372036854775807)
	if _, err := m.CallExport(oid, "add", []machine.Value{machine.Int(max), machine.Int(1)}); err == nil {
		t.Error("overflowing add did not raise")
	}
	if _, err := m.CallExport(oid, "div", []machine.Value{machine.Int(1), machine.Int(0)}); err == nil {
		t.Error("division by zero did not raise")
	}
}

func TestRealModule(t *testing.T) {
	st, m, _ := install(t)
	r := func(v float64) machine.Value { return machine.Real(v) }
	if got := call(t, st, m, "real", "add", r(1.5), r(2.25)); got != machine.Value(machine.Real(3.75)) {
		t.Errorf("real.add = %s", got.Show())
	}
	if got := call(t, st, m, "real", "sqrt", r(144)); got != machine.Value(machine.Real(12)) {
		t.Errorf("real.sqrt = %s", got.Show())
	}
	if got := call(t, st, m, "real", "pow", r(2), r(10)); got != machine.Value(machine.Real(1024)) {
		t.Errorf("real.pow = %s", got.Show())
	}
	if got := call(t, st, m, "real", "ofInt", machine.Int(7)); got != machine.Value(machine.Real(7)) {
		t.Errorf("real.ofInt = %s", got.Show())
	}
	if got := call(t, st, m, "real", "toInt", r(7.9)); got != machine.Value(machine.Int(7)) {
		t.Errorf("real.toInt = %s", got.Show())
	}
	if got := call(t, st, m, "real", "lt", r(1), r(2)); got != machine.Value(machine.Bool(true)) {
		t.Errorf("real.lt = %s", got.Show())
	}
}

func TestArrayModule(t *testing.T) {
	st, m, _ := install(t)
	arr := call(t, st, m, "array", "new", machine.Int(4), machine.Int(9))
	if got := call(t, st, m, "array", "size", arr); got != machine.Value(machine.Int(4)) {
		t.Fatalf("array.size = %s", got.Show())
	}
	if got := call(t, st, m, "array", "get", arr, machine.Int(2)); got != machine.Value(machine.Int(9)) {
		t.Errorf("array.get = %s", got.Show())
	}
	call(t, st, m, "array", "set", arr, machine.Int(2), machine.Int(77))
	if got := call(t, st, m, "array", "get", arr, machine.Int(2)); got != machine.Value(machine.Int(77)) {
		t.Errorf("after set, array.get = %s", got.Show())
	}
}

func TestStrModule(t *testing.T) {
	st, m, _ := install(t)
	s := func(v string) machine.Value { return machine.Str(v) }
	if got := call(t, st, m, "str", "cat", s("foo"), s("bar")); got != machine.Value(machine.Str("foobar")) {
		t.Errorf("str.cat = %s", got.Show())
	}
	if got := call(t, st, m, "str", "eq", s("a"), s("a")); got != machine.Value(machine.Bool(true)) {
		t.Errorf("str.eq = %s", got.Show())
	}
	if got := call(t, st, m, "str", "lt", s("a"), s("b")); got != machine.Value(machine.Bool(true)) {
		t.Errorf("str.lt = %s", got.Show())
	}
	if got := call(t, st, m, "str", "ge", s("a"), s("b")); got != machine.Value(machine.Bool(false)) {
		t.Errorf("str.ge = %s", got.Show())
	}
	if got := call(t, st, m, "str", "length", s("abcd")); got != machine.Value(machine.Int(4)) {
		t.Errorf("str.length = %s", got.Show())
	}
	if got := call(t, st, m, "str", "char2int", machine.Char('A')); got != machine.Value(machine.Int(65)) {
		t.Errorf("str.char2int = %s", got.Show())
	}
	if got := call(t, st, m, "str", "int2char", machine.Int(66)); got != machine.Value(machine.Char('B')) {
		t.Errorf("str.int2char = %s", got.Show())
	}
}

func TestCompileAllIsReentrant(t *testing.T) {
	// CompileAll into a fresh compiler provides signatures only (what
	// Install needs for a store that already has the library).
	c := tl.NewCompiler()
	units, err := tyclib.CompileAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != len(tyclib.Sources) {
		t.Errorf("%d units for %d sources", len(units), len(tyclib.Sources))
	}
	for _, name := range []string{"int", "real", "array", "str"} {
		if _, ok := c.Sigs[name]; !ok {
			t.Errorf("signature for %s missing", name)
		}
	}
	// AllowPrim must be restored.
	if c.AllowPrim {
		t.Error("CompileAll leaked AllowPrim")
	}
}

// TestInstallOnce: installing into a store that already holds the
// library adds nothing, and returns a compiler that knows its signatures.
func TestInstallOnce(t *testing.T) {
	st, _, _ := install(t)
	before := st.Len()
	tx := st.Begin()
	defer tx.Abort()
	comp, err := tyclib.Install(machine.New(tx), tx, linker.New(linker.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if tx.Mutated() {
		t.Error("second install wrote to its transaction")
	}
	if after := st.Len(); after != before {
		t.Errorf("second install moved the store from %d to %d objects", before, after)
	}
	if _, ok := comp.Sigs["int"]; !ok {
		t.Error("signature for int missing after a second install")
	}
}

// TestInstallRefusesForeignExports: a stored module under a library name
// whose exports differ from the compiled signature is an error, because
// compiled code fetches exports by position.
func TestInstallRefusesForeignExports(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tx := st.Begin()
	defer tx.Abort()
	tx.SetRoot(linker.ModuleRoot+"int", tx.Alloc(&store.Module{Name: "int",
		Exports: []store.Export{{Name: "sub", Val: store.IntVal(0)}, {Name: "add", Val: store.IntVal(0)}}}))
	if _, err := tyclib.Install(machine.New(tx), tx, linker.New(linker.Config{})); err == nil || !strings.Contains(err.Error(), "stored module int exports [sub add]") {
		t.Errorf("install over a foreign int module = %v, want an export mismatch", err)
	}
}
