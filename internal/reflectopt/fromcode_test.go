package reflectopt_test

import (
	"testing"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/reflectopt"
	"tycoon/internal/store"
	"tycoon/internal/tyclib"
)

// TestE8FromCodeReconstruction exercises the paper's §6 future work: a
// closure installed WITHOUT its PTML tree (StripPTML halves code size,
// E3) is reconstructed by decompiling its executable TAM code, and the
// reflective optimizer achieves the same cross-barrier speedup as with
// PTML — answering the paper's question "whether this has an impact on
// the possible optimizations" with: not on these programs.
func TestE8FromCodeReconstruction(t *testing.T) {
	build := func(strip bool) (*store.Store, *machine.Machine, store.OID) {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		lk := linker.New(st, linker.Config{StripPTML: strip})
		comp, err := tyclib.Install(st, lk)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := comp.Compile(`
module g export gauss
let gauss(n : Int) : Int =
  begin var s := 0; for i = 1 upto n do s := s + i end; s end
end`)
		if err != nil {
			t.Fatal(err)
		}
		modOID, err := lk.InstallModule(unit)
		if err != nil {
			t.Fatal(err)
		}
		mod := st.MustGet(modOID).(*store.Module)
		v, _ := mod.Lookup("gauss")
		return st, machine.New(st), v.Ref
	}

	run := func(m *machine.Machine, fn machine.Value) int64 {
		m.ResetSteps()
		v, err := m.Apply(fn, []machine.Value{machine.Int(1000)})
		if err != nil {
			t.Fatal(err)
		}
		if v != machine.Value(machine.Int(500500)) {
			t.Fatalf("gauss = %s", v.Show())
		}
		return m.Steps()
	}

	// Reference: PTML-based reflective optimization.
	stP, mP, oidP := build(false)
	roP := reflectopt.New(stP, reflectopt.Options{})
	resP, err := roP.Optimize(oidP)
	if err != nil {
		t.Fatal(err)
	}
	stepsPTML := run(mP, resP.Closure)

	// Experiment: code-based reconstruction on a stripped store.
	stC, mC, oidC := build(true)
	roC := reflectopt.New(stC, reflectopt.Options{FromCode: true})
	resC, err := roC.Optimize(oidC)
	if err != nil {
		t.Fatalf("FromCode optimization failed: %v", err)
	}
	stepsCode := run(mC, resC.Closure)

	// Baseline for both: the unoptimized closure.
	baseline := run(mC, machine.Ref{OID: oidC})

	t.Logf("E8 gauss(1000): baseline=%d ptml-optimized=%d code-optimized=%d",
		baseline, stepsPTML, stepsCode)
	if stepsCode*2 > baseline {
		t.Errorf("code-based reconstruction lost the optimization: %d vs baseline %d", stepsCode, baseline)
	}
	// The achievable optimization matches the PTML route within 10%.
	ratio := float64(stepsCode) / float64(stepsPTML)
	if ratio > 1.1 || ratio < 0.9 {
		t.Errorf("code-based (%d steps) deviates from PTML-based (%d steps) by more than 10%%",
			stepsCode, stepsPTML)
	}
}

// TestFromCodeOnRecursiveFunction checks the Y reconstruction path
// end-to-end: cells become Y bindings again and inlining stays bounded.
func TestFromCodeOnRecursiveFunction(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	lk := linker.New(st, linker.Config{StripPTML: true})
	comp, err := tyclib.Install(st, lk)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := comp.Compile(`
module r export fact
let fact(n : Int) : Int = if n < 2 then 1 else n * fact(n - 1) end
end`)
	if err != nil {
		t.Fatal(err)
	}
	modOID, err := lk.InstallModule(unit)
	if err != nil {
		t.Fatal(err)
	}
	mod := st.MustGet(modOID).(*store.Module)
	v, _ := mod.Lookup("fact")

	ro := reflectopt.New(st, reflectopt.Options{FromCode: true})
	m := machine.New(st)
	res, err := ro.OptimizeAndInstall(m.Code, v.Ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Apply(res.Closure, []machine.Value{machine.Int(10)})
	if err != nil || got != machine.Value(machine.Int(3628800)) {
		t.Fatalf("optimized fact(10) = %v, %v", got, err)
	}
}
