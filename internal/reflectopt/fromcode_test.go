package reflectopt_test

import (
	"testing"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/reflectopt"
	"tycoon/internal/store"
)

// TestE8FromCodeReconstruction exercises the paper's §6 future work: a
// closure installed WITHOUT its PTML tree (StripPTML halves code size,
// E3) is reconstructed by decompiling its executable TAM code, and the
// reflective optimizer achieves the same cross-barrier speedup as with
// PTML — answering the paper's question "whether this has an impact on
// the possible optimizations" with: not on these programs.
func TestE8FromCodeReconstruction(t *testing.T) {
	build := func(strip bool) (*store.Store, *machine.Machine, store.OID) {
		w := setupWith(t, linker.Config{StripPTML: strip})
		modOID := w.install(t, `
module g export gauss
let gauss(n : Int) : Int =
  begin var s := 0; for i = 1 upto n do s := s + i end; s end
end`)
		return w.st, machine.New(w.st), w.exportOID(t, modOID, "gauss")
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
	roP := reflectopt.New(stP, pipeline.New(stP, pipeline.Config{}), reflectopt.Options{})
	resP, err := roP.Optimize(oidP)
	if err != nil {
		t.Fatal(err)
	}
	stepsPTML := run(mP, resP.Closure)

	// Experiment: code-based reconstruction on a stripped store.
	stC, mC, oidC := build(true)
	roC := reflectopt.New(stC, pipeline.New(stC, pipeline.Config{}), reflectopt.Options{FromCode: true})
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
	w := setupWith(t, linker.Config{StripPTML: true})
	fact := w.exportOID(t, w.install(t, `
module r export fact
let fact(n : Int) : Int = if n < 2 then 1 else n * fact(n - 1) end
end`), "fact")

	ro := reflectopt.New(w.st, pipeline.New(w.st, pipeline.Config{}), reflectopt.Options{FromCode: true})
	m := machine.New(w.st)
	res, err := ro.OptimizeAndInstall(m.Code, fact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Apply(res.Closure, []machine.Value{machine.Int(10)})
	if err != nil || got != machine.Value(machine.Int(3628800)) {
		t.Fatalf("optimized fact(10) = %v, %v", got, err)
	}
}
