package relalg

import (
	"fmt"
	"sync"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/qopt"
)

// predBlock returns the index of the one three-parameter nested block of
// a compiled query: its predicate.
func predBlock(t *testing.T, prog *machine.Program) int {
	t.Helper()
	found := -1
	for i, blk := range prog.Blocks {
		if i != prog.Entry && blk.NParams == 3 {
			if found >= 0 {
				t.Fatalf("two predicate blocks: %d and %d", found, i)
			}
			found = i
		}
	}
	if found < 0 {
		t.Fatal("no predicate block")
	}
	return found
}

// memoised returns what the program remembers for its predicate block,
// failing the test if nothing was remembered.
func memoised(t *testing.T, prog *machine.Program) *vprog {
	t.Helper()
	return prog.BlockMemo(predBlock(t, prog), func() any {
		t.Error("no vprog (or recorded failure) kept on the program")
		return (*vprog)(nil)
	}).(*vprog)
}

// TestCompiledCapturesAreOperands is the captures trap: one Program, one
// vprog, and two closures over different captured integers. The second
// call must read its own capture, not a constant the first compilation
// baked in — on the general evaluator and on the fused column kernel,
// which treats a capture as the scan's constant.
func TestCompiledCapturesAreOperands(t *testing.T) {
	for name, body := range map[string]string{
		"fused":   `(< a n cont()(cc true) cont()(cc false))`,
		"general": `(+ a n ce cont(s) (< s 10 cont()(cc true) cont()(cc false)))`,
	} {
		t.Run(name, func(t *testing.T) {
			_, mg, m, oid := world(t, 300)
			clo := compileQuery(t, `(select proc(x !ce !cc) ([] x 1 cont(a) `+body+`) `+oidStr(oid)+` e k)`, "n")
			var first *vprog
			for _, n := range []int64{3, 7} {
				arg := []machine.Value{machine.Int(n)}
				mg.NoBatch = true
				m.ResetProfile()
				want, err := m.Apply(clo, arg)
				if err != nil {
					t.Fatal(err)
				}
				wantSteps := m.Steps()

				mg.NoBatch = false
				m.ResetProfile()
				mg.CaptureExplain(m)
				got, err := m.Apply(clo, arg)
				if err != nil {
					t.Fatal(err)
				}
				sel := findNode(mg.TakeExplain(m), "select")
				wantRows, _ := renderRows(want.(*Rel))
				gotRows, _ := renderRows(got.(*Rel))
				if gotRows != wantRows || m.Steps() != wantSteps {
					t.Errorf("n=%d: %d rows in %d steps, oracle %d rows in %d steps",
						n, len(got.(*Rel).Rows), m.Steps(), len(want.(*Rel).Rows), wantSteps)
				}
				if p := m.Profile(); p.VecRows != 300 || p.BatchRows+p.RowRows != 0 {
					t.Errorf("n=%d: tier split %+v, want 300 vector rows", n, p)
				}
				if wantAlgo := map[string]string{"fused": "vector-fused", "general": "vector"}[name]; sel == nil || sel.Algo != wantAlgo {
					t.Errorf("n=%d: plan %v, want algo=%s", n, sel, wantAlgo)
				}
				vp := memoised(t, clo.Prog)
				if vp == nil || vp.nfree != 1 || (first != nil && vp != first) {
					t.Errorf("n=%d: vprog %p (first %p): want one compiled program with one capture register", n, vp, first)
				}
				first = vp
			}

			// A capture that is no scalar cannot be an operand: the scan takes
			// the batched path and fails exactly as the oracle does.
			arg := []machine.Value{&machine.Vector{}}
			mg.NoBatch = true
			m.ResetProfile()
			_, wantErr := m.Apply(clo, arg)
			wantSteps := m.Steps()
			mg.NoBatch = false
			m.ResetProfile()
			_, gotErr := m.Apply(clo, arg)
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || m.Steps() != wantSteps {
				t.Errorf("vector capture: %v in %d steps, oracle %v in %d steps", gotErr, m.Steps(), wantErr, wantSteps)
			}
			if p := m.Profile(); p.VecRows != 0 || p.BatchRows != 300 {
				t.Errorf("vector capture: tier split %+v, want 300 batched rows", p)
			}
		})
	}
}

// TestCompiledOutOfFragment runs predicates the decompiled tree puts
// outside the vectorizable fragment — the row forwarded whole, a call
// into another closure, a loop, a cascade of shared join points the
// decompiler must never be let loose on: the failure is remembered on the
// program (no decompile per scan), the scan takes the batched path, and
// rows and steps equal the oracle's.
func TestCompiledOutOfFragment(t *testing.T) {
	queries := map[string]func(o string) string{
		"row-forwarded": func(o string) string {
			return `(project proc(x !ce !cc) (cc x) ` + o + ` e k)`
		},
		"calls-closure": func(o string) string {
			return `(cont(f) (select proc(x !ce !cc) (f x 5 ce cc) ` + o + ` e k)
			  proc(y lim !e2 !k2) ([] y 1 cont(a) (< a lim cont()(k2 true) cont()(k2 false))))`
		},
		"loops": func(o string) string {
			return `(select proc(x !ce !cc) ([] x 1 cont(a)
			  (Y proc(!c0 !loop !c) (c cont() (loop a)
			     cont(i) (< i 5 cont() (cc true) cont() (- i 5 ce cont(j) (loop j)))))) ` + o + ` e k)`
		},
	}
	// Forty conditionals in sequence, each joining in a shared
	// continuation: reconstruction duplicates a join point per reference,
	// so decompiling this predicate would build 2^40 copies of the tail.
	queries["diamonds"] = func(o string) string {
		body := `(cc true)`
		for i := 0; i < 40; i++ {
			body = fmt.Sprintf(`(proc(!j) (< a %d cont() (j 1) cont() (j 2)) cont(r%d) %s)`, i, i, body)
		}
		return `(select proc(x !ce !cc) ([] x 1 cont(a) ` + body + `) ` + o + ` e k)`
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			_, mg, m, oid := world(t, 300)
			clo := compileQuery(t, q(oidStr(oid)))
			mg.NoBatch = true
			m.ResetProfile()
			want, err := m.Apply(clo, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantSteps := m.Steps()
			mg.NoBatch = false
			for round := 0; round < 2; round++ {
				m.ResetProfile()
				mg.CaptureExplain(m)
				got, err := m.Apply(clo, nil)
				if err != nil {
					t.Fatal(err)
				}
				plan := mg.TakeExplain(m)
				wantRows, _ := renderRows(want.(*Rel))
				gotRows, _ := renderRows(got.(*Rel))
				if gotRows != wantRows || m.Steps() != wantSteps {
					t.Errorf("%d rows in %d steps, oracle %d rows in %d steps",
						len(got.(*Rel).Rows), m.Steps(), len(want.(*Rel).Rows), wantSteps)
				}
				if p := m.Profile(); p.VecRows != 0 || p.BatchRows != 300 {
					t.Errorf("tier split %+v, want 300 batched rows", p)
				}
				if len(plan) != 1 || plan[0].Algo != "batch" {
					t.Errorf("plan %s", qopt.RenderPlan(plan))
				}
				if vp := memoised(t, clo.Prog); vp != nil {
					t.Errorf("vprog %+v for a predicate outside the fragment", vp)
				}
			}
		})
	}
}

// TestCompiledSizeGate pins the gate that keeps never-seen small plans
// off the decompiler: below compileThreshold rows (pairs, for a join) a
// compiled predicate runs batched and nothing is derived from its code.
func TestCompiledSizeGate(t *testing.T) {
	for _, n := range []int{compileThreshold - 1, compileThreshold} {
		_, _, m, oid := world(t, n)
		clo := compileQuery(t, `(select proc(x !ce !cc)
			([] x 1 cont(a) (< a 5 cont()(cc true) cont()(cc false))) `+oidStr(oid)+` e k)`)
		m.ResetProfile()
		if _, err := m.Apply(clo, nil); err != nil {
			t.Fatal(err)
		}
		derived := true
		clo.Prog.BlockMemo(predBlock(t, clo.Prog), func() any { derived = false; return (*vprog)(nil) })
		p := m.Profile()
		if above := n >= compileThreshold; derived != above || (p.VecRows > 0) != above || (p.BatchRows > 0) == above {
			t.Errorf("%d rows: decompiled %v, tier split %+v", n, derived, p)
		}
	}
}

// TestCompiledSharedAcrossMachines shares one compiled query — one
// Program, as the pipeline cache hands it to every session — between
// machines on their own goroutines, each instantiating the predicate
// over its own capture. They race to derive the vprog; every one must
// end up evaluating the same program with its own operand (run under
// -race).
func TestCompiledSharedAcrossMachines(t *testing.T) {
	st, mg, _, oid := world(t, 300)
	clo := compileQuery(t, `(select proc(x !ce !cc)
		([] x 1 cont(a) (+ a n ce cont(s) (< s 10 cont()(cc true) cont()(cc false)))) `+oidStr(oid)+` e k)`, "n")
	const workers = 8
	var wg sync.WaitGroup
	vps := make([]*vprog, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := machine.New(st)
			mg.Register(m)
			for round := 0; round < 20; round++ {
				v, err := m.Apply(clo, []machine.Value{machine.Int(int64(w))})
				if err != nil {
					t.Error(err)
					return
				}
				// val = id % 10 and the predicate keeps val + w < 10.
				if got, want := len(v.(*Rel).Rows), 30*(10-w); got != want {
					t.Errorf("worker %d: %d rows, want %d", w, got, want)
				}
			}
			if p := m.Profile(); p.VecRows != 20*300 || p.BatchRows != 0 {
				t.Errorf("worker %d: tier split %+v", w, p)
			}
			vps[w] = memoised(t, clo.Prog)
		}()
	}
	wg.Wait()
	for w, vp := range vps {
		if vp == nil || vp != vps[0] {
			t.Errorf("worker %d evaluated vprog %p, worker 0 %p", w, vp, vps[0])
		}
	}
}
