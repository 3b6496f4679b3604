package machine_test

import (
	"errors"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/stanford"
	"tycoon/internal/tml"
)

// These tests pin the TAM's primitive dispatch: executors resolved once
// per instruction, the fused path for label and value continuations, and
// one-result outcomes on the machine's scratch slot. Each must behave
// exactly like the generic path — a name lookup per step and the
// executor's Outcome — which machine.ForceGenericPath selects.

func compileProc(t *testing.T, src string) *machine.Program {
	t.Helper()
	n, err := tml.Parse(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	abs, ok := n.(*tml.Abs)
	if !ok {
		t.Fatalf("source is %T, want abstraction", n)
	}
	prog, err := machine.CompileProc(abs, "f")
	if err != nil {
		t.Fatalf("CompileProc(%q): %v", src, err)
	}
	return prog
}

func closureOf(p *machine.Program, free ...machine.Value) *machine.TAMClosure {
	return &machine.TAMClosure{Prog: p, Blk: p.Entry, Free: free, Name: p.EntryBlock().Name}
}

// run is one application's observable behaviour: its value or error and
// the work it took.
type run struct {
	val       string
	err       string
	unhandled bool
	steps     int64
	transfers int64
}

func apply(m *machine.Machine, fn machine.Value, args ...machine.Value) run {
	m.ResetProfile()
	v, err := m.Apply(fn, args)
	p := m.Profile()
	r := run{steps: p.Steps, transfers: p.Transfers}
	if err != nil {
		r.err = err.Error()
		r.unhandled = errors.Is(err, machine.ErrUnhandled)
	} else {
		r.val = v.Show()
	}
	return r
}

// TestDispatchZooAgreesWithGenericPath runs primitives that continue to a
// value continuation — the caller's k, or the top-level exception
// continuation — through their faults and their common case, on the
// resolved/fused path and on the generic one.
func TestDispatchZooAgreesWithGenericPath(t *testing.T) {
	zoo := []struct {
		name string
		src  string
		args [][]machine.Value
	}{
		{"+ overflow", "proc(x !ce !cc) (+ x 9223372036854775807 ce cc)",
			[][]machine.Value{{machine.Int(0)}, {machine.Int(1)}}},
		{"/ by zero", "proc(x !ce !cc) (/ 10 x ce cc)",
			[][]machine.Value{{machine.Int(2)}, {machine.Int(0)}}},
		{"[] out of range under a handler",
			`proc(x !ce !cc) (pushHandler cont(ex) (cc ex)
			   cont() (anew 3 7 cont(a) ([] a x cc)))`,
			[][]machine.Value{{machine.Int(1)}, {machine.Int(3)}, {machine.Int(-1)}}},
		{"== fall-through without else", "proc(x !ce !cc) (== x 1 2 cc cc)",
			[][]machine.Value{{machine.Int(1)}, {machine.Int(2)}, {machine.Int(3)}}},
		{"non-Int operand", "proc(x !ce !cc) (* x 3 ce cc)",
			[][]machine.Value{{machine.Int(4)}, {machine.Str("four")}, {machine.Bool(true)}}},
		{"neg overflow", "proc(x !ce !cc) (neg x ce cc)",
			[][]machine.Value{{machine.Int(5)}, {machine.Int(-9223372036854775808)}}},
		{"comparison to value continuations", "proc(x !ce !cc) (< x 10 cc cc)",
			[][]machine.Value{{machine.Int(5)}, {machine.Int(50)}, {machine.Str("x")}}},
		{"not to a label, + to a value", "proc(x !ce !cc) (not x cont(b) (if b cont() (+ 1 2 ce cc) cont() (cc 0)))",
			[][]machine.Value{{machine.Bool(false)}, {machine.Bool(true)}, {machine.Int(1)}}},
	}
	for _, tt := range zoo {
		prog := compileProc(t, tt.src)
		if machine.FusedValueBranches(prog) == 0 {
			t.Errorf("%s: no fused primitive continues to a value continuation", tt.name)
		}
		fn := closureOf(prog)
		for _, args := range tt.args {
			fast := machine.New(nil)
			generic := machine.New(nil)
			machine.ForceGenericPath(generic)
			got, want := apply(fast, fn, args...), apply(generic, fn, args...)
			if got != want {
				t.Errorf("%s %v:\n resolved %+v\n generic  %+v", tt.name, args, got, want)
			}
		}
	}
}

// TestStanfordAgreesWithGenericPath runs every Stanford program, installed
// as is and reflectively optimized, on both paths: value, steps and
// transfers must be identical.
func TestStanfordAgreesWithGenericPath(t *testing.T) {
	for _, regime := range []stanford.Regime{stanford.RegimeNone, stanford.RegimeDynamic} {
		s, err := stanford.NewSuite(regime)
		if err != nil {
			t.Fatal(err)
		}
		measure := func() map[string]run {
			out := make(map[string]run)
			for _, p := range stanford.Programs() {
				s.Machine.ResetProfile()
				v, _, err := s.Run(p.Name)
				prof := s.Machine.Profile()
				r := run{steps: prof.Steps, transfers: prof.Transfers}
				if err != nil {
					r.err = err.Error()
				} else {
					r.val = machine.Int(v).Show()
				}
				out[p.Name] = r
			}
			return out
		}
		measure() // link every closure first
		resolved := measure()
		machine.ForceGenericPath(s.Machine)
		generic := measure()
		for _, p := range stanford.Programs() {
			if resolved[p.Name] != generic[p.Name] {
				t.Errorf("%s/%s:\n resolved %+v\n generic  %+v", regime, p.Name, resolved[p.Name], generic[p.Name])
			}
			if resolved[p.Name].err != "" {
				t.Errorf("%s/%s: %s", regime, p.Name, resolved[p.Name].err)
			}
		}
		s.Close()
	}
}

// TestShadowedPrimitiveHonoured registers an override of + on one machine:
// compiled code on that machine runs it, on a label continuation and on a
// value one, while another machine running the same Program does not.
func TestShadowedPrimitiveHonoured(t *testing.T) {
	for _, src := range []string{
		"proc(x !ce !cc) (+ x 1 ce cc)",
		"proc(x !ce !cc) (+ x 1 ce cont(y) (cc y))",
	} {
		fn := closureOf(compileProc(t, src))
		shadowed, plain := machine.New(nil), machine.New(nil)
		shadowed.RegisterExec("+", func(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
			return machine.Outcome{Branch: 1, Results: []machine.Value{machine.Int(1000)}}, nil
		})
		if v, err := shadowed.Apply(fn, []machine.Value{machine.Int(41)}); err != nil || v != machine.Value(machine.Int(1000)) {
			t.Errorf("%s on the shadowing machine = %v, %v; want 1000", src, v, err)
		}
		if v, err := plain.Apply(fn, []machine.Value{machine.Int(41)}); err != nil || v != machine.Value(machine.Int(42)) {
			t.Errorf("%s on another machine = %v, %v; want 42", src, v, err)
		}
	}
}

// TestLibraryCallAllocs bounds the allocations of a library-factored
// operator: a compiled loop calls a helper proc(a b !ce !k) (+ a b ce k),
// whose + returns straight through the caller's continuation k. The
// helper's frame is recycled, its result rides the machine's scratch
// slot, and the return continuation the call reifies is a record on the
// continuation stack, so an iteration allocates nothing — except, with
// the use-after-pop check on, the record's own chunk. The generic path
// also allocates a Results slice per +.
func TestLibraryCallAllocs(t *testing.T) {
	const n = 200
	loop := compileProc(t, `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 0)
	        cont(i)
	          (>= i n
	             cont() (cc i)
	             cont() (add i 1 ce cont(j) (loop j)))))`)
	add := closureOf(compileProc(t, "proc(a b !ce !k) (+ a b ce k)"))
	fn := closureOf(loop, add)
	args := []machine.Value{machine.Int(n)}
	for _, check := range []bool{true, false} {
		prev := machine.SetContCheck(check)
		m := machine.New(nil)
		machine.SetContCheck(prev)
		if v, err := m.Apply(fn, args); err != nil || v != machine.Value(machine.Int(n)) {
			t.Fatalf("loop = %v, %v; want %d", v, err, n)
		}
		want := 0.05
		if check {
			want = 1.05
		}
		if perIter := testing.AllocsPerRun(20, func() { m.Apply(fn, args) }) / n; perIter > want {
			t.Errorf("check=%v: %.2f allocations per library call, want at most %.0f", check, perIter, want)
		}
	}
}

// TestApplyAllocs: entering the machine allocates nothing of its own —
// the argument vector lives on the value arena and the top-level
// continuations are shared — so a query kernel can call Apply per row.
func TestApplyAllocs(t *testing.T) {
	fn := closureOf(compileProc(t, "proc(x !ce !cc) (+ x 1 ce cc)"))
	args := []machine.Value{machine.Int(1)}
	m := machine.New(nil)
	v, err := m.Apply(fn, args)
	wantInt(t, v, err, 2)
	if n := testing.AllocsPerRun(100, func() { m.Apply(fn, args) }); n != 0 {
		t.Errorf("%.1f allocations per Apply, want 0", n)
	}
}
