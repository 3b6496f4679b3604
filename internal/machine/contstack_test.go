package machine_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/prim"
	"tycoon/internal/relalg"
	"tycoon/internal/stanford"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// These tests try to break the continuation stack (contstack.go). The
// use-after-pop check is on for every test of this package (see
// export_test.go), so a record used after it was popped fails the run
// instead of resuming whatever was pushed in its place; most of them run
// again with it off, where popped records are reused.

func interpreted(t *testing.T, src string) *machine.Closure {
	t.Helper()
	n, err := tml.Parse(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return &machine.Closure{Abs: n.(*tml.Abs)}
}

// refApply is apply on the reference evaluator.
func refApply(m *machine.Machine, fn *machine.Closure, args ...machine.Value) run {
	m.ResetProfile()
	v, err := machine.RefApply(m, fn, args)
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

// forBothLayouts runs body on machines with the use-after-pop check on
// (one record per chunk, never reused) and off (records reused in place,
// as in production).
func forBothLayouts(t *testing.T, body func(t *testing.T)) {
	for _, check := range []bool{true, false} {
		t.Run(map[bool]string{true: "checked", false: "reused"}[check], func(t *testing.T) {
			defer machine.SetContCheck(machine.SetContCheck(check))
			body(t)
		})
	}
}

func TestContUseAfterPopIsCaught(t *testing.T) {
	m := machine.New(nil)
	err := machine.InvokePopped(m, compileProc(t, "proc(x !ce !cc) (cc x)"))
	if err == nil || !strings.Contains(err.Error(), "popped") {
		t.Fatalf("invoking a popped record = %v, want a use-after-pop error", err)
	}
}

// TestContHandlerFromParameter: a callee installs its own return
// continuation — a record on the caller's stack — as a handler, or a
// handler of its own that returns through it, and returns without
// popping the handler. A later raise, from the caller or from deeper
// down, re-enters the caller's return point through the handler, after
// the record itself has been popped.
func TestContHandlerFromParameter(t *testing.T) {
	deep := "proc(y !e !k) (< y 50 cont() (* y 10 e cont(z) (raise z)) cont() (+ y 1 e k))"
	forBothLayouts(t, func(t *testing.T) {
		for _, tt := range []struct{ inst, src string }{
			{"proc(v !e !k) (pushHandler k cont() (k v))",
				`proc(x inst deep !ce !cc)
			   (inst x ce cont(r)
			      (== r 99 cont() (cc 1000) cont() (+ r 1 ce cont(s) (raise 99))))`},
			{"proc(v !e !k) (pushHandler k cont() (k v))",
				`proc(x inst deep !ce !cc)
			   (inst x ce cont(r)
			      (< r 50 cont() (+ r 1 ce cont(s) (deep s ce cont(t) (cc t)))
			              cont() (+ r 1000 ce cc)))`},
			// The caller leaves through a tail call before the handler
			// re-enters it: its frame must not have been recycled.
			{"proc(v !e !k) (pushHandler k cont() (k v))",
				`proc(x inst deep !ce !cc)
			   (inst x ce cont(r)
			      (< r 50 cont() (+ r 1 ce cont(s) (deep s ce cc))
			              cont() (deep r ce cont(t) (cc t))))`},
			// The handler is the callee's own join point, which reaches the
			// return continuation through the callee's frame.
			{"proc(v !e !k) (pushHandler cont(ex) (k ex) cont() (k v))",
				`proc(x inst deep !ce !cc)
			   (inst x ce cont(r)
			      (< r 50 cont() (+ r 1 ce cont(s) (deep s ce cont(t) (cc t)))
			              cont() (+ r 1000 ce cc)))`},
		} {
			inst, src := tt.inst, tt.src
			prog := compileProc(t, src)
			args := []machine.Value{machine.Int(7), closureOf(compileProc(t, inst)), closureOf(compileProc(t, deep))}
			fast, generic := machine.New(nil), machine.New(nil)
			machine.ForceGenericPath(generic)
			got, want := apply(fast, closureOf(prog), args...), apply(generic, closureOf(prog), args...)
			if got != want {
				t.Errorf("%s:\n resolved %+v\n generic  %+v", src, got, want)
			}
			if fast.Profile().ContsHeap == 0 {
				t.Errorf("%s: the handler's continuation was not promoted to the heap", src)
			}
			tree := machine.New(nil)
			ref := refApply(tree, interpreted(t, src), machine.Int(7), interpreted(t, inst), interpreted(t, deep))
			if got.val != ref.val || got.err != ref.err || got.steps != ref.steps {
				t.Errorf("%s:\n compiled    %+v\n interpreted %+v", src, got, ref)
			}
			if got.err != "" {
				t.Errorf("%s: %s", src, got.err)
			}
			if d := machine.ContDepth(fast); d != 0 {
				t.Errorf("%s: stack depth %d after Apply, want 0", src, d)
			}
		}
	})
}

// TestContPinnedFrameActivationRecords: once a handler captures a frame, the
// join points it binds to variables are born on the heap.
func TestContPinnedFrameActivationRecords(t *testing.T) {
	src := `proc(x !ce !cc)
	  (pushHandler cont(ex) (cc 0)
	     cont() (proc(!k2) (< x 5 cont() (k2 1) cont() (k2 2))
	              cont(r) (popHandler cont() (cc r))))`
	fn := closureOf(compileProc(t, src))
	forBothLayouts(t, func(t *testing.T) {
		for _, x := range []int64{3, 7} {
			fast, generic := machine.New(nil), machine.New(nil)
			machine.ForceGenericPath(generic)
			got, want := apply(fast, fn, machine.Int(x)), apply(generic, fn, machine.Int(x))
			ref := refApply(machine.New(nil), interpreted(t, src), machine.Int(x))
			if got != want || got.val != ref.val || got.err != "" {
				t.Errorf("x=%d:\n resolved    %+v\n generic     %+v\n interpreted %+v", x, got, want, ref)
			}
			if p := fast.Profile(); p.ContsPushed != 0 || p.ContsHeap != 3 {
				t.Errorf("x=%d: %d records pushed, %d continuations on the heap; want 0 and 3 (pushHandler's two, the join point)",
					x, p.ContsPushed, p.ContsHeap)
			}
		}
	})
}

// TestContTryLoopKeepsStackBounded runs a loop whose every iteration installs
// a handler and calls a procedure that raises on odd arguments.
func TestContTryLoopKeepsStackBounded(t *testing.T) {
	const n = 100_000
	loop := compileProc(t, `proc(n f !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 0 0)
	        cont(i acc)
	          (>= i n
	             cont() (cc acc)
	             cont() (pushHandler
	                cont(ex) (+ acc 1 ce cont(a2) (+ i 1 ce cont(i2) (loop i2 a2)))
	                cont() (f i ce cont(r)
	                   (popHandler cont() (+ acc r ce cont(a3) (+ i 1 ce cont(i3) (loop i3 a3)))))))))`)
	f := closureOf(compileProc(t, "proc(v !e !k) (% v 2 e cont(m) (== m 0 cont() (k v) cont() (raise v)))"))
	want := int64(n/2*(n/2-1) + n/2) // the even i summed, one per odd i
	forBothLayouts(t, func(t *testing.T) {
		fast, generic := machine.New(nil), machine.New(nil)
		machine.ForceGenericPath(generic)
		got, ref := apply(fast, closureOf(loop), machine.Int(n), f), apply(generic, closureOf(loop), machine.Int(n), f)
		if got != ref || got.val != machine.Int(want).Show() {
			t.Fatalf("loop of %d:\n resolved %+v\n generic  %+v\n want value %d", n, got, ref, want)
		}
		p := fast.Profile()
		if p.ContsPushed < n {
			t.Errorf("%d records pushed for %d calls", p.ContsPushed, n)
		}
		if p.MaxContDepth > 4 {
			t.Errorf("stack reached depth %d over %d iterations, want a small constant", p.MaxContDepth, n)
		}
	})
}

// TestContLoopActivationRecordsKeepStackBounded runs loops whose every
// iteration binds join points to variables through β-redexes. The loops'
// back edges are jumps, which pop nothing; the record an OpCont pushes
// must still replace the one it pushed on the previous iteration instead
// of piling up.
func TestContLoopActivationRecordsKeepStackBounded(t *testing.T) {
	const n = 100_000
	for _, src := range []string{
		// h is passed to two calls and never invoked.
		`proc(n f g !ce !cc)
		  (Y proc(!c0 !loop !c)
		     (c cont() (loop 0)
		        cont(i)
		          (>= i n
		             cont() (cc i)
		             cont() (proc(!h) (f i h cont(r) (g r h cont(s) (loop s))) cont(ex) (cc ex)))))`,
		// y is invoked from inside x's scope, popping both, and y's
		// label binds z in y's old place: on the next iteration, y's
		// OpCont finds z there, out of scope, and pops it.
		`proc(n f g !ce !cc)
		  (Y proc(!c0 !loop !c)
		     (c cont() (loop 0)
		        cont(i)
		          (>= i n
		             cont() (cc i)
		             cont() (proc(!y) (proc(!x) (f i x cont(v) (y v)) cont(ex) (cc 999))
		                     cont(r) (proc(!z) (g r z cont(w) (loop w)) cont(ez) (cc 998))))))`,
	} {
		f, g := "proc(v !e !k) (k v)", "proc(v !e !k) (+ v 1 e k)"
		forBothLayouts(t, func(t *testing.T) {
			prog := compileProc(t, src)
			args := []machine.Value{machine.Int(n), closureOf(compileProc(t, f)), closureOf(compileProc(t, g))}
			fast, generic := machine.New(nil), machine.New(nil)
			machine.ForceGenericPath(generic)
			got, want := apply(fast, closureOf(prog), args...), apply(generic, closureOf(prog), args...)
			if got != want || got.val != machine.Int(n).Show() {
				t.Fatalf("loop of %d:\n resolved %+v\n generic  %+v", n, got, want)
			}
			p := fast.Profile()
			if p.ContsPushed < 3*n {
				t.Errorf("%d records pushed for %d iterations, want at least %d", p.ContsPushed, n, 3*n)
			}
			if p.MaxContDepth > 4 {
				t.Errorf("stack reached depth %d over %d iterations, want a small constant", p.MaxContDepth, n)
			}
			if d := machine.ContDepth(fast); d != 0 {
				t.Errorf("stack depth %d after Apply, want 0", d)
			}
			tree := machine.New(nil)
			const m = 200
			ref := refApply(tree, interpreted(t, src), machine.Int(m), interpreted(t, f), interpreted(t, g))
			if small := apply(machine.New(nil), closureOf(prog), machine.Int(m), args[1], args[2]); small.val != ref.val {
				t.Errorf("loop of %d:\n compiled    %+v\n interpreted %+v", m, small, ref)
			}
		})
	}
}

// TestContTailCallPopsActivationRecords: a recursion binds a join point
// to a variable on every level but leaves through a tail call on all but
// the last, so the tail call pops the record its activation left.
func TestContTailCallPopsActivationRecords(t *testing.T) {
	const n = 10_000
	count := closureOf(compileProc(t, `proc(n self !ce !cc)
	  (proc(!k2) (== n 0 cont() (k2 0) cont() (- n 1 ce cont(m) (self m self ce cc)))
	   cont(r) (+ r 1 ce cc))`))
	m := machine.New(nil)
	v, err := m.Apply(count, []machine.Value{machine.Int(n), count})
	wantInt(t, v, err, 1)
	if p := m.Profile(); p.ContsPushed < n || p.MaxContDepth > 2 {
		t.Errorf("%d records pushed, stack depth %d; want %d or more, and at most 2", p.ContsPushed, p.MaxContDepth, n)
	}
}

// TestContPredicateRaiseRestoresStack: a query predicate calls a compiled
// procedure that raises. The predicate's nested machine entry returns
// with the stack at the depth it entered at, and the caller's records
// below survive.
func TestContPredicateRaiseRestoresStack(t *testing.T) {
	st := openTxn(t)
	mg := relalg.NewManager(st)
	mg.NoVector = true
	rel, err := relalg.CreateRelation(st, "r", []store.Column{{Name: "id", Type: store.ColInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := relalg.InsertRow(st, rel, []store.Val{store.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	m := machine.New(st)
	mg.Register(m)
	sel, ok := machine.LookupExec(m, "select")
	if !ok {
		t.Fatal("no select executor")
	}
	var entered, left []int
	m.RegisterExec("select", func(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
		entered = append(entered, machine.ContDepth(m))
		out, err := sel(m, vals, conts)
		left = append(left, machine.ContDepth(m))
		return out, err
	})
	h := closureOf(compileProc(t, "proc(x !e !k) ([] x 0 cont(a) (== a 150 cont() (raise a) cont() (k true)))"))
	query := closureOf(compileProc(t, "proc(r h !e !k) (select proc(x !pe !pk) (h x pe cont(b) (pk b)) r e k)"))
	outer := closureOf(compileProc(t, "proc(r h q !ce !cc) (q r h ce cont(v) (size v ce cont(n) (cc n)))"))
	_, err = m.Apply(outer, []machine.Value{machine.Ref{OID: rel}, h, query})
	var ex *machine.Exception
	if !errors.As(err, &ex) || ex.Value != machine.Value(machine.Int(150)) {
		t.Fatalf("%v, want the predicate's exception 150", err)
	}
	if len(entered) != 1 || entered[0] < 1 || left[0] != entered[0] {
		t.Errorf("select entered at depth %v and left at %v, want one equal nonzero pair", entered, left)
	}
	if d := machine.ContDepth(m); d != 0 {
		t.Errorf("stack depth %d after Apply, want 0", d)
	}
}

// TestContBudgetAbortEmptiesStack aborts a deep non-tail recursion on its
// step budget: the next Apply on the machine starts from an empty stack.
func TestContBudgetAbortEmptiesStack(t *testing.T) {
	count := closureOf(compileProc(t, `proc(n self !ce !cc)
	  (== n 0 cont() (cc 0)
	     cont() (- n 1 ce cont(m) (self m self ce cont(r) (+ r 1 ce cc))))`))
	m := machine.New(nil)
	m.MaxSteps = 500
	if _, err := m.Apply(count, []machine.Value{machine.Int(10_000), count}); !errors.Is(err, machine.ErrStepBudget) {
		t.Fatalf("deep recursion: %v, want the step budget", err)
	}
	if d := machine.ContDepth(m); d != 0 {
		t.Fatalf("stack depth %d after a budget abort, want 0", d)
	}
	m.MaxSteps = 0
	m.ResetProfile()
	v, err := m.Apply(count, []machine.Value{machine.Int(100), count})
	wantInt(t, v, err, 100)
	if p := m.Profile(); p.MaxContDepth != 100 {
		t.Errorf("recursion of depth 100 reached stack depth %d", p.MaxContDepth)
	}
}

func wantInt(t *testing.T, v machine.Value, err error, want int64) {
	t.Helper()
	if err != nil || v != machine.Value(machine.Int(want)) {
		t.Fatalf("= %v, %v; want %d", v, err, want)
	}
}

// TestContPipelineSeeds runs every closed term of the pipeline's
// fuzz seed corpus that compiles, as written and optimized, on the
// compiled path, the generic path and the reference evaluator.
func TestContPipelineSeeds(t *testing.T) {
	seeds, err := filepath.Glob("../pipeline/testdata/seeds/*.tml")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no seeds: %v", err)
	}
	forBothLayouts(t, func(t *testing.T) {
		ran := 0
		for _, name := range seeds {
			file, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			src := string(file)
			for _, optimize := range []bool{false, true} {
				res, ok := compileSeed(src, optimize)
				if !ok {
					continue
				}
				ran++
				runs := make([]run, 3)
				for i := range runs {
					m := machine.New(nil)
					m.MaxSteps = 10_000
					switch i {
					case 0:
						runs[i] = apply(m, res.Closure)
					case 1:
						machine.ForceGenericPath(m)
						runs[i] = apply(m, res.Closure)
					case 2:
						runs[i] = refApply(m, &machine.Closure{Abs: res.Abs})
					}
					if strings.Contains(runs[i].err, "popped") {
						t.Errorf("%s (optimize=%v): %s", src, optimize, runs[i].err)
					}
				}
				if runs[0] != runs[1] {
					t.Errorf("%s (optimize=%v):\n resolved %+v\n generic  %+v", src, optimize, runs[0], runs[1])
				}
				if runs[0].val != runs[2].val || runs[0].unhandled != runs[2].unhandled {
					t.Errorf("%s (optimize=%v):\n compiled    %+v\n interpreted %+v", src, optimize, runs[0], runs[2])
				}
			}
		}
		if ran < 8 {
			t.Errorf("only %d seed compilations ran", ran)
		}
	})
}

// compileSeed compiles a seed term closed over its e and k, if it is
// well-formed and has no other free variable.
func compileSeed(src string, optimize bool) (*pipeline.Result, bool) {
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		return nil, false
	}
	params := make([]*tml.Var, 2)
	for _, v := range tml.FreeVars(app) {
		switch v.Name {
		case "e":
			params[0] = v
		case "k":
			params[1] = v
		default:
			return nil, false
		}
		v.Cont = true
	}
	gen := tml.NewVarGen()
	for i, name := range []string{"e", "k"} {
		if params[i] == nil {
			params[i] = gen.FreshCont(name)
		}
	}
	res, err := pipeline.New(nil, pipeline.Config{}).Run(pipeline.Job{
		Name:         "seed",
		Source:       func(*tml.VarGen) (*tml.Abs, error) { return &tml.Abs{Params: params, Body: app}, nil },
		SkipOptimize: !optimize, Codegen: true, RequireClosed: true,
	})
	return res, err == nil
}

// TestContStackWithoutCheck runs the Stanford suite with the use-after-pop
// check off — records reused in place, as in production — and compares
// it with the checked run; a program without OpCont allocates no chunk.
func TestContStackWithoutCheck(t *testing.T) {
	suite := func() map[string]run {
		s, err := stanford.NewSuite(stanford.RegimeNone)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := make(map[string]run)
		for _, p := range stanford.Programs() {
			s.Machine.ResetProfile()
			v, _, err := s.Run(p.Name)
			prof := s.Machine.Profile()
			r := run{val: machine.Int(v).Show(), steps: prof.Steps, transfers: prof.Transfers}
			if err != nil {
				r.err = err.Error()
			}
			out[p.Name] = r
		}
		return out
	}
	checked := suite()
	defer machine.SetContCheck(machine.SetContCheck(false))
	unchecked := suite()
	for name, want := range checked {
		if got := unchecked[name]; got != want {
			t.Errorf("%s:\n unchecked %+v\n checked   %+v", name, got, want)
		}
	}

	m := machine.New(nil)
	v, err := m.Apply(closureOf(compileProc(t, "proc(x !ce !cc) (+ x 1 ce cc)")), []machine.Value{machine.Int(1)})
	wantInt(t, v, err, 2)
	if c := machine.ContChunks(m); c != 0 {
		t.Errorf("a program without OpCont allocated %d stack chunks", c)
	}
}

// TestContStackReleasesChunks: once a deep non-tail recursion has
// returned, the machine keeps one stack chunk, not the dozens the
// recursion filled, so a long-lived machine does not hold on
// to them until it is dropped.
func TestContStackReleasesChunks(t *testing.T) {
	defer machine.SetContCheck(machine.SetContCheck(false))
	const n = 10_000
	count := closureOf(compileProc(t, `proc(n self !ce !cc)
	  (== n 0 cont() (cc 0)
	     cont() (- n 1 ce cont(m) (self m self ce cont(r) (+ r 1 ce cc))))`))
	m := machine.New(nil)
	v, err := m.Apply(count, []machine.Value{machine.Int(n), count})
	wantInt(t, v, err, n)
	if p := m.Profile(); p.MaxContDepth < n {
		t.Fatalf("recursion of depth %d reached stack depth %d", n, p.MaxContDepth)
	}
	if c := machine.ContChunks(m); c != 1 {
		t.Errorf("%d stack chunks kept after the recursion returned, want 1", c)
	}
	v, err = m.Apply(count, []machine.Value{machine.Int(100), count})
	wantInt(t, v, err, 100)
}
