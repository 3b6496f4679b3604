package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tycoon/internal/machine"
	"tycoon/internal/store"
)

func newCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	c, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// install commits one module through the core.
func install(t *testing.T, c *Core, src string) {
	t.Helper()
	if _, _, err := c.Install(src, (*store.Txn).Commit); err != nil {
		t.Fatal(err)
	}
}

const fibSrc = `module app export fib
let fib(n : Int) : Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end
end`

// TestLendKeepsWhatRanAtOnce: runs that follow each other share one
// machine; K concurrent runs leave at most K idle.
func TestLendKeepsWhatRanAtOnce(t *testing.T) {
	c := newCore(t, Config{})
	install(t, c, fibSrc)
	call := func() error {
		v, _, err := c.Call(c.Store, "app", "fib", []machine.Value{machine.Int(15)})
		if err == nil && v != machine.Value(machine.Int(610)) {
			t.Errorf("fib 15 = %s, want 610", v.Show())
		}
		return err
	}
	for i := 0; i < 8; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.Idle()); n != 1 {
		t.Errorf("8 runs in turn left %d machines, want 1", n)
	}

	const concurrent = 4
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- call()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.Idle()); n < 1 || n > concurrent {
		t.Errorf("%d concurrent runs left %d machines, want 1 to %d", concurrent, n, concurrent)
	}
}

// TestLendResetsEachRun: a lent machine starts from zero steps over the
// run's view under the wall deadline, and forgets view and deadline when
// it goes back.
func TestLendResetsEachRun(t *testing.T) {
	c := newCore(t, Config{WallBudget: time.Minute})
	install(t, c, fibSrc)
	args := []machine.Value{machine.Int(10)}
	_, first, err := c.Call(c.Store, "app", "fib", args)
	if err != nil || first == 0 {
		t.Fatalf("fib(10) took %d steps, %v", first, err)
	}
	if _, second, err := c.Call(c.Store, "app", "fib", args); err != nil || second != first {
		t.Errorf("the same call took %d steps after %d (%v): the count was not reset", second, first, err)
	}
	tx := c.Store.Begin()
	defer tx.Abort()
	c.Run(tx, func(m *machine.Machine) error {
		if m.Store != tx {
			t.Error("the lent machine does not run over the run's view")
		}
		if m.Deadline.IsZero() {
			t.Error("the lent machine has no wall deadline")
		}
		return nil
	})
	for _, m := range c.Idle() {
		if m.Store != nil || !m.Deadline.IsZero() {
			t.Error("an idle machine kept its view or deadline")
		}
	}
}

// TestLendDropsPanickedMachine: a machine whose run panicked is never
// lent again.
func TestLendDropsPanickedMachine(t *testing.T) {
	c := newCore(t, Config{})
	var m *machine.Machine
	func() {
		defer func() { recover() }()
		c.Run(nil, func(lent *machine.Machine) error {
			m = lent
			panic("run failed")
		})
	}()
	c.Run(nil, func(lent *machine.Machine) error {
		if lent == m {
			t.Error("the machine whose run panicked was lent again")
		}
		return nil
	})
}

// TestLendStepBudget: every lent machine carries the step budget, also
// the one a module's constants run on.
func TestLendStepBudget(t *testing.T) {
	c := newCore(t, Config{StepBudget: 1000})
	_, _, err := c.Install(`module spin export c
let c = begin var s := 0; for i = 1 upto 1000000 do s := s + i end; s end
end`, (*store.Txn).Commit)
	if !errors.Is(err, machine.ErrStepBudget) {
		t.Fatalf("install of a runaway constant = %v, want the step budget", err)
	}
}

// TestOptimizeServesEveryMachine: Optimize installs into the one code
// table, so a lent machine and a NewMachine both run the optimized code.
func TestOptimizeServesEveryMachine(t *testing.T) {
	c := newCore(t, Config{})
	install(t, c, `module m export g
let g(n : Int) : Int = begin var s := 0; for i = 1 upto n do s := s + i end; s end
end`)
	args := []machine.Value{machine.Int(100)}
	_, before, err := c.Call(c.Store, "m", "g", args)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Optimize("m", "g"); err != nil {
		t.Fatal(err)
	}
	v, after, err := c.Call(c.Store, "m", "g", args)
	if err != nil || v != machine.Value(machine.Int(5050)) {
		t.Fatalf("optimized g(100) = %v, %v", v, err)
	}
	if after >= before {
		t.Errorf("a lent machine took %d steps after Optimize, %d before", after, before)
	}
	own := c.NewMachine(c.Store)
	mod, _ := c.Store.Root("module:m")
	if _, err := own.CallExport(mod, "g", args); err != nil {
		t.Fatal(err)
	}
	if own.Steps() != after {
		t.Errorf("a NewMachine took %d steps, a lent one %d", own.Steps(), after)
	}
}
