package stanford

import (
	"fmt"

	"tycoon/internal/core"
	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/store"
)

// Regime is one of the optimization regimes the paper's §6 evaluation
// compares.
type Regime uint8

// The regimes.
const (
	// RegimeNone installs unoptimized code (library-call compilation).
	RegimeNone Regime = iota
	// RegimeLocal adds compile-time (local, per-function) optimization —
	// the setting the paper reports as yielding "no significant speedup".
	RegimeLocal
	// RegimeDynamic adds runtime reflective optimization across the
	// module abstraction barriers — the paper's "more than doubles the
	// execution speed".
	RegimeDynamic
	// RegimeDirect is the ablation upper bound: scalar operations
	// compiled straight to primitives (no library factoring at all).
	RegimeDirect
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimeNone:
		return "none"
	case RegimeLocal:
		return "local"
	case RegimeDynamic:
		return "dynamic"
	case RegimeDirect:
		return "direct"
	}
	return fmt.Sprintf("regime(%d)", uint8(r))
}

// Program describes one suite member: its TL source, the standard
// workload parameter, and the expected result (self-checking harness).
type Program struct {
	Name string
	Src  string
	N    int64
	Want int64 // 0 means "verified by cross-regime agreement only"
}

// Programs returns the suite with its standard parameters.
func Programs() []Program {
	return []Program{
		{Name: "perm", Src: PermSrc, N: 6, Want: 720},
		{Name: "towers", Src: TowersSrc, N: 12, Want: 4095},
		{Name: "queens", Src: QueensSrc, N: 7, Want: 40},
		{Name: "intmm", Src: IntmmSrc, N: 16},
		{Name: "mm", Src: MmSrc, N: 12},
		{Name: "quick", Src: QuickSrc, N: 256},
		{Name: "bubble", Src: BubbleSrc, N: 128},
		{Name: "sieve", Src: SieveSrc, N: 2000, Want: 303},
	}
}

// Suite is an installed corpus under one regime.
type Suite struct {
	Regime  Regime
	Store   *store.Store
	Machine *machine.Machine
}

// NewSuite compiles and installs the whole corpus under the regime, on
// one core: RegimeLocal and RegimeDynamic install with LocalOpt,
// RegimeDirect with DirectPrims, and RegimeDynamic then reflectively
// optimizes every program's entry into the core's code table, which the
// suite's machine runs on.
func NewSuite(regime Regime) (*Suite, error) {
	st, err := store.Open("")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Suite, error) {
		st.Close()
		return nil, err
	}
	c, err := core.New(st, core.Config{Options: core.Options{
		LocalOpt:    regime == RegimeLocal || regime == RegimeDynamic,
		DirectPrims: regime == RegimeDirect,
	}})
	if err != nil {
		return fail(err)
	}
	for _, p := range Programs() {
		if _, _, err := c.Install(p.Src, (*store.Txn).Commit); err != nil {
			return fail(fmt.Errorf("stanford: %s: %w", p.Name, err))
		}
	}
	if regime == RegimeDynamic {
		for _, p := range Programs() {
			if _, err := c.Optimize(p.Name, "run"); err != nil {
				return fail(fmt.Errorf("stanford: optimizing %s: %w", p.Name, err))
			}
		}
	}
	return &Suite{Regime: regime, Store: st, Machine: c.NewMachine(st)}, nil
}

// Close releases the underlying store.
func (s *Suite) Close() error { return s.Store.Close() }

// Run executes one program at its standard parameter and returns the
// result with the number of abstract machine steps taken.
func (s *Suite) Run(name string) (result int64, steps int64, err error) {
	return s.RunN(name, 0)
}

// RunN executes one program with an explicit parameter (0 means the
// standard one).
func (s *Suite) RunN(name string, n int64) (int64, int64, error) {
	var prog *Program
	for _, p := range Programs() {
		if p.Name == name {
			prog = &p
			break
		}
	}
	if prog == nil {
		return 0, 0, fmt.Errorf("stanford: unknown program %s", name)
	}
	if n == 0 {
		n = prog.N
	}
	mod, _ := linker.Module(s.Store, name)
	s.Machine.ResetSteps()
	v, err := s.Machine.CallExport(mod, "run", []machine.Value{machine.Int(n)})
	if err != nil {
		return 0, 0, fmt.Errorf("stanford: %s: %w", name, err)
	}
	steps := s.Machine.Steps()
	i, ok := v.(machine.Int)
	if !ok {
		return 0, 0, fmt.Errorf("stanford: %s returned %s", name, v.Show())
	}
	return int64(i), steps, nil
}

// CodeSize sums the persistent code sizes across the whole corpus
// (library plus benchmarks): executable TAM bytes and attached PTML
// bytes. The paper's §6 code-size claim (E3) is the ratio
// (tam+ptml)/tam ≈ 2.
func (s *Suite) CodeSize() (tamBytes, ptmlBytes int, err error) {
	for _, oid := range s.Store.OIDs() {
		obj, err := s.Store.Get(oid)
		if err != nil {
			return 0, 0, err
		}
		clo, ok := obj.(*store.Closure)
		if !ok {
			continue
		}
		if clo.Code != store.Nil {
			if blob, ok := s.Store.MustGet(clo.Code).(*store.Blob); ok {
				tamBytes += len(blob.Bytes)
			}
		}
		if clo.PTML != store.Nil {
			if blob, ok := s.Store.MustGet(clo.PTML).(*store.Blob); ok {
				ptmlBytes += len(blob.Bytes)
			}
		}
	}
	return tamBytes, ptmlBytes, nil
}
