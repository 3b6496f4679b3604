// Package opt implements the TML optimizer of paper §3: a reduction pass
// applying the eight core rewrite rules (subst, remove, reduce, η-reduce,
// fold, case-subst, Y-remove, Y-reduce) until no more rules apply,
// alternating with an expansion pass that inlines bound abstractions under
// an Appel-style heuristic cost model. The two passes repeat until the
// tree is stable or an accumulated penalty reaches its limit, which
// guarantees termination even in obscure cases (paper §3).
//
// Many classical optimizations fall out of these few rules: constant and
// copy propagation (subst + fold), dead code elimination (remove, plus a
// dead-call rule justified by primitive effect classes), procedure
// inlining and view expansion (expansion + subst), and loop unrolling
// (expansion applied to Y-bound abstractions).
//
// The same code paths serve the static compile-time optimizer and the
// reflective runtime optimizer (paper §4.1); extra rewrite rules — notably
// the algebraic query rules of paper §4.2 — plug in through Options.Extra.
package opt

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

// ErrMiscompile marks an optimizer pass whose output violates a §2.2
// well-formedness constraint its input satisfied. It deliberately does
// not wrap tml.ErrIllFormed: the fault is the compiler's, not the
// input's.
var ErrMiscompile = errors.New("opt: miscompile")

// Rule is an extra rewrite rule applied during the reduction pass at every
// application node, after the core rules. Returning ok=false means the
// rule does not apply; a returned tree must be strictly simpler or the
// driver's change detection will loop (rules are trusted, like the paper's
// primitive-supplied meta-evaluation functions).
type Rule struct {
	Name  string
	Apply func(ctx *Ctx, app *tml.App) (*tml.App, bool)
}

// Ctx gives rewrite rules access to the variable generator (for fresh
// binders) and the primitive registry.
type Ctx struct {
	Gen *tml.VarGen
	Reg *prim.Registry
}

// Options configures an optimization run.
type Options struct {
	// Reg is the primitive registry; nil means prim.Default.
	Reg *prim.Registry
	// Gen supplies fresh variables for α-conversion during expansion.
	// nil allocates a generator seeded past the tree's maximum ID.
	Gen *tml.VarGen
	// MaxRounds bounds the number of reduction/expansion rounds; it is
	// the penalty limit of paper §3. Zero means DefaultMaxRounds.
	MaxRounds int
	// InlineBudget is the base cost threshold of the expansion pass in
	// abstract machine instructions; the effective threshold shrinks as
	// penalty accumulates. Zero means DefaultInlineBudget.
	InlineBudget int
	// PenaltyLimit stops the driver once this many expansions have been
	// performed in total. Zero means DefaultPenaltyLimit.
	PenaltyLimit int
	// NoExpansion disables the expansion pass (reduction only); used for
	// ablation and for cheap re-optimization of shared functions.
	NoExpansion bool
	// NoFold disables the fold rule globally (ablation).
	NoFold bool
	// SubstUnrestricted drops the "abstractions only when referenced
	// once" precondition of the subst rule (ablation; may grow code).
	SubstUnrestricted bool
	// Extra rules run during the reduction pass (e.g. the query rewrite
	// rules of package qopt).
	Extra []Rule
	// OnPass, when non-nil, receives one record per optimizer pass —
	// each reduction fixpoint and each expansion sweep — as the pass
	// completes. The compilation pipeline (package pipeline) uses it for
	// per-pass instrumentation; per-pass node counts are only computed
	// when the hook is set.
	OnPass func(PassInfo)
}

// PassInfo describes one completed optimizer pass for Options.OnPass.
type PassInfo struct {
	// Name is "reduce" or "expand".
	Name string
	// Round is the 1-based reduction/expansion round the pass belongs to.
	Round int
	// Rewrites is the number of rule applications the pass performed.
	Rewrites int
	// Rules holds the per-rule application counts of this pass alone.
	Rules map[string]int
	// NodesBefore and NodesAfter are tree node counts around the pass.
	NodesBefore, NodesAfter int
	// Duration is the wall-clock time of the pass.
	Duration time.Duration
}

// Defaults for Options.
const (
	DefaultMaxRounds    = 8
	DefaultInlineBudget = 40
	DefaultPenaltyLimit = 256
)

// Stats records what an optimization run did.
type Stats struct {
	// Rules counts rule applications by rule name.
	Rules map[string]int
	// Rounds is the number of reduction/expansion rounds executed.
	Rounds int
	// Penalty is the accumulated expansion penalty (paper §3).
	Penalty int
	// SizeBefore and SizeAfter are tree node counts.
	SizeBefore, SizeAfter int
	// CostBefore and CostAfter are estimated runtime costs.
	CostBefore, CostAfter int
}

func (s *Stats) bump(rule string) {
	if s.Rules == nil {
		s.Rules = make(map[string]int)
	}
	s.Rules[rule]++
}

// String formats the statistics for the tmlopt tool.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d penalty=%d size %d→%d cost %d→%d",
		s.Rounds, s.Penalty, s.SizeBefore, s.SizeAfter, s.CostBefore, s.CostAfter)
	names := make([]string, 0, len(s.Rules))
	for n := range s.Rules {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, s.Rules[n])
	}
	return b.String()
}

// Optimize rewrites app to a fixpoint of the reduction rules, interleaved
// with expansion rounds, and returns the optimized tree with statistics.
// The input tree is not mutated.
func Optimize(app *tml.App, opts Options) (*tml.App, *Stats, error) {
	o := newOptimizer(opts, app)
	out, err := o.run(app)
	return out, o.stats, err
}

type optimizer struct {
	opts    Options
	reg     *prim.Registry
	gen     *tml.VarGen
	ctx     *Ctx
	stats   *Stats
	changed bool
	penalty int
	// free are the input's free variables, allowed free in every pass.
	free []*tml.Var
	// perBinder limits how often one binder is inlined per expansion pass
	// (recursion through Y would otherwise unroll without bound inside a
	// single pass).
	perBinder map[*tml.Var]int
}

func newOptimizer(opts Options, root *tml.App) *optimizer {
	if opts.Reg == nil {
		opts.Reg = prim.Default
	}
	if opts.Gen == nil {
		opts.Gen = tml.NewVarGenAt(tml.MaxVarID(root) + 1)
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	if opts.InlineBudget == 0 {
		opts.InlineBudget = DefaultInlineBudget
	}
	if opts.PenaltyLimit == 0 {
		opts.PenaltyLimit = DefaultPenaltyLimit
	}
	return &optimizer{
		opts:  opts,
		reg:   opts.Reg,
		gen:   opts.Gen,
		ctx:   &Ctx{Gen: opts.Gen, Reg: opts.Reg},
		stats: &Stats{},
	}
}

func (o *optimizer) run(app *tml.App) (*tml.App, error) {
	// No rule may introduce a free variable, so the input's free
	// variables are the only ones any pass's output may have.
	o.free = tml.FreeVars(app)
	o.stats.SizeBefore = tml.Size(app)
	o.stats.CostBefore = Cost(app, o.reg)
	for round := 0; ; round++ {
		o.stats.Rounds = round + 1
		app = o.pass("reduce", round+1, app, o.reduceFixpoint)
		if err := o.check(app, fmt.Sprintf("reduce#%d", round+1)); err != nil {
			return nil, err
		}
		if o.opts.NoExpansion || round+1 >= o.opts.MaxRounds || o.penalty >= o.opts.PenaltyLimit {
			break
		}
		o.changed = false
		o.perBinder = make(map[*tml.Var]int)
		app = o.pass("expand", round+1, app, func(a *tml.App) *tml.App {
			return o.expandApp(a, make(map[*tml.Var]*tml.Abs), round)
		})
		if err := o.check(app, fmt.Sprintf("expand#%d", round+1)); err != nil {
			return nil, err
		}
		if !o.changed {
			break
		}
	}
	o.stats.Penalty = o.penalty
	o.stats.SizeAfter = tml.Size(app)
	o.stats.CostAfter = Cost(app, o.reg)
	return app, nil
}

// check re-verifies well-formedness after every pass. Every rewrite rule
// must preserve the §2.2 constraints (paper fn. 3), so on well-formed
// input (the pipeline checks its source) a violation is a miscompile,
// reported against the pass that introduced it (e.g. "reduce#3") instead
// of surfacing at codegen or as a wrong value.
func (o *optimizer) check(app *tml.App, pass string) error {
	if err := tml.Check(app, tml.CheckOpts{Signatures: o.reg.Signatures, AllowFree: o.free}); err != nil {
		return fmt.Errorf("%w after pass %s: %v", ErrMiscompile, pass, err)
	}
	return nil
}

// pass runs one optimizer pass, reporting per-pass instrumentation to
// Options.OnPass when set.
func (o *optimizer) pass(name string, round int, app *tml.App, run func(*tml.App) *tml.App) *tml.App {
	if o.opts.OnPass == nil {
		return run(app)
	}
	before := tml.Size(app)
	snap := copyRules(o.stats.Rules)
	start := time.Now()
	out := run(app)
	elapsed := time.Since(start)
	delta := diffRules(o.stats.Rules, snap)
	total := 0
	for _, c := range delta {
		total += c
	}
	o.opts.OnPass(PassInfo{
		Name:        name,
		Round:       round,
		Rewrites:    total,
		Rules:       delta,
		NodesBefore: before,
		NodesAfter:  tml.Size(out),
		Duration:    elapsed,
	})
	return out
}

func copyRules(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// diffRules reports the counts accumulated since snap.
func diffRules(now, snap map[string]int) map[string]int {
	var d map[string]int
	for k, v := range now {
		if delta := v - snap[k]; delta > 0 {
			if d == nil {
				d = make(map[string]int)
			}
			d[k] = delta
		}
	}
	return d
}

// reduceFixpoint runs reduction sweeps until no rule fires.
func (o *optimizer) reduceFixpoint(app *tml.App) *tml.App {
	for {
		o.changed = false
		app = o.reduceApp(app)
		if !o.changed {
			return app
		}
	}
}
