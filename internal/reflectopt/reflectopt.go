// Package reflectopt implements the paper's reflective dynamic optimizer
// (§4.1, Fig. 3): at link or run time, when all bindings between the
// contributing parts of a persistent application are established, it maps
// the PTML tree of a function back into TML, re-establishes the R-value
// bindings of its free variables from the closure record, collects —
// via transitive reachability through the store — the declarations that
// contribute to the term, and invokes the ordinary TML optimizer on the
// resulting single scope. The result is compiled by the regular back end
// and linked into the running program.
//
// Two runtime-binding rewrite rules drive the cross-barrier effect:
//
//	fold-field:  ([] <oid> k cont) on an immutable module or tuple
//	             object folds to the fetched value — the module member
//	             fetch disappears;
//	link-inline: a call whose function position is the OID of a closure
//	             carrying PTML is replaced by the (re-bound) body of that
//	             closure — procedure inlining across module barriers.
//
// Everything else — subst, fold, η, the query rules — is the shared
// optimizer of package opt (the paper: "the static and dynamic
// optimizers share the same code for TML analysis and rewriting").
package reflectopt

import (
	"errors"
	"fmt"

	"tycoon/internal/machine"
	"tycoon/internal/opt"
	"tycoon/internal/pipeline"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/qopt"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// ErrNoPTML reports a closure whose persistent TML tree was stripped.
var ErrNoPTML = errors.New("reflectopt: closure carries no PTML (installed with StripPTML)")

// Options tunes the dynamic optimizer.
type Options struct {
	// Reg is the primitive registry; nil means prim.Default.
	Reg *prim.Registry
	// InlinePerOID bounds how often one non-recursive persistent closure
	// is inlined into a single optimization; 0 means DefaultInlinePerOID.
	// Library wrappers are tiny and non-recursive, so this is generous.
	InlinePerOID int
	// InlineRecursive bounds inlining of self-recursive closures (their
	// bodies mention their own OID): each inline is one unrolling.
	// 0 means DefaultInlineRecursive.
	InlineRecursive int
	// MaxInlineSize stops cross-barrier inlining once the accumulated
	// size of inlined bodies exceeds this many TML nodes (mutual
	// recursion through the store would otherwise grow without bound).
	// 0 means DefaultMaxInlineSize.
	MaxInlineSize int
	// Opt are the base optimizer options (rounds, budgets).
	Opt opt.Options
	// NoQueryRules disables the §4.2 query rewrite rules (ablation).
	NoQueryRules bool
	// FromCode reconstructs TML by decompiling the executable TAM code
	// instead of decoding the stored PTML tree — the paper's §6 future
	// work ("inverting the target machine code generation process").
	// Closures installed with StripPTML become optimizable again, at the
	// cost of a non-isomorphic (occasionally duplicated) tree.
	FromCode bool
	// CacheEntries bounds the pipeline's optimized-code cache; 0 means
	// pipeline.DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// Pipe, when non-nil, is the compilation pipeline to run jobs through
	// instead of a private one. tycd injects its server-wide pipeline here
	// so reflective optimizations and remote SUBMIT compilations share one
	// cache and one singleflight group across all sessions. The optionsFP
	// component of every key keeps distinct Options configurations from
	// colliding in the shared cache; Reg and CacheEntries are ignored in
	// favour of the shared pipeline's own configuration.
	Pipe *pipeline.Pipeline
}

// Default inlining bounds.
const (
	DefaultInlinePerOID    = 64
	DefaultInlineRecursive = 2
	DefaultMaxInlineSize   = 60_000
)

// Optimizer performs reflective optimization against one store. It is
// safe for concurrent use: runs of the same closure against the same
// bindings are deduplicated and cached by the underlying pipeline.
type Optimizer struct {
	st   *store.Store
	opts Options
	pipe *pipeline.Pipeline
	// optionsFP folds every Options field that changes the output into
	// the cache key, so two optimizers with different settings over the
	// same store never share entries.
	optionsFP uint64
}

// New returns a dynamic optimizer over st.
func New(st *store.Store, opts Options) *Optimizer {
	if opts.Reg == nil {
		opts.Reg = prim.Default
	}
	if opts.InlinePerOID == 0 {
		opts.InlinePerOID = DefaultInlinePerOID
	}
	if opts.InlineRecursive == 0 {
		opts.InlineRecursive = DefaultInlineRecursive
	}
	if opts.MaxInlineSize == 0 {
		opts.MaxInlineSize = DefaultMaxInlineSize
	}
	pipe := opts.Pipe
	if pipe == nil {
		pipe = pipeline.New(st, pipeline.Config{Reg: opts.Reg, CacheEntries: opts.CacheEntries})
	}
	fp := pipeline.FingerprintOptions(
		opts.InlinePerOID, opts.InlineRecursive, opts.MaxInlineSize,
		opts.NoQueryRules, opts.FromCode,
		opts.Opt.MaxRounds, opts.Opt.InlineBudget, opts.Opt.PenaltyLimit,
		opts.Opt.NoExpansion, opts.Opt.NoFold, opts.Opt.SubstUnrestricted,
		len(opts.Opt.Extra))
	return &Optimizer{st: st, opts: opts, pipe: pipe, optionsFP: fp}
}

// Result is the outcome of one reflective optimization.
type Result struct {
	// Abs is the globally optimized TML procedure.
	Abs *tml.Abs
	// Closure is the recompiled executable value.
	Closure *machine.TAMClosure
	// Stats are the optimizer statistics.
	Stats *opt.Stats
	// Inlined counts persistent closures inlined across barriers.
	Inlined int
	// Pipeline is the per-pass instrumentation of this run; on a cache
	// hit it records zero passes.
	Pipeline *pipeline.Stats
	// CacheHit reports that the optimized code was served from the
	// pipeline cache without re-running the optimizer.
	CacheHit bool
	// Batchable marks the optimized procedure as a query predicate that
	// the relational substrate will run on its batched, compiled kernel
	// (qopt.Batchable: step-neutral proc(x ce cc)).
	Batchable bool
	// Plan is the optimize-time access-path plan: one node per relational
	// primitive in the optimized code whose relation operand is a
	// runtime-bound store relation — index probes with their equality
	// estimates from live column statistics, and the sequential scans the
	// cost gate kept. Join algorithms and actual cardinalities are
	// runtime decisions; those nodes come from relalg's EXPLAIN capture.
	Plan []*qopt.PlanNode
}

// CacheStats reports the underlying pipeline's cache counters.
func (o *Optimizer) CacheStats() pipeline.CacheStats {
	return o.pipe.CacheStats()
}

// cacheKey content-addresses one reflective optimization: the canonical
// α-invariant hash of the closure's source (PTML tree, or raw code blob
// when decompiling), the fingerprint of its R-value binding table, and
// the optimizer options. A zero key (closure without the needed blob)
// bypasses the cache; Optimize then reports the real error.
func (o *Optimizer) cacheKey(oid store.OID) pipeline.Key {
	obj, err := o.st.Get(oid)
	if err != nil {
		return pipeline.Key{}
	}
	clo, ok := obj.(*store.Closure)
	if !ok {
		return pipeline.Key{}
	}
	var src ptml.Hash
	if o.opts.FromCode {
		blob, ok := o.blob(clo.Code)
		if !ok {
			return pipeline.Key{}
		}
		src = ptml.HashRaw(blob)
	} else {
		if clo.PTML == store.Nil {
			return pipeline.Key{}
		}
		blob, ok := o.blob(clo.PTML)
		if !ok {
			return pipeline.Key{}
		}
		h, err := ptml.CanonicalHash(blob)
		if err != nil {
			return pipeline.Key{}
		}
		src = h
	}
	return pipeline.Key{
		Source:   src,
		Bindings: pipeline.BindingFingerprint(clo.Bindings),
		Options:  o.optionsFP,
	}
}

func (o *Optimizer) blob(oid store.OID) ([]byte, bool) {
	obj, err := o.st.Get(oid)
	if err != nil {
		return nil, false
	}
	b, ok := obj.(*store.Blob)
	if !ok {
		return nil, false
	}
	return b.Bytes, true
}

// Optimize reflectively optimizes the persistent closure denoted by oid
// and returns newly generated code. The persistent original is left
// untouched except for its cached derived attributes (cost, savings).
// Repeat optimization of an unchanged closure is a cache hit: no
// reduce/expand passes run, and concurrent calls on the same closure do
// the work exactly once.
func (o *Optimizer) Optimize(oid store.OID) (*Result, error) {
	state := &inlineState{counts: make(map[store.OID]int)}
	reflectPack := pipeline.RulePack{Name: "reflect", Rules: []opt.Rule{
		{Name: "fold-field", Apply: o.foldField},
		{Name: "link-inline", Apply: func(ctx *opt.Ctx, app *tml.App) (*tml.App, bool) {
			return o.linkInline(ctx, app, state)
		}},
	}}
	packs := []pipeline.RulePack{reflectPack}
	if !o.opts.NoQueryRules {
		packs = append(packs, qopt.RuntimePack(o.st))
	}

	job := pipeline.Job{
		Name: optName(o.st, oid),
		Source: func(gen *tml.VarGen) (*tml.Abs, error) {
			return o.reconstruct(oid, gen)
		},
		Opt:           o.opts.Opt,
		Packs:         packs,
		Codegen:       true,
		RequireClosed: true,
		Key:           o.cacheKey(oid),
	}
	res, err := o.pipe.Run(job)
	if err != nil {
		return nil, err
	}

	// Derive the cross-barrier inline count from the rule statistics so
	// it survives cache hits (state.total is only filled on execution).
	inlined := 0
	if res.Opt != nil {
		inlined = res.Opt.Rules["link-inline"]
	}

	if !res.CacheHit && res.Opt != nil {
		// Cache derived attributes in the persistent system state (paper
		// §4.1: "the optimizer attaches several derived attributes
		// (costs, savings, …) to the generated code"). Attrs are
		// metadata, not bindings: SetClosureAttrs does not advance the
		// binding epoch, so writing them never invalidates the entry
		// that produced them.
		_ = o.st.SetClosureAttrs(oid, int32(res.Opt.CostAfter),
			int32(res.Opt.CostBefore-res.Opt.CostAfter))
	}
	return &Result{
		Abs:       res.Abs,
		Closure:   res.Closure,
		Stats:     res.Opt,
		Inlined:   inlined,
		Pipeline:  res.Stats,
		CacheHit:  res.CacheHit,
		Batchable: qopt.Batchable(res.Abs),
		Plan:      accessPlan(o.st, res.Abs),
	}, nil
}

// accessPlan derives the access-path plan from the optimized code: the
// relational primitives that survived optimization, annotated with live
// statistics. Deriving it from the result (rather than recording inside
// the rules) keeps the plan available on pipeline cache hits, when no
// rule ever runs.
func accessPlan(st *store.Store, abs *tml.Abs) []*qopt.PlanNode {
	if abs == nil {
		return nil
	}
	var nodes []*qopt.PlanNode
	relFor := func(v tml.Value) (*store.Relation, int) {
		oidNode, ok := v.(*tml.Oid)
		if !ok {
			return nil, 0
		}
		obj, err := st.Get(store.OID(oidNode.Ref))
		if err != nil {
			return nil, 0
		}
		rel, ok := obj.(*store.Relation)
		if !ok {
			return nil, 0
		}
		return rel, rel.NumRows()
	}
	tml.Walk(abs, func(n tml.Node) bool {
		app, ok := n.(*tml.App)
		if !ok {
			return true
		}
		p, ok := app.Fn.(*tml.Prim)
		if !ok {
			return true
		}
		switch p.Name {
		case "indexscan":
			if len(app.Args) != 5 {
				return true
			}
			rel, nrows := relFor(app.Args[0])
			if rel == nil {
				return true
			}
			node := &qopt.PlanNode{
				Op: "indexscan", Algo: "index", Table: rel.Name,
				InRows: int64(nrows), EstRows: -1, ActRows: -1,
			}
			if colLit, ok := app.Args[1].(*tml.Lit); ok && colLit.Kind == tml.LitInt {
				node.Detail = fmt.Sprintf("col=%d", colLit.Int)
				if sts := rel.ColumnStats(nrows); int(colLit.Int) < len(sts) {
					node.EstRows = qopt.EstEqMatches(&sts[colLit.Int], nrows)
				}
			}
			nodes = append(nodes, node)
		case "select", "exists", "project", "join":
			relArg := 1
			if len(app.Args) != 4 && !(p.Name == "join" && len(app.Args) == 5) {
				return true
			}
			rel, nrows := relFor(app.Args[relArg])
			if rel == nil {
				return true
			}
			node := &qopt.PlanNode{
				Op: p.Name, Algo: "scan", Table: rel.Name,
				InRows: int64(nrows), EstRows: -1, ActRows: -1,
			}
			if p.Name == "join" {
				if rel2, n2 := relFor(app.Args[2]); rel2 != nil {
					node.Table += "," + rel2.Name
					node.InRows = int64(nrows) * int64(n2)
				}
			}
			nodes = append(nodes, node)
		}
		return true
	})
	return nodes
}

// OptimizeAndInstall optimizes and then installs the new code in the code
// table, so every subsequent application of the OID through a machine
// using the table runs it.
func (o *Optimizer) OptimizeAndInstall(code *machine.CodeTable, oid store.OID) (*Result, error) {
	res, err := o.Optimize(oid)
	if err != nil {
		return nil, err
	}
	code.Install(oid, res.Closure)
	return res, nil
}

func optName(st *store.Store, oid store.OID) string {
	if obj, err := st.Get(oid); err == nil {
		if c, ok := obj.(*store.Closure); ok {
			return c.Name + "!opt"
		}
	}
	return "opt"
}

// reconstruct maps a closure's PTML back into TML and re-establishes the
// R-value bindings of its free variables, yielding the paper's §4.1
// wrapper shape: the original parameters around a λ binding the former
// globals to their runtime values.
func (o *Optimizer) reconstruct(oid store.OID, gen *tml.VarGen) (*tml.Abs, error) {
	obj, err := o.st.Get(oid)
	if err != nil {
		return nil, err
	}
	clo, ok := obj.(*store.Closure)
	if !ok {
		return nil, fmt.Errorf("reflectopt: oid 0x%x is a %s, not a closure", uint64(oid), obj.Kind())
	}
	var abs *tml.Abs
	var free []*tml.Var
	if o.opts.FromCode || clo.PTML == store.Nil {
		if !o.opts.FromCode && clo.PTML == store.Nil {
			return nil, fmt.Errorf("%w: %s", ErrNoPTML, clo.Name)
		}
		abs, free, err = o.decompile(clo, gen)
		if err != nil {
			return nil, err
		}
	} else {
		blobObj, err := o.st.Get(clo.PTML)
		if err != nil {
			return nil, err
		}
		blob, ok := blobObj.(*store.Blob)
		if !ok {
			return nil, fmt.Errorf("reflectopt: PTML of %s is a %s", clo.Name, blobObj.Kind())
		}
		node, decFree, err := ptml.Decode(blob.Bytes, gen)
		if err != nil {
			return nil, fmt.Errorf("reflectopt: %s: %w", clo.Name, err)
		}
		decAbs, ok := node.(*tml.Abs)
		if !ok {
			return nil, fmt.Errorf("reflectopt: PTML of %s decodes to %T, want abstraction", clo.Name, node)
		}
		abs, free = decAbs, decFree
	}
	if len(free) == 0 {
		return abs, nil
	}
	// Bind every free variable to its recorded runtime value.
	vals := make([]tml.Value, len(free))
	for i, v := range free {
		bv, ok := clo.Binding(v.String())
		if !ok {
			return nil, fmt.Errorf("reflectopt: %s: no binding for %s", clo.Name, v)
		}
		vals[i] = machine.StoreValToTML(bv)
	}
	inner := &tml.Abs{Params: free, Body: abs.Body}
	wrapped := tml.NewApp(inner, vals...)
	return &tml.Abs{Params: abs.Params, Body: wrapped}, nil
}

// decompile reconstructs TML from the closure's executable code (paper
// §6 future work): the label tables recorded by the code generator make
// the inversion exact up to join-point duplication.
func (o *Optimizer) decompile(clo *store.Closure, gen *tml.VarGen) (*tml.Abs, []*tml.Var, error) {
	blobObj, err := o.st.Get(clo.Code)
	if err != nil {
		return nil, nil, err
	}
	blob, ok := blobObj.(*store.Blob)
	if !ok {
		return nil, nil, fmt.Errorf("reflectopt: code of %s is a %s", clo.Name, blobObj.Kind())
	}
	prog, err := machine.DecodeProgram(blob.Bytes)
	if err != nil {
		return nil, nil, err
	}
	abs, free, err := machine.Decompile(prog, gen)
	if err != nil {
		return nil, nil, fmt.Errorf("reflectopt: %s: %w", clo.Name, err)
	}
	return abs, free, nil
}

// foldField folds ([] <oid> K cont) on immutable store objects: module
// member fetches and tuple field accesses against runtime bindings.
// Mutable objects (arrays, relations) are never folded.
func (o *Optimizer) foldField(ctx *opt.Ctx, app *tml.App) (*tml.App, bool) {
	p, ok := app.Fn.(*tml.Prim)
	if !ok || p.Name != "[]" || len(app.Args) != 3 {
		return nil, false
	}
	oidNode, ok := app.Args[0].(*tml.Oid)
	if !ok {
		return nil, false
	}
	idxLit, ok := app.Args[1].(*tml.Lit)
	if !ok || idxLit.Kind != tml.LitInt {
		return nil, false
	}
	obj, err := o.st.Get(store.OID(oidNode.Ref))
	if err != nil {
		return nil, false
	}
	var val store.Val
	switch obj := obj.(type) {
	case *store.Module:
		if idxLit.Int < 0 || idxLit.Int >= int64(len(obj.Exports)) {
			return nil, false
		}
		val = obj.Exports[idxLit.Int].Val
	case *store.Tuple:
		if idxLit.Int < 0 || idxLit.Int >= int64(len(obj.Fields)) {
			return nil, false
		}
		val = obj.Fields[idxLit.Int]
	default:
		return nil, false
	}
	return tml.NewApp(app.Args[2], machine.StoreValToTML(val)), true
}

// inlineState tracks cross-barrier inlining budgets within one run.
type inlineState struct {
	counts map[store.OID]int
	size   int
	total  int
}

// linkInline replaces a call through a closure OID by the closure's
// re-bound body: procedure inlining across abstraction barriers. The
// inlined body's own free variables are bound the same way, so the
// optimizer effectively collects all contributing declarations through
// transitive reachability (paper §4.1). Self-recursive closures unroll
// at most InlineRecursive times; the accumulated size bound stops mutual
// recursion through the store.
func (o *Optimizer) linkInline(ctx *opt.Ctx, app *tml.App, state *inlineState) (*tml.App, bool) {
	oidNode, ok := app.Fn.(*tml.Oid)
	if !ok {
		return nil, false
	}
	oid := store.OID(oidNode.Ref)
	if state.size >= o.opts.MaxInlineSize {
		return nil, false
	}
	abs, err := o.reconstruct(oid, ctx.Gen)
	if err != nil {
		return nil, false // no PTML or not a closure: leave the call dynamic
	}
	if len(abs.Params) != len(app.Args) {
		return nil, false
	}
	limit := o.opts.InlinePerOID
	if selfRecursive(abs, oid) {
		limit = o.opts.InlineRecursive
	}
	if state.counts[oid] >= limit {
		return nil, false
	}
	state.counts[oid]++
	state.total++
	state.size += tml.Size(abs)
	return tml.NewApp(abs, app.Args...), true
}

// selfRecursive reports whether the reconstructed body calls back through
// its own OID.
func selfRecursive(abs *tml.Abs, oid store.OID) bool {
	found := false
	tml.Walk(abs, func(n tml.Node) bool {
		if o, ok := n.(*tml.Oid); ok && store.OID(o.Ref) == oid {
			found = true
		}
		return !found
	})
	return found
}
