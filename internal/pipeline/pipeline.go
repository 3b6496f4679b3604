// Package pipeline unifies the compile→optimize→codegen→install flow of
// paper Fig. 3 into one instrumented pass manager. The linker (static,
// per-function optimization at installation), the reflective runtime
// optimizer (paper §4.1) and the tmlopt tool all run their work as a Job
// through a Pipeline, which sequences the passes — source
// reconstruction, the reduce/expand rounds of the shared TML optimizer,
// TAM code generation, and the persistent encodings — and records
// per-pass rewrite counts, node-count deltas and wall-clock timings.
//
// Jobs carrying a content-addressed Key are cached: the key combines the
// canonical α-invariant hash of the source tree (ptml.HashNode), a
// fingerprint of the closure's R-value binding table, and a fingerprint
// of the optimization options. Concurrent runs of the same key are
// deduplicated through a singleflight group, so N goroutines reflecting
// on the same closure perform the reduce/expand work exactly once.
// Entries are tagged with the store's binding epoch at computation time
// and discarded once the epoch advances (any Update or SetRoot), which
// guarantees that optimized code never outlives the bindings it folded
// in — the cache analogue of the paper's rule that reflective
// optimization happens only "when all bindings … are established".
package pipeline

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"tycoon/internal/machine"
	"tycoon/internal/opt"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// Key content-addresses one optimization result.
type Key struct {
	// Source is the canonical α-invariant hash of the input tree
	// (ptml.HashNode / ptml.CanonicalHash), or ptml.HashRaw of the code
	// blob when the source is reconstructed by decompilation.
	Source ptml.Hash
	// Bindings fingerprints the R-value binding table the source is
	// optimized against (BindingFingerprint).
	Bindings uint64
	// Options fingerprints every option that can change the output.
	Options uint64
}

// IsZero reports an unset key; zero-key jobs bypass the cache.
func (k Key) IsZero() bool { return k == Key{} }

// BindingFingerprint hashes a closure record's R-value binding table
// into the cache key. Reference values hash by OID: the binding epoch,
// not the fingerprint, covers mutation of the referenced objects.
func BindingFingerprint(bs []store.Binding) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	u64(uint64(len(bs)))
	for _, b := range bs {
		h.Write([]byte(b.Name))
		h.Write([]byte{0, byte(b.Val.Kind)})
		switch b.Val.Kind {
		case store.ValInt:
			u64(uint64(b.Val.Int))
		case store.ValReal:
			u64(uint64(int64(b.Val.Real*1e9)) ^ 0x5ca1ab1e)
		case store.ValBool:
			if b.Val.Bool {
				u64(1)
			} else {
				u64(0)
			}
		case store.ValChar:
			u64(uint64(b.Val.Ch))
		case store.ValStr:
			h.Write([]byte(b.Val.Str))
			h.Write([]byte{0})
		case store.ValRef:
			u64(uint64(b.Val.Ref))
		}
	}
	return h.Sum64()
}

// FingerprintOptions folds an arbitrary option tuple into a key
// component; callers list every field that can change the output.
func FingerprintOptions(fields ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", fields)
	return h.Sum64()
}

// RulePack is a named group of extra rewrite rules plugged into the
// reduction pass; package qopt packages the §4.2 query rules this way,
// and the reflective optimizer its fold-field / link-inline rules.
type RulePack struct {
	Name  string
	Rules []opt.Rule
}

// SourceFunc produces the job's input term. gen is the run's variable
// generator: decode PTML through it, or Skip past the tree's maximum ID
// when handing over an already-built tree.
type SourceFunc func(gen *tml.VarGen) (*tml.Abs, error)

// Job describes one run through the pipeline.
type Job struct {
	// Name labels the job (closure name, file name) in errors and code.
	Name string
	// Source produces the input term (parse, decode PTML, decompile).
	Source SourceFunc
	// Opt are the optimizer options for this job; Gen and OnPass are
	// managed by the pipeline, Extra is appended after Packs.
	Opt opt.Options
	// Packs are extra rule packs applied during reduction, in order.
	Packs []RulePack
	// SkipOptimize installs the source as produced (the linker's OptNone
	// level): no reduce/expand passes run.
	SkipOptimize bool
	// Codegen compiles the optimized term to TAM code.
	Codegen bool
	// RequireClosed fails codegen output that still has unresolved free
	// variables (the reflective path: rebinding must have closed the
	// term) and builds Result.Closure.
	RequireClosed bool
	// EncodeTAM and EncodePTML serialise the persistent representations.
	EncodeTAM, EncodePTML bool
	// Key, when non-zero, caches the run content-addressed and
	// deduplicates concurrent runs of the same key.
	Key Key
}

// PassStat is the instrumentation record of one pipeline pass.
type PassStat struct {
	// Name is the pass: "source", "reduce#N", "expand#N", "codegen",
	// "encode-tam", "encode-ptml".
	Name string
	// Rewrites counts rule applications (optimizer passes only).
	Rewrites int
	// Rules are the per-rule counts of this pass (optimizer passes).
	Rules map[string]int
	// NodesBefore and NodesAfter are tree node counts around the pass;
	// for codegen, NodesAfter is the number of TAM instructions; for the
	// encode passes, the encoded size in bytes.
	NodesBefore, NodesAfter int
	// Duration is the pass wall-clock time.
	Duration time.Duration
}

// Stats records one pipeline run.
type Stats struct {
	// Passes lists the executed passes in order; empty on a cache hit.
	Passes []PassStat
	// CacheHit reports that the run was served from the cache and no
	// passes executed.
	CacheHit bool
	// Total is the wall-clock time of the whole run.
	Total time.Duration
}

// Rewrites sums rule applications over all passes.
func (s *Stats) Rewrites() int {
	n := 0
	for _, p := range s.Passes {
		n += p.Rewrites
	}
	return n
}

// String renders a compact per-pass table.
func (s *Stats) String() string {
	if s.CacheHit {
		return "cache hit (0 passes)"
	}
	out := fmt.Sprintf("%d passes, %d rewrites, %s", len(s.Passes), s.Rewrites(), s.Total)
	return out
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Abs is the (optimized) term.
	Abs *tml.Abs
	// Prog is the compiled TAM program (Codegen jobs).
	Prog *machine.Program
	// Closure is the executable value (RequireClosed jobs).
	Closure *machine.TAMClosure
	// Code and PTML are the persistent encodings (Encode* jobs).
	Code, PTML []byte
	// Opt are the aggregate optimizer statistics (nil for SkipOptimize).
	Opt *opt.Stats
	// Stats is the per-pass instrumentation of this run; on a cache hit
	// it is a fresh record with CacheHit set and no passes.
	Stats *Stats
	// CacheHit reports the result was served from the cache.
	CacheHit bool
}

// Config configures a Pipeline.
type Config struct {
	// Reg is the primitive registry; nil means prim.Default.
	Reg *prim.Registry
	// CacheEntries bounds the optimized-code cache; 0 means
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int
}

// DefaultCacheEntries bounds the cache when Config.CacheEntries is 0.
const DefaultCacheEntries = 256

// CacheStats are the cache counters of a Pipeline.
type CacheStats struct {
	// Hits counts runs served from the cache.
	Hits int64
	// Misses counts runs that executed the passes.
	Misses int64
	// Shared counts runs that waited on a concurrent identical run and
	// shared its result (the singleflight path).
	Shared int64
	// Entries is the current number of cached results.
	Entries int
	// Evictions counts entries dropped for capacity or a stale epoch.
	Evictions int64
	// Errors counts runs whose passes failed; errors are never cached, so
	// they count neither as hits nor misses. tycd's STATS verb surfaces
	// this so operators can spot sessions feeding the server bad code.
	Errors int64
}

// Pipeline is a concurrent, cached compilation pipeline over one store.
// All methods are safe for concurrent use.
type Pipeline struct {
	st    *store.Store
	cfg   Config
	cache *cache
	fl    flightGroup

	hits, misses, shared, errs int64
}

// New returns a pipeline over st (nil for store-free jobs such as
// tmlopt's term optimization; store-free pipelines never cache).
func New(st *store.Store, cfg Config) *Pipeline {
	if cfg.Reg == nil {
		cfg.Reg = prim.Default
	}
	p := &Pipeline{st: st, cfg: cfg}
	if cfg.CacheEntries >= 0 && st != nil {
		n := cfg.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		p.cache = newCache(n)
	}
	return p
}

// CacheStats reports the cache counters.
func (p *Pipeline) CacheStats() CacheStats {
	cs := CacheStats{
		Hits:   atomic.LoadInt64(&p.hits),
		Misses: atomic.LoadInt64(&p.misses),
		Shared: atomic.LoadInt64(&p.shared),
		Errors: atomic.LoadInt64(&p.errs),
	}
	if p.cache != nil {
		cs.Entries = p.cache.len()
		cs.Evictions = p.cache.evictions()
	}
	return cs
}

// Run executes job through the pipeline. Jobs with a non-zero Key are
// served from the content-addressed cache when the binding epoch still
// matches, and concurrent runs of the same key execute exactly once.
func (p *Pipeline) Run(job Job) (*Result, error) {
	if job.Key.IsZero() || p.cache == nil {
		res, err := p.execute(job)
		if err != nil {
			atomic.AddInt64(&p.errs, 1)
		} else if !job.Key.IsZero() {
			atomic.AddInt64(&p.misses, 1)
		}
		return res, err
	}
	// The epoch is read before any store state, so an Update racing with
	// this run leaves the entry tagged with a stale epoch — conservative
	// invalidation, never a stale hit.
	epoch := p.st.BindingEpoch()
	if e, ok := p.cache.get(job.Key, epoch); ok {
		atomic.AddInt64(&p.hits, 1)
		return e.hit(), nil
	}
	executed := false
	e, shared, err := p.fl.do(job.Key, func() (*entry, error) {
		// Re-check: an identical flight may have completed and populated
		// the cache between our lookup and joining the group.
		if e, ok := p.cache.get(job.Key, epoch); ok {
			return e, nil
		}
		executed = true
		res, err := p.execute(job)
		if err != nil {
			atomic.AddInt64(&p.errs, 1)
			return nil, err
		}
		atomic.AddInt64(&p.misses, 1)
		ent := &entry{res: res, epoch: epoch}
		p.cache.put(job.Key, ent)
		return ent, nil
	})
	if err != nil {
		return nil, err
	}
	switch {
	case shared:
		atomic.AddInt64(&p.shared, 1)
		return e.hit(), nil
	case !executed:
		atomic.AddInt64(&p.hits, 1)
		return e.hit(), nil
	}
	return e.res, nil
}

// execute runs the passes of one job.
func (p *Pipeline) execute(job Job) (*Result, error) {
	res := &Result{Stats: &Stats{}}
	start := time.Now()
	gen := tml.NewVarGen()

	// Source pass: parse, decode PTML, or decompile.
	t0 := time.Now()
	abs, err := job.Source(gen)
	if err != nil {
		return nil, err
	}
	res.Stats.Passes = append(res.Stats.Passes, PassStat{
		Name: "source", NodesAfter: tml.Size(abs), Duration: time.Since(t0),
	})
	if err := p.checkSource(job.Name, abs); err != nil {
		return nil, err
	}

	// Optimizer passes: the reduce/expand rounds of the shared TML
	// optimizer, instrumented one pass at a time.
	optAbs := abs
	if !job.SkipOptimize {
		o := job.Opt
		if o.Reg == nil {
			o.Reg = p.cfg.Reg
		}
		o.Gen = gen
		var extra []opt.Rule
		for _, pack := range job.Packs {
			extra = append(extra, pack.Rules...)
		}
		o.Extra = append(extra, o.Extra...)
		o.OnPass = func(pi opt.PassInfo) {
			res.Stats.Passes = append(res.Stats.Passes, PassStat{
				Name:        fmt.Sprintf("%s#%d", pi.Name, pi.Round),
				Rewrites:    pi.Rewrites,
				Rules:       pi.Rules,
				NodesBefore: pi.NodesBefore,
				NodesAfter:  pi.NodesAfter,
				Duration:    pi.Duration,
			})
		}
		body, stats, err := opt.Optimize(abs.Body, o)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: %w", job.Name, err)
		}
		res.Opt = stats
		optAbs = &tml.Abs{Params: abs.Params, Body: body}
	}
	res.Abs = optAbs

	if job.Codegen {
		t0 = time.Now()
		prog, err := machine.CompileProc(optAbs, job.Name, p.cfg.Reg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: codegen: %w", job.Name, err)
		}
		res.Prog = prog
		instr := 0
		for _, b := range prog.Blocks {
			instr += len(b.Instrs)
		}
		res.Stats.Passes = append(res.Stats.Passes, PassStat{
			Name: "codegen", NodesBefore: tml.Size(optAbs), NodesAfter: instr,
			Duration: time.Since(t0),
		})
		if job.RequireClosed {
			if n := len(prog.EntryBlock().FreeNames); n != 0 {
				return nil, fmt.Errorf("pipeline: %s: %d unresolved free variables after rebinding: %v",
					job.Name, n, prog.EntryBlock().FreeNames)
			}
			res.Closure = &machine.TAMClosure{Prog: prog, Blk: prog.Entry, Name: job.Name}
		}
	}

	if job.EncodeTAM {
		t0 = time.Now()
		code, err := machine.EncodeProgram(res.Prog)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: encode TAM: %w", job.Name, err)
		}
		res.Code = code
		res.Stats.Passes = append(res.Stats.Passes, PassStat{
			Name: "encode-tam", NodesAfter: len(code), Duration: time.Since(t0),
		})
	}
	if job.EncodePTML {
		t0 = time.Now()
		data, err := ptml.Encode(optAbs)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: encode PTML: %w", job.Name, err)
		}
		res.PTML = data
		res.Stats.Passes = append(res.Stats.Passes, PassStat{
			Name: "encode-ptml", NodesAfter: len(data), Duration: time.Since(t0),
		})
	}

	res.Stats.Total = time.Since(start)
	return res, nil
}

// checkSource is the well-formedness guard on the source pass: a term
// that violates a §2.2 constraint is refused before any rewrite rule or
// the code generator sees it. The error wraps tml.ErrIllFormed, which
// marks the input, not the compiler, as at fault; the optimizer checks
// each of its own passes and reports a violation there as
// opt.ErrMiscompile.
func (p *Pipeline) checkSource(name string, abs *tml.Abs) error {
	free := tml.FreeVars(abs)
	if err := tml.Check(abs, tml.CheckOpts{Signatures: p.cfg.Reg.Signatures, AllowFree: free}); err != nil {
		return fmt.Errorf("pipeline: %s: source: %w", name, err)
	}
	return nil
}
