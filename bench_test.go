package tycoon

// This file regenerates the paper's evaluation (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for recorded results):
//
//	E1  BenchmarkE1_*      local optimization of the Stanford suite
//	E2  BenchmarkE2_*      dynamic (reflective) optimization of the suite
//	E3  BenchmarkE3_*      code size with and without PTML
//	E4  BenchmarkE4_*      the §4.1 abs/optimizedAbs example
//	E5  BenchmarkE5_*      merge-select σp(σq(R)) ⇒ σq∧p(R)
//	E6  BenchmarkE6_*      trivial-exists rewrite
//	E7  BenchmarkE7_*      index selection through an inlined accessor
//	F3  BenchmarkF3_*      the Fig. 3 compile↔optimize↔execute round trip
//	F4  BenchmarkF4_*      mutual program/query optimizer invocation
//	    BenchmarkAblation_* design-choice ablations (DESIGN.md §5)
//
// Times are Go wall-clock; each benchmark additionally reports
// "steps/call" — abstract machine steps per workload call, the
// machine-independent measure the test suite asserts shapes on.

import (
	"fmt"
	"sync"
	"testing"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/opt"
	"tycoon/internal/pipeline"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/qopt"
	"tycoon/internal/reflectopt"
	"tycoon/internal/stanford"
	"tycoon/internal/store"
	"tycoon/internal/tml"
	"tycoon/internal/tyclib"
)

// suites builds each Stanford regime once per benchmark binary run.
var (
	suiteOnce sync.Once
	suiteMap  map[stanford.Regime]*stanford.Suite
	suiteErr  error
)

func getSuite(b *testing.B, r stanford.Regime) *stanford.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteMap = make(map[stanford.Regime]*stanford.Suite)
		for _, regime := range []stanford.Regime{
			stanford.RegimeNone, stanford.RegimeLocal,
			stanford.RegimeDynamic, stanford.RegimeDirect,
		} {
			s, err := stanford.NewSuite(regime)
			if err != nil {
				suiteErr = err
				return
			}
			suiteMap[regime] = s
		}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteMap[r]
}

func benchSuite(b *testing.B, regime stanford.Regime) {
	s := getSuite(b, regime)
	for _, p := range stanford.Programs() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				_, st, err := s.Run(p.Name)
				if err != nil {
					b.Fatal(err)
				}
				steps = st
			}
			b.ReportMetric(float64(steps), "steps/call")
		})
	}
}

// BenchmarkE1_StanfordNone is the unoptimized baseline of E1/E2.
func BenchmarkE1_StanfordNone(b *testing.B) { benchSuite(b, stanford.RegimeNone) }

// BenchmarkE1_StanfordLocal is the compile-time-optimized regime; the
// paper reports no significant speedup over the baseline.
func BenchmarkE1_StanfordLocal(b *testing.B) { benchSuite(b, stanford.RegimeLocal) }

// BenchmarkE2_StanfordDynamic is the reflectively optimized regime; the
// paper reports more than doubled execution speed.
func BenchmarkE2_StanfordDynamic(b *testing.B) { benchSuite(b, stanford.RegimeDynamic) }

// BenchmarkE2_StanfordDirect is the ablation upper bound (no library
// factoring at all).
func BenchmarkE2_StanfordDirect(b *testing.B) { benchSuite(b, stanford.RegimeDirect) }

// BenchmarkE3_CodeSize reports the persistent code sizes of the whole
// corpus: executable TAM bytes, PTML bytes, and their ratio (paper §6:
// the PTML encoding doubles code size, 1.2 MB vs 600 kB).
func BenchmarkE3_CodeSize(b *testing.B) {
	s := getSuite(b, stanford.RegimeLocal)
	var tam, ptmlBytes int
	for i := 0; i < b.N; i++ {
		var err error
		tam, ptmlBytes, err = s.CodeSize()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tam), "tam-bytes")
	b.ReportMetric(float64(ptmlBytes), "ptml-bytes")
	b.ReportMetric(float64(tam+ptmlBytes)/float64(tam), "total/exec")
}

// e4World installs the §4.1 complex/abs example once.
var (
	e4Once sync.Once
	e4Sys  *System
	e4Opt  Value
	e4Err  error
)

func e4Setup(b *testing.B) (*System, Value, Value) {
	b.Helper()
	e4Once.Do(func() {
		e4Sys, e4Err = Open("")
		if e4Err != nil {
			return
		}
		for _, src := range []string{
			`module complex export T, new, x, y
			 type T = Tuple x, y : Real end
			 let new(x : Real, y : Real) : T = tuple x, y end
			 let x(c : T) : Real = c.x
			 let y(c : T) : Real = c.y
			 end`,
			`module geom export abs
			 let abs(c : complex.T) : Real =
			   real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
			 end`,
		} {
			if _, e4Err = e4Sys.Install(src); e4Err != nil {
				return
			}
		}
		var res *reflectopt.Result
		oid, err := e4Sys.FunctionOID("geom", "abs")
		if err != nil {
			e4Err = err
			return
		}
		res, e4Err = e4Sys.Reflect.Optimize(oid)
		if e4Err != nil {
			return
		}
		e4Opt = res.Closure
	})
	if e4Err != nil {
		b.Fatal(e4Err)
	}
	point := &machine.Vector{Elems: []Value{Real(3), Real(4)}}
	return e4Sys, e4Opt, point
}

// BenchmarkE4_AbsOriginal runs the §4.1 abs through its module barriers.
func BenchmarkE4_AbsOriginal(b *testing.B) {
	sys, _, point := e4Setup(b)
	sys.ResetSteps()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Call("geom", "abs", point); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.Steps())/float64(b.N), "steps/call")
}

// BenchmarkE4_AbsOptimized runs reflect.optimize(abs).
func BenchmarkE4_AbsOptimized(b *testing.B) {
	sys, optAbs, point := e4Setup(b)
	sys.ResetSteps()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Machine.Apply(optAbs, []Value{point}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.Steps())/float64(b.N), "steps/call")
}

// queryWorld is the shared database for E5–E7: relation t(id, val) with
// an index on id.
type queryWorld struct {
	st  *store.Store
	sys *System
	oid store.OID
}

var (
	qwOnce sync.Once
	qwMap  map[int]*queryWorld
	qwErr  error
)

func getQueryWorld(b *testing.B, n int) *queryWorld {
	b.Helper()
	qwOnce.Do(func() { qwMap = make(map[int]*queryWorld) })
	if qwErr != nil {
		b.Fatal(qwErr)
	}
	if w, ok := qwMap[n]; ok {
		return w
	}
	sys, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	oid, err := sys.CreateRelation(fmt.Sprintf("t%d", n), []Column{
		{Name: "id", Type: ColInt},
		{Name: "val", Type: ColInt},
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sys.InsertRow(oid, IntVal(int64(i)), IntVal(int64(i%97))); err != nil {
			b.Fatal(err)
		}
	}
	w := &queryWorld{st: sys.Store, sys: sys, oid: oid}
	qwMap[n] = w
	return w
}

// parseQuery parses a query term with free e/k continuations.
func parseQuery(b *testing.B, src string) *tml.App {
	b.Helper()
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// compileQuery compiles a query term the way tycd compiles a SUBMIT: the
// term closed over its two continuations and compiled to TAM code through
// the pipeline (unoptimized), so every predicate reaches the operators as
// a *machine.TAMClosure. Entering the compiled term costs one step.
func compileQuery(b *testing.B, app *tml.App) *machine.TAMClosure {
	b.Helper()
	res, err := pipeline.New(nil, pipeline.Config{}).Run(pipeline.Job{
		Name: b.Name(),
		Source: func(*tml.VarGen) (*tml.Abs, error) {
			var e, k *tml.Var
			for _, v := range tml.FreeVars(app) {
				v.Cont = true
				if v.Name == "k" {
					k = v
				} else {
					e = v
				}
			}
			return &tml.Abs{Params: []*tml.Var{e, k}, Body: app}, nil
		},
		SkipOptimize: true, Codegen: true, RequireClosed: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Closure
}

func runQueryTerm(b *testing.B, w *queryWorld, clo *machine.TAMClosure) Value {
	b.Helper()
	res, err := w.sys.Machine.Apply(clo, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func mergeSelectSrc(oid store.OID) string {
	return `
(select proc(x1 !ce1 !cc1)
          ([] x1 1 cont(a) (< a 50 cont() (cc1 true) cont() (cc1 false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e
        cont(t) (select proc(x2 !ce2 !cc2)
                   ([] x2 1 cont(v) (> v 10 cont() (cc2 true) cont() (cc2 false)))
                 t e k))`
}

func benchQuery(b *testing.B, n int, src func(store.OID) string, rules func(*store.Store) []opt.Rule) {
	w := getQueryWorld(b, n)
	app := parseQuery(b, src(w.oid))
	if rules != nil {
		optApp, _, err := opt.Optimize(app, opt.Options{Extra: rules(w.st)})
		if err != nil {
			b.Fatal(err)
		}
		app = optApp
	}
	clo := compileQuery(b, app)
	// One untimed run does the one-time work — the index build, the
	// predicate's decompile into a vprog — so every row measures a warm
	// query.
	runQueryTerm(b, w, clo)
	w.sys.ResetSteps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQueryTerm(b, w, clo)
	}
	b.ReportMetric(float64(w.sys.Steps())/float64(b.N), "steps/call")
}

// BenchmarkE5_MergeSelect compares σp(σq(R)) before and after the
// merge-select rewrite at three relation sizes.
func BenchmarkE5_MergeSelect(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d/naive", n), func(b *testing.B) {
			benchQuery(b, n, mergeSelectSrc, nil)
		})
		b.Run(fmt.Sprintf("n=%d/merged", n), func(b *testing.B) {
			benchQuery(b, n, mergeSelectSrc, func(*store.Store) []opt.Rule { return qopt.StaticRules() })
		})
	}
}

func trivialExistsSrc(oid store.OID) string {
	return `
(exists proc(x !ce !cc) (== 1 2 cont() (cc true) cont() (cc false))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
}

// BenchmarkE6_TrivialExists compares a row-independent existential before
// and after the trivial-exists rewrite.
func BenchmarkE6_TrivialExists(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d/naive", n), func(b *testing.B) {
			benchQuery(b, n, trivialExistsSrc, nil)
		})
		b.Run(fmt.Sprintf("n=%d/rewritten", n), func(b *testing.B) {
			benchQuery(b, n, trivialExistsSrc, func(*store.Store) []opt.Rule { return qopt.StaticRules() })
		})
	}
}

func indexSelectSrc(oid store.OID) string {
	return `
(select proc(x !ce !cc)
          ([] x 0 cont(t) (== t 123 cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
}

// BenchmarkE7_IndexSelection compares the sequential-scan plan with the
// index-scan plan the runtime rule substitutes; the gap grows with n
// (the paper's point that query optimization needs runtime bindings).
func BenchmarkE7_IndexSelection(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d/scan", n), func(b *testing.B) {
			benchQuery(b, n, indexSelectSrc, nil)
		})
		b.Run(fmt.Sprintf("n=%d/indexed", n), func(b *testing.B) {
			benchQuery(b, n, indexSelectSrc, qopt.RuntimeRules)
		})
	}
}

// BenchmarkF3_RoundTrip measures one full Fig. 3 cycle: PTML → TML →
// re-establish bindings → optimize across barriers → generate TAM code.
func BenchmarkF3_RoundTrip(b *testing.B) {
	sys, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module m export f
	  let f(n : Int) : Int = begin var s := 0; for i = 1 upto n do s := s + i * i end; s end
	  end`); err != nil {
		b.Fatal(err)
	}
	oid, err := sys.FunctionOID("m", "f")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Reflect.Optimize(oid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4_MutualOptimize measures the interleaved program+query
// optimization of Fig. 4: inlining exposes the predicate, the query
// rules rewrite the plan, reduction cleans up — all in one optimizer run.
func BenchmarkF4_MutualOptimize(b *testing.B) {
	w := getQueryWorld(b, 1000)
	sys := w.sys
	// The benchmark function runs several times during calibration; the
	// module installs once into the shared world.
	if _, installed := sys.Module("f4"); !installed {
		if _, err := sys.Install(`module f4 export q
		  rel t1000 : Rel(id : Int, val : Int)
		  let key(e : Tuple id, val : Int end) : Int = e.id
		  let q(k : Int) : Int = count(select e from e in t1000 where key(e) = k end)
		  end`); err != nil {
			b.Fatal(err)
		}
	}
	oid, err := sys.FunctionOID("f4", "q")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rewrites int
	for i := 0; i < b.N; i++ {
		res, err := sys.Reflect.Optimize(oid)
		if err != nil {
			b.Fatal(err)
		}
		rewrites = res.Stats.Rules["index-scan"]
	}
	if rewrites == 0 {
		b.Fatal("index-scan rewrite did not fire")
	}
}

// BenchmarkE8_Reconstruction compares the two routes back to TML: PTML
// decode vs decompiling the executable code (paper §6 future work).
func BenchmarkE8_Reconstruction(b *testing.B) {
	sys, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module m export f
	  let f(n : Int) : Int = begin var s := 0; for i = 1 upto n do s := s + i * i end; s end
	  end`); err != nil {
		b.Fatal(err)
	}
	oid, err := sys.FunctionOID("m", "f")
	if err != nil {
		b.Fatal(err)
	}
	fromPTML := reflectopt.New(sys.Store, pipeline.New(sys.Store, pipeline.Config{}), reflectopt.Options{})
	fromCode := reflectopt.New(sys.Store, pipeline.New(sys.Store, pipeline.Config{}), reflectopt.Options{FromCode: true})
	b.Run("via-ptml", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fromPTML.Optimize(oid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-decompile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fromCode.Optimize(oid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SubstOnce compares the paper's restricted subst rule
// (abstractions only when referenced once) with unrestricted substitution
// — DESIGN.md ablation 2.
func BenchmarkAblation_SubstOnce(b *testing.B) {
	src := `(cont(f) (f 1 e cont(a) (f a e cont(b) (f b e k)))
	          cont(x !e2 !k2) (+ x 1 e2 k2))`
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("restricted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := opt.Optimize(app, opt.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unrestricted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := opt.Optimize(app, opt.Options{SubstUnrestricted: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Penalty compares the penalty-bounded expansion loop
// with a single round — DESIGN.md ablation 3 — on a fully unrollable
// constant loop.
func BenchmarkAblation_Penalty(b *testing.B) {
	src := `(Y proc(!c0 !loop !c)
	          (c cont() (loop 1 0)
	             cont(i acc)
	               (> i 6
	                  cont() (k acc)
	                  cont() (+ acc i e cont(a2)
	                           (+ i 1 e cont(i2) (loop i2 a2))))))`
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("penalty-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := opt.Optimize(app, opt.Options{MaxRounds: 12}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-round", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := opt.Optimize(app, opt.Options{MaxRounds: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_LibraryFactoring reports the cost of the paper's
// compilation strategy itself: the same program compiled through the
// dynamically bound libraries (none regime) vs straight to primitives
// (direct regime) — DESIGN.md ablation 4.
func BenchmarkAblation_LibraryFactoring(b *testing.B) {
	none := getSuite(b, stanford.RegimeNone)
	direct := getSuite(b, stanford.RegimeDirect)
	b.Run("lib-calls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := none.Run("sieve"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-prims", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := direct.Run("sieve"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ptmlDecode(data []byte) (tml.Node, []*tml.Var, error) { return ptml.Decode(data, nil) }
func ptmlEncode(n tml.Node) ([]byte, error)                { return ptml.Encode(n) }

// BenchmarkSubstrate_PTMLCodec measures the persistent code
// representation itself: encode and decode of a mid-sized function.
func BenchmarkSubstrate_PTMLCodec(b *testing.B) {
	sys, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module m export f
	  let f(n : Int) : Int = begin var s := 0; for i = 1 upto n do s := s + i * i end; s end
	  end`); err != nil {
		b.Fatal(err)
	}
	oid, err := sys.FunctionOID("m", "f")
	if err != nil {
		b.Fatal(err)
	}
	clo := sys.Store.MustGet(oid).(*store.Closure)
	blob := sys.Store.MustGet(clo.PTML).(*store.Blob)
	node, _, err := ptmlDecode(blob.Bytes)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ptmlDecode(blob.Bytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ptmlEncode(node); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(len(blob.Bytes)), "bytes")
}

// BenchmarkSubstrate_StoreCommit measures the log-structured store.
func BenchmarkSubstrate_StoreCommit(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(dir + "/bench.tyst")
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := st.Begin()
		tx.Alloc(&store.Tuple{Fields: []store.Val{store.IntVal(int64(i))}})
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteOverhead_Linker measures compile+install of the standard
// library plus a module (the static half of Fig. 3).
func BenchmarkSuiteOverhead_Linker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := store.Open("")
		if err != nil {
			b.Fatal(err)
		}
		tx := st.Begin()
		if _, err := tyclib.Install(machine.New(tx), tx, linker.New(linker.Config{LocalOpt: true})); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
}
