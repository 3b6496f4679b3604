// Execution-kernel benchmarks: wall clock, allocations, and steps/call
// of the relational operators' hot path (select, join, exists,
// indexscan). These are the benchmarks behind bench/BENCH_exec.json —
// unlike E5–E7, which compare optimizer plans, this lane measures the
// physical execution cost of one fixed plan, so engine-level changes
// (batched kernels, frame reuse, value interning) show up here while
// steps/call stays constant.
package tycoon

import (
	"fmt"
	"testing"

	"tycoon/internal/pipeline"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

func execSelectSrc(oid store.OID) string {
	return `
(select proc(x !ce !cc)
          ([] x 1 cont(a) (< a 50 cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
}

func execJoinSrc(oid store.OID) string {
	o := tml.NewOid(uint64(oid)).String()
	return `
(join proc(x !ce !cc)
        ([] x 0 cont(a) ([] x 2 cont(b)
          (== a b cont() (cc true) cont() (cc false))))
      ` + o + ` ` + o + ` e k)`
}

func execJoinHashSrc(oid store.OID) string {
	o := tml.NewOid(uint64(oid)).String()
	return `
(join proc(x !ce !cc)
        ([] x 1 cont(a) ([] x 3 cont(b)
          (== a b cont() (cc true) cont() (cc false))))
      ` + o + ` ` + o + ` e k)`
}

func execProjectSrc(oid store.OID) string {
	return `
(project proc(x !ce !cc)
           ([] x 1 cont(a) (+ a 1 ce cont(b) (vector b cont(row) (cc row))))
         ` + tml.NewOid(uint64(oid)).String() + ` e k)`
}

func execExistsSrc(oid store.OID) string {
	// val is always < 97, so the existential scans every row.
	return `
(exists proc(x !ce !cc)
          ([] x 1 cont(a) (> a 100 cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
}

func execIndexScanSrc(oid store.OID) string {
	return `(indexscan ` + tml.NewOid(uint64(oid)).String() + ` 0 123 e k)`
}

func benchExecQuery(b *testing.B, n int, src func(store.OID) string) {
	w := getQueryWorld(b, n)
	app := parseQuery(b, src(w.oid))
	runQueryTerm(b, w, app) // warm caches outside the timed region
	w.sys.ResetSteps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQueryTerm(b, w, app)
	}
	b.ReportMetric(float64(w.sys.Steps())/float64(b.N), "steps/call")
}

// BenchmarkExec_Select measures σ_{val<50}(t): one interpreted predicate
// closure applied to every row.
func BenchmarkExec_Select(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchExecQuery(b, n, execSelectSrc)
		})
	}
}

// BenchmarkExec_Join measures the self-join t200 ⋈_{id=id} t200: 200
// result rows. The id column is sorted, so the planner serves this with
// a sort-merge join.
func BenchmarkExec_Join(b *testing.B) {
	benchExecQuery(b, 200, execJoinSrc)
}

// BenchmarkExec_JoinHash measures the same self-join keyed on the
// unsorted val column: live stats report Sorted=false, so the planner
// picks a hash join (418 result rows for n=200, val=i%97).
func BenchmarkExec_JoinHash(b *testing.B) {
	benchExecQuery(b, 200, execJoinHashSrc)
}

// BenchmarkExec_Project measures π_{val+1}(t): one computed target
// column materialized per row.
func BenchmarkExec_Project(b *testing.B) {
	benchExecQuery(b, 10000, execProjectSrc)
}

// BenchmarkExec_Exists measures a full-scan existential (the predicate
// never holds, so there is no early exit).
func BenchmarkExec_Exists(b *testing.B) {
	benchExecQuery(b, 10000, execExistsSrc)
}

// BenchmarkExec_IndexScan measures the physical index access path on a
// warm manager; the index must not be rebuilt between iterations.
func BenchmarkExec_IndexScan(b *testing.B) {
	benchExecQuery(b, 10000, execIndexScanSrc)
}

// BenchmarkExec_TAM measures the plans above as tycd serves them: the
// whole query term closed over its two continuations and compiled to TAM
// code through the pipeline, so every predicate reaches the operators as
// a *machine.TAMClosure. (Go cannot hang a sub-benchmark off a measured
// leaf, so these are Exec_TAM/<plan>, not <plan>/tam.) steps/call is
// the interpreted row of the same plan plus one: entering the compiled
// term.
func BenchmarkExec_TAM(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		src  func(store.OID) string
	}{
		{"Select", 10000, execSelectSrc},
		{"JoinHash", 200, execJoinHashSrc},
		{"Project", 10000, execProjectSrc},
		{"Exists", 10000, execExistsSrc},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := getQueryWorld(b, c.n)
			app := parseQuery(b, c.src(w.oid))
			res, err := pipeline.New(nil, pipeline.Config{}).Run(pipeline.Job{
				Name: c.name,
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
			run := func() {
				if _, err := w.sys.Machine.Apply(res.Closure, nil); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm caches outside the timed region
			w.sys.ResetSteps()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(w.sys.Steps())/float64(b.N), "steps/call")
		})
	}
}
