// Execution-kernel benchmarks: wall clock, allocations, and steps/call
// of the relational operators' hot path (select, join, exists,
// indexscan). These are the benchmarks behind bench/BENCH_exec.json —
// unlike E5–E7, which compare optimizer plans, this lane measures the
// physical execution cost of one fixed plan, so engine-level changes
// (vector kernels, frame reuse, value interning) show up here while
// steps/call stays constant.
package tycoon

import (
	"fmt"
	"testing"

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

// benchExecQuery runs a query term compiled as tycd serves it
// (compileQuery), so steps/call counts one step for entering the term.
func benchExecQuery(b *testing.B, n int, src func(store.OID) string) {
	w := getQueryWorld(b, n)
	clo := compileQuery(b, parseQuery(b, src(w.oid)))
	runQueryTerm(b, w, clo) // warm caches outside the timed region
	w.sys.ResetSteps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQueryTerm(b, w, clo)
	}
	b.ReportMetric(float64(w.sys.Steps())/float64(b.N), "steps/call")
}

// BenchmarkExec_Select measures σ_{val<50}(t): one compiled predicate
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
