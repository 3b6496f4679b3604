package relalg

import (
	"slices"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/qopt"
	"tycoon/internal/store"
)

// TestIndexCacheReuse is the regression test for the index rebuild bug:
// a second index scan over an unchanged relation must serve the cached
// index, an insert must extend it in place, and an identity change must
// rebuild it exactly once.
func TestIndexCacheReuse(t *testing.T) {
	st, mg, m, oid := world(t, 200)
	scan := "(indexscan " + oidStr(oid) + " 0 123 e k)"

	if _, err := run(t, m, scan); err != nil {
		t.Fatal(err)
	}
	s := mg.IndexStats()
	if s.Builds != 1 || s.Hits != 0 {
		t.Fatalf("first scan: %+v, want exactly one build", s)
	}

	// Second scan over the unchanged relation: cache hit, no rebuild.
	if _, err := run(t, m, scan); err != nil {
		t.Fatal(err)
	}
	s = mg.IndexStats()
	if s.Builds != 1 {
		t.Errorf("second scan rebuilt the index: %+v", s)
	}
	if s.Hits != 1 {
		t.Errorf("second scan missed the cache: %+v", s)
	}

	// Insert through the manager: the next scan extends the index over
	// the new row instead of rebuilding it.
	if err := insertRow(st, oid, []store.Val{store.IntVal(123), store.IntVal(7)}); err != nil {
		t.Fatal(err)
	}
	v, err := run(t, m, scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 2 {
		t.Fatalf("scan after insert matched %d rows, want 2", got)
	}
	s = mg.IndexStats()
	if s.Builds != 1 {
		t.Errorf("scan after manager insert rebuilt: %+v", s)
	}

	// Rows appended behind the manager's back extend the index tail
	// instead of rebuilding it.
	rel := st.MustGet(oid).(*store.Relation)
	rel.Rows = append(rel.Rows, []store.Val{store.IntVal(123), store.IntVal(8)})
	v, err = run(t, m, scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 3 {
		t.Fatalf("scan after raw append matched %d rows, want 3", got)
	}
	s = mg.IndexStats()
	if s.Builds != 1 || s.Extends != 2 {
		t.Errorf("raw append should extend, not rebuild: %+v", s)
	}

	// Truncation: the surviving rows are a pointer-identical prefix of
	// what the index was built over, so the scan serves the cached index
	// bounded to the shorter horizon — no rebuild, no invalidation.
	rel.Rows = rel.Rows[:100]
	v, err = run(t, m, scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 0 {
		t.Fatalf("scan after truncating away id=123 matched %d rows, want 0", got)
	}
	s = mg.IndexStats()
	if s.Builds != 1 || s.Invalidations != 0 || s.HorizonHits != 1 {
		t.Errorf("truncation should serve a horizon-bounded hit: %+v", s)
	}

	// Regrowing with different content at the same length must NOT serve
	// the stale full-length index: prefix identity fails, one rebuild.
	for len(rel.Rows) < 203 {
		rel.Rows = append(rel.Rows, []store.Val{store.IntVal(123), store.IntVal(9)})
	}
	v, err = run(t, m, scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 103 {
		t.Fatalf("scan over regrown rows matched %d rows, want 103", got)
	}
	s = mg.IndexStats()
	if s.Builds != 2 || s.Invalidations != 1 {
		t.Errorf("regrowth with new content should rebuild exactly once: %+v", s)
	}
	if _, err := run(t, m, scan); err != nil {
		t.Fatal(err)
	}
	if got := mg.IndexStats(); got.Builds != 2 {
		t.Errorf("scan after rebuild rebuilt again: %+v", got)
	}
}

// TestIndexSnapshotHorizon is the regression test for the index cache's
// interplay with MVCC snapshot views: a snapshot holding a shorter
// prefix of the relation must never see postings past its horizon, and
// serving it must not thrash (invalidate or rebuild) the cache that the
// latest version keeps hitting.
func TestIndexSnapshotHorizon(t *testing.T) {
	st, mg, m, oid := world(t, 200)
	scan := "(indexscan " + oidStr(oid) + " 0 123 e k)"
	if _, err := run(t, m, scan); err != nil {
		t.Fatal(err)
	}
	rel := st.MustGet(oid).(*store.Relation)
	full := rel.Rows

	// A "snapshot" of the first 150 rows (what an MVCC view with an older
	// horizon exposes): shares backing arrays with the full relation.
	rel.Rows = full[:150:150]
	v, err := run(t, m, scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 1 {
		t.Fatalf("snapshot scan matched %d rows, want 1", got)
	}
	s := mg.IndexStats()
	if s.Builds != 1 || s.Invalidations != 0 || s.HorizonHits != 1 {
		t.Errorf("snapshot scan should serve the shared index bounded to its horizon: %+v", s)
	}

	// Tighten the horizon past the only id=123 posting: zero matches.
	rel.Rows = full[:100:100]
	v, err = run(t, m, scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 0 {
		t.Fatalf("pre-posting snapshot matched %d rows, want 0", got)
	}

	// Back at the latest version the cache is still intact: a plain hit.
	rel.Rows = full
	if _, err := run(t, m, scan); err != nil {
		t.Fatal(err)
	}
	s = mg.IndexStats()
	if s.Builds != 1 || s.Invalidations != 0 {
		t.Errorf("alternating horizons thrashed the cache: %+v", s)
	}
	if s.HorizonHits != 2 {
		t.Errorf("HorizonHits = %d, want 2: %+v", s.HorizonHits, s)
	}

	// Maintenance on insert must not extend an index whose prefix no
	// longer matches the live rows: replace the backing wholesale, then
	// insert through the manager — the next scan must rebuild, not trust
	// a Frankenstein of stale prefix plus fresh posting.
	fresh := make([][]store.Val, len(full))
	for i := range full {
		fresh[i] = []store.Val{store.IntVal(int64(i)), store.IntVal(0)}
	}
	rel.Rows = fresh
	if err := insertRow(st, oid, []store.Val{store.IntVal(123), store.IntVal(7)}); err != nil {
		t.Fatal(err)
	}
	v, err = run(t, m, scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 2 {
		t.Fatalf("post-swap scan matched %d rows, want 2", got)
	}
	if s = mg.IndexStats(); s.Builds != 2 {
		t.Errorf("swapped backing rows should force a rebuild: %+v", s)
	}
}

// parityQueries are the operator shapes the step-parity guard runs both
// on the vector kernels and row-at-a-time.
func parityQueries(oid store.OID) map[string]string {
	o := oidStr(oid)
	return map[string]string{
		"select": `(select proc(x !ce !cc)
			([] x 1 cont(a) (< a 5 cont()(cc true) cont()(cc false))) ` + o + ` e k)`,
		"project": `(project proc(x !ce !cc)
			([] x 0 cont(a) (+ a 100 ce cont(b) (vector b cont(row) (cc row))))
			` + o + ` e k)`,
		"join": `(join proc(x !ce !cc)
			([] x 0 cont(a) ([] x 2 cont(b) (== a b cont()(cc true) cont()(cc false))))
			` + o + ` ` + o + ` e k)`,
		"exists": `(exists proc(x !ce !cc)
			([] x 1 cont(a) (> a 100 cont()(cc true) cont()(cc false))) ` + o + ` e k)`,
		"foreach": `(foreach proc(x !ce !cc) (cc ok) ` + o + ` e k)`,
	}
}

// TestBatchStepParity proves that vectorized execution is a pure
// representation change: for every operator and both predicate
// sources the abstract step count and the result are identical whether
// predicates run on the fast kernels or through one machine.Apply per
// row. A compiled predicate over 300 rows must be served by the vector
// kernels — what tycd runs — and leave the row-at-a-time path to foreach.
func TestBatchStepParity(t *testing.T) {
	type outcome struct {
		steps int64
		show  string
	}
	for _, source := range sources {
		measure := func(noVector bool) map[string]outcome {
			_, mg, m, oid := world(t, 300)
			mg.NoVector = noVector
			out := make(map[string]outcome)
			for name, src := range parityQueries(oid) {
				m.ResetProfile()
				v, err := source.run(t, m, src)
				if err != nil {
					t.Fatalf("%s %s (noVector=%v): %v", source.name, name, noVector, err)
				}
				out[name] = outcome{steps: m.Steps(), show: v.Show()}
				p := m.Profile()
				if vec := !noVector && name != "foreach"; vec != (p.VecRows > 0) || vec == (p.RowRows > 0) {
					t.Errorf("%s %s (noVector=%v): tier split %+v", source.name, name, noVector, p)
				}
			}
			return out
		}
		vectorized, rowAtATime := measure(false), measure(true)
		for name, v := range vectorized {
			r := rowAtATime[name]
			if v.steps != r.steps {
				t.Errorf("%s %s: vectorized %d steps, row-at-a-time %d steps", source.name, name, v.steps, r.steps)
			}
			if v.show != r.show {
				t.Errorf("%s %s: results differ: %s vs %s", source.name, name, v.show, r.show)
			}
		}
	}
}

// TestBatchStepParityOnException checks the parity holds on the
// exceptional path too: a predicate that raises mid-scan aborts every
// execution mode at the same abstract step with the same exception
// value, whichever form the predicate arrives in.
func TestBatchStepParityOnException(t *testing.T) {
	srcs := map[string]func(store.OID) string{
		"raise": func(oid store.OID) string {
			return `(select proc(x !ce !cc)
			([] x 0 cont(a) (== a 150 cont()(ce "boom") cont()(cc true)))
			` + oidStr(oid) + ` e k)`
		},
		"arith-fault": func(oid store.OID) string {
			return `(project proc(x !ce !cc)
			([] x 0 cont(a) (- 150 a ce cont(d) (/ 1 d ce cont(q) (vector q cont(row) (cc row)))))
			` + oidStr(oid) + ` e k)`
		},
	}
	for name, src := range srcs {
		for _, source := range sources {
			abort := func(noVector bool) (int64, string) {
				_, mg, m, oid := world(t, 300)
				mg.NoVector = noVector
				m.ResetSteps()
				_, err := source.run(t, m, src(oid))
				if err == nil {
					t.Fatalf("%s %s noVector=%v: expected unhandled exception", name, source.name, noVector)
				}
				return m.Steps(), err.Error()
			}
			vSteps, vErr := abort(false)
			rSteps, rErr := abort(true)
			if vSteps != rSteps || vErr != rErr {
				t.Errorf("%s %s: vectorized %d steps %q, row-at-a-time %d steps %q",
					name, source.name, vSteps, vErr, rSteps, rErr)
			}
		}
	}
}

// allocsPerQuery reports heap allocations per full execution of clo on a
// warm machine (indexes built, kernel preparation exercised once).
func allocsPerQuery(t *testing.T, m *machine.Machine, clo *machine.TAMClosure) float64 {
	t.Helper()
	if _, err := m.Apply(clo, nil); err != nil { // warm caches
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := m.Apply(clo, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSelectAllocBudget pins the allocation budget of the select hot
// path: scanning 256 rows of interned scalars must cost well under one
// allocation per row (the pre-batching executor cost ~18 per row).
func TestSelectAllocBudget(t *testing.T) {
	_, _, m, oid := world(t, 256)
	clo := compileTerm(t, `(select proc(x !ce !cc)
		([] x 1 cont(a) (< a 5 cont()(cc true) cont()(cc false)))
		`+oidStr(oid)+` e k)`)
	if got := allocsPerQuery(t, m, clo); got > 100 {
		t.Errorf("select over 256 rows: %.0f allocs, budget 100", got)
	}
}

// TestJoinAllocBudget pins the join hot path: a 64×64 nested-loop join
// (4096 predicate evaluations) must stay under a small constant budget —
// the vector kernel builds no tuple per pair, and only kept pairs
// materialise.
func TestJoinAllocBudget(t *testing.T) {
	_, _, m, oid := world(t, 64)
	o := oidStr(oid)
	clo := compileTerm(t, `(join proc(x !ce !cc)
		([] x 0 cont(a) ([] x 2 cont(b) (== a b cont()(cc true) cont()(cc false))))
		`+o+` `+o+` e k)`)
	if got := allocsPerQuery(t, m, clo); got > 256 {
		t.Errorf("join 64x64: %.0f allocs, budget 256", got)
	}
}

// checkRowsCapped asserts the slab discipline on an operator's output:
// every row is capacity-capped, so appending to row i reallocates it and
// leaves row i+1 untouched.
func checkRowsCapped(t *testing.T, what string, rows [][]store.Val) {
	t.Helper()
	if len(rows) < 2 {
		t.Fatalf("%s: %d rows, too few to check aliasing", what, len(rows))
	}
	for i, row := range rows {
		if cap(row) != len(row) {
			t.Fatalf("%s: row %d has len %d cap %d", what, i, len(row), cap(row))
		}
		if i+1 < len(rows) {
			next := append([]store.Val(nil), rows[i+1]...)
			_ = append(row, store.StrVal("clobber"))
			if !slices.Equal(rows[i+1], next) {
				t.Fatalf("%s: appending to row %d changed row %d", what, i, i+1)
			}
		}
	}
}

// TestResultRowsCapped runs every operator that builds rows — project on
// the fused, general and row-at-a-time paths, join through each algorithm
// on the vector kernels and on the row-at-a-time path — and checks the
// rows they carve out of one slab cannot alias.
func TestResultRowsCapped(t *testing.T) {
	project := func(target string) func(store.OID) string {
		return func(oid store.OID) string {
			return `(project proc(x !ce !cc) ` + target + ` ` + oidStr(oid) + ` e k)`
		}
	}
	join := func(oid store.OID) string { return parityQueries(oid)["join"] }
	pair := project(`([] x 0 cont(a) (vector a a cont(row) (cc row)))`)
	type rowCase struct {
		name  string
		set   func(mg *Manager)
		query func(store.OID) string
	}
	cases := []rowCase{
		{"project/fused", func(*Manager) {}, project(`([] x 0 cont(a) (+ a 1 ce cont(b) (vector b a cont(row) (cc row))))`)},
		{"project/general", func(*Manager) {}, project(`([] x 1 cont(a) (< a 4
			cont() (vector a cont(row) (cc row)) cont() (vector 0 a cont(row) (cc row))))`)},
		{"project/oracle", func(mg *Manager) { mg.NoVector = true }, pair},
		{"join/oracle", func(mg *Manager) { mg.NoVector = true }, join},
	}
	for _, algo := range []string{qopt.JoinHash, qopt.JoinMerge, qopt.JoinNested} {
		cases = append(cases, rowCase{"join/" + algo, func(mg *Manager) { mg.ForceJoin = algo }, join})
	}
	for _, c := range cases {
		for _, source := range sources {
			_, mg, m, oid := world(t, 300)
			c.set(mg)
			v, err := source.run(t, m, c.query(oid))
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, source.name, err)
			}
			checkRowsCapped(t, c.name+" "+source.name, v.(*Rel).Rows)
		}
	}
}

// TestProjectAllocBudget pins the slab: a TAM-compiled projection over
// 10k rows — what tycd serves — costs a constant number of allocations,
// not one per row.
func TestProjectAllocBudget(t *testing.T) {
	_, _, m, oid := world(t, 10000)
	clo := compileQuery(t, `(project proc(x !ce !cc)
		([] x 1 cont(a) (+ a 1 ce cont(b) (vector b cont(row) (cc row)))) `+oidStr(oid)+` e k)`)
	run := func() {
		v, err := m.Apply(clo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(v.(*Rel).Rows); n != 10000 {
			t.Fatalf("%d rows", n)
		}
	}
	run() // warm the columnar cache and the block's vprog
	if got := testing.AllocsPerRun(10, run); got > 64 {
		t.Errorf("project over 10k rows: %.0f allocs, budget 64", got)
	}
}
