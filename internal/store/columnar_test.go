package store

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func intRel(n int) *Relation {
	r := &Relation{
		Name: "t",
		Schema: []Column{
			{Name: "id", Type: ColInt},
			{Name: "val", Type: ColInt},
		},
	}
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, []Val{IntVal(int64(i)), IntVal(int64(i % 7))})
	}
	return r
}

func TestColumnsTypedLayout(t *testing.T) {
	r := intRel(100)
	blk := r.Columns(100)
	if blk == nil {
		t.Fatal("Columns returned nil for a clean int relation")
	}
	if blk.NRows != 100 || len(blk.Cols) != 2 {
		t.Fatalf("block shape: %d rows, %d cols", blk.NRows, len(blk.Cols))
	}
	id := blk.Cols[0]
	if id.Ints == nil || id.Vals != nil || id.Nulls != nil {
		t.Fatalf("id column should be pure typed ints: %+v", id)
	}
	for i := 0; i < 100; i++ {
		if id.Ints[i] != int64(i) {
			t.Fatalf("id[%d] = %d", i, id.Ints[i])
		}
		if got := id.Val(i); !got.Eq(IntVal(int64(i))) {
			t.Fatalf("Val(%d) = %v", i, got)
		}
	}
	st := id.Stats
	if !st.Sorted || !st.HasMinMax || st.MinInt != 0 || st.MaxInt != 99 || st.Distinct != 100 || st.Nulls != 0 {
		t.Fatalf("id stats: %+v", st)
	}
	vst := blk.Cols[1].Stats
	if vst.Sorted || vst.Distinct != 7 || vst.MinInt != 0 || vst.MaxInt != 6 {
		t.Fatalf("val stats: %+v", vst)
	}
}

func TestColumnsExtendIncrementally(t *testing.T) {
	r := intRel(10)
	b1 := r.Columns(10)
	if b1 == nil || b1.Cols[0].Stats.Distinct != 10 {
		t.Fatalf("first cut: %+v", b1)
	}
	cache := r.cols
	for i := 10; i < 20; i++ {
		r.AppendRow([]Val{IntVal(int64(i)), IntVal(int64(i % 7))})
	}
	b2 := r.Columns(20)
	if b2 == nil || b2.NRows != 20 || len(b2.Cols[0].Ints) != 20 {
		t.Fatalf("extended cut: %+v", b2)
	}
	if b2.Cols[0].Stats.Distinct != 20 || !b2.Cols[0].Stats.Sorted {
		t.Fatalf("extended stats: %+v", b2.Cols[0].Stats)
	}
	// The earlier prefix must be untouched by the extension.
	if len(b1.Cols[0].Ints) != 10 || b1.Cols[0].Ints[9] != 9 {
		t.Fatalf("first cut mutated: %+v", b1.Cols[0].Ints)
	}
	// A shorter horizon is served from the same cache.
	b3 := r.Columns(5)
	if b3 == nil || len(b3.Cols[0].Ints) != 5 {
		t.Fatalf("short cut: %+v", b3)
	}
	if r.cols != cache || len(r.cols.ptrs) != 20 {
		t.Fatal("extension and the short cut were not served from the first cut's cache")
	}
}

// TestColumnsOlderHorizonReusesCache: after a cut at horizon N, cuts at
// N-1 and at N again are served from the same cache and the same
// accumulators; an older MVCC horizon never forces a rebuild.
func TestColumnsOlderHorizonReusesCache(t *testing.T) {
	const n = 100
	r := intRel(n)
	if r.Columns(n) == nil {
		t.Fatal("initial build failed")
	}
	cache, acc := r.cols, r.cols.accs[0]
	for round := 0; round < 3; round++ {
		for _, h := range []int{n - 1, n} {
			blk := r.Columns(h)
			if blk == nil || blk.NRows != h || len(blk.Cols[0].Ints) != h || blk.Cols[0].Ints[h-1] != int64(h-1) {
				t.Fatalf("cut at %d: %+v", h, blk)
			}
			if r.cols != cache || r.cols.accs[0] != acc {
				t.Fatalf("cut at %d rebuilt the cache", h)
			}
		}
	}
}

// TestColumnsRaggedRefusalKeepsCache: a request past a ragged row is
// refused without appending the rows before it to the accumulators, so
// a later truncate-and-regrow reads exactly its rows.
func TestColumnsRaggedRefusalKeepsCache(t *testing.T) {
	r := intRel(10)
	if r.Columns(10) == nil {
		t.Fatal("initial build failed")
	}
	r.Rows = append(r.Rows, []Val{IntVal(10), IntVal(3)}, []Val{IntVal(99)})
	for i := 0; i < 2; i++ {
		if blk := r.Columns(12); blk != nil {
			t.Fatal("ragged row must refuse the columnar form")
		}
	}
	r.Rows = r.Rows[:11]
	for i := 11; i < 15; i++ {
		r.Rows = append(r.Rows, []Val{IntVal(int64(i)), IntVal(0)})
	}
	blk := r.Columns(15)
	if blk == nil {
		t.Fatal("regrown relation should build")
	}
	for i, id := range blk.Cols[0].Ints {
		if id != int64(i) {
			t.Fatalf("ids after regrow = %v, want 0…14", blk.Cols[0].Ints)
		}
	}
}

func TestColumnsTruncationRebuild(t *testing.T) {
	r := intRel(50)
	if r.Columns(50) == nil {
		t.Fatal("initial build failed")
	}
	// Truncate and regrow with different contents (the raw-store idiom the
	// index cache also has to survive).
	r.Rows = r.Rows[:20]
	for i := 0; i < 30; i++ {
		r.Rows = append(r.Rows, []Val{IntVal(int64(1000 + i)), IntVal(0)})
	}
	blk := r.Columns(50)
	if blk == nil {
		t.Fatal("rebuild failed")
	}
	if blk.Cols[0].Ints[20] != 1000 || blk.Cols[0].Ints[49] != 1029 {
		t.Fatalf("stale columnar data after truncation: %v", blk.Cols[0].Ints[18:22])
	}
	if blk.Cols[0].Stats.Distinct != 50 {
		t.Fatalf("rebuilt stats: %+v", blk.Cols[0].Stats)
	}
}

func TestColumnsNullsAndMixed(t *testing.T) {
	r := &Relation{
		Name:   "m",
		Schema: []Column{{Name: "a", Type: ColInt}, {Name: "b", Type: ColInt}},
		Rows: [][]Val{
			{IntVal(1), IntVal(1)},
			{NilVal(), IntVal(2)},
			{IntVal(3), StrVal("x")}, // wrong kind for b: generic fallback
		},
	}
	blk := r.Columns(3)
	if blk == nil {
		t.Fatal("Columns returned nil")
	}
	a := blk.Cols[0]
	if a.Ints == nil || a.Nulls == nil {
		t.Fatalf("a should be typed with nulls: %+v", a)
	}
	if !a.IsNull(1) || a.IsNull(0) || a.IsNull(2) {
		t.Fatalf("null bitmap wrong: %+v", a.Nulls)
	}
	if got := a.Val(1); got.Kind != ValNil {
		t.Fatalf("Val(1) = %v, want nil", got)
	}
	if a.Stats.Nulls != 1 || a.Stats.Sorted {
		t.Fatalf("a stats: %+v", a.Stats)
	}
	b := blk.Cols[1]
	if b.Vals == nil || b.Ints != nil {
		t.Fatalf("b should be generic: %+v", b)
	}
	want := []Val{IntVal(1), IntVal(2), StrVal("x")}
	for i, w := range want {
		if !b.Val(i).Eq(w) {
			t.Fatalf("b.Val(%d) = %v, want %v", i, b.Val(i), w)
		}
	}
}

func TestColumnsRaggedRowFallsBack(t *testing.T) {
	r := intRel(5)
	r.Rows = append(r.Rows, []Val{IntVal(9)}) // short row
	if blk := r.Columns(6); blk != nil {
		t.Fatal("ragged rows must disable the columnar form")
	}
	// A horizon short of the ragged row is still fine.
	if blk := r.Columns(5); blk == nil {
		t.Fatal("clean prefix should build")
	}
}

func TestColumnsViewDelegation(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	r := intRel(30)
	oid := alloc(t, s, r)
	sn := s.Snapshot()
	defer sn.Release()
	// Rows appended after the snapshot must never appear in its columns.
	appendRow(t, s, oid, []Val{IntVal(999), IntVal(999)})

	obj, err := sn.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	view := obj.(*Relation)
	blk := view.Columns(view.NumRows())
	if blk == nil {
		t.Fatal("view Columns failed")
	}
	if blk.NRows != 30 || len(blk.Cols[0].Ints) != 30 {
		t.Fatalf("view horizon leaked: %d rows", blk.NRows)
	}
	// The view shares the live relation's cache (extended past its horizon
	// is fine; the prefix is what it reads).
	live := r.Columns(31)
	if live == nil || live.Cols[0].Ints[30] != 999 {
		t.Fatalf("live extension: %+v", live)
	}
	// Transaction-private rows force the row path.
	tx := s.Begin()
	defer tx.Abort()
	tobj, err := tx.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	trel := tobj.(*Relation)
	trel.Rows = append(trel.Rows, []Val{IntVal(-1), IntVal(-1)})
	tx.MarkDirty(oid)
	if blk := trel.Columns(len(trel.Rows)); blk != nil {
		t.Fatal("dirty view must not serve columns")
	}
	if blk := trel.Columns(trel.canonRows); blk == nil {
		t.Fatal("dirty view at committed horizon should delegate")
	}
}

func TestColumnsConcurrentScanExtend(t *testing.T) {
	r := intRel(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := r.NumRows()
				blk := r.Columns(n)
				if blk == nil {
					t.Error("Columns returned nil")
					return
				}
				sum := int64(0)
				for j := 0; j < blk.NRows; j++ {
					sum += blk.Cols[1].Ints[j]
				}
				_ = sum
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 64; i < 464; i++ {
			r.AppendRow([]Val{IntVal(int64(i)), IntVal(int64(i % 7))})
		}
	}()
	wg.Wait()
}

func TestRelationStatsThroughView(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	oid := alloc(t, s, intRel(40))
	sts := RelationStats(s, oid)
	if sts == nil || len(sts) != 2 {
		t.Fatalf("RelationStats: %+v", sts)
	}
	if sts[0].Rows != 40 || sts[0].Distinct != 40 || !sts[0].Sorted {
		t.Fatalf("id stats: %+v", sts[0])
	}
	tx := s.Begin()
	defer tx.Abort()
	tsts := RelationStats(tx, oid)
	if tsts == nil || tsts[0].Rows != 40 {
		t.Fatalf("txn stats: %+v", tsts)
	}
}

// TestDerivedCacheConcurrentSnapshots runs index lookups and ColumnsRows
// from snapshots and transactions cut at random horizons while another
// goroutine appends. Every answer must equal a sequential filter over
// the very rows the reader holds, and a transaction's private rows must
// never reach another reader.
func TestDerivedCacheConcurrentSnapshots(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	r := intRel(200)
	r.Indexes = []IndexSpec{{Column: 1}}
	oid := alloc(t, s, r)

	check := func(view *Relation, rows [][]Val, key Val) bool {
		var want []int
		for i, row := range rows {
			if row[1].Eq(key) {
				want = append(want, i)
			}
		}
		hits, _, ok := view.IndexLookup(rows, 1, key)
		if !ok || !slices.Equal(hits, want) {
			t.Errorf("lookup %v over %d rows: %v (ok %v), want %v", key, len(rows), hits, ok, want)
			return false
		}
		if view.canon != nil && len(rows) > view.canonRows {
			return true // private rows: row path only for columns
		}
		blk := view.ColumnsRows(rows)
		if blk == nil || blk.NRows != len(rows) {
			t.Errorf("ColumnsRows over %d rows: %+v", len(rows), blk)
			return false
		}
		for i, row := range rows {
			for c := range row {
				if !blk.Cols[c].Val(i).Eq(row[c]) {
					t.Errorf("row %d col %d: %v, want %v", i, c, blk.Cols[c].Val(i), row[c])
					return false
				}
			}
		}
		return true
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				key := IntVal(int64(rng.Intn(8) - 1)) // -1 only ever private
				if rng.Intn(4) == 0 {
					tx := s.Begin()
					obj, err := tx.Get(oid)
					if err != nil {
						t.Error(err)
						return
					}
					trel := obj.(*Relation)
					trel.AppendRow([]Val{IntVal(-1), IntVal(-1)})
					tx.MarkDirty(oid)
					ok := check(trel, trel.RowsSnapshot(), key)
					tx.Abort()
					if !ok {
						return
					}
					continue
				}
				sn := s.Snapshot()
				obj, err := sn.Get(oid)
				if err != nil {
					t.Error(err)
					sn.Release()
					return
				}
				view := obj.(*Relation)
				rows := view.RowsSnapshot()
				h := rng.Intn(len(rows) + 1)
				ok := check(view, rows[:h:h], key)
				sn.Release()
				if !ok {
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 200; i < 1000; i++ {
			tx := s.Begin()
			tx.MustGet(oid).(*Relation).AppendRow([]Val{IntVal(int64(i)), IntVal(int64(i % 7))})
			tx.MarkDirty(oid)
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
