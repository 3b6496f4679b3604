package store

import (
	"hash/maphash"
	"sort"
)

// This file gives relations a columnar physical layout behind the existing
// row API. Rows stay the durable representation (the log format, replay,
// fsck and the MVCC horizon views are untouched); the columnar form is a
// cache derived from the immutable row prefix, built lazily on first
// use and extended incrementally as rows are appended. The declared hash
// indexes live in the same cache and cover the same prefix. Each
// column becomes one typed Go slice (plus a null bitmap), so vectorized
// kernels read machine integers out of contiguous memory instead of
// chasing boxed Val tuples — the payoff named by the CockroachDB IR RFC:
// less heap/GC pressure and faster transforms.
//
// Per-column live statistics (row count, null count, distinct-value
// estimate, min/max, sortedness) are maintained during the same
// build/extend pass and feed the cost-based planner in internal/qopt.

// ColStats are live statistics for one column over the first Rows rows.
// They are computed incrementally while the columnar cache is built and
// extended, so they always describe exactly the rows a columnar scan at
// the same horizon would read. Statistics for a shorter MVCC view horizon
// are served from the longest built prefix and are therefore upper-bound
// estimates for the view — fine for costing, never for answers.
type ColStats struct {
	Rows     int
	Nulls    int
	Distinct int // exact below distinctExact, linear-counting estimate above
	// Sorted reports the column is non-decreasing over the covered prefix
	// (typed columns without nulls only); it gates merge joins.
	Sorted bool
	// Min/Max are populated for typed columns with at least one non-null
	// value; HasMinMax gates them.
	HasMinMax bool
	MinInt    int64
	MaxInt    int64
	MinReal   float64
	MaxReal   float64
	MinStr    string
	MaxStr    string
}

// ColVec is one column of a ColBlock: a typed vector over rows [0, NRows)
// of the owning block. Exactly one of the typed slices is populated,
// according to the declared column type — unless the column holds values
// of mixed kinds, in which case Vals carries the original boxed values
// and the typed slices are nil.
//
// The null bitmap marks rows whose value is the nil Val; the typed slot
// at a null position holds the zero value. A value of the wrong kind for
// the declared type (legal in the row model) forces the whole column to
// the generic Vals layout, so reconstruction via Val() is always exact.
type ColVec struct {
	Type  ColType
	Ints  []int64
	Reals []float64
	Bools []bool
	Strs  []string
	Vals  []Val    // generic fallback; nil when the typed layout holds
	Nulls []uint64 // bit i set ⇒ row i is NilVal; nil when no nulls
	Stats ColStats
}

// IsNull reports whether row i holds the nil value.
func (v *ColVec) IsNull(i int) bool {
	w := i >> 6
	if w >= len(v.Nulls) {
		// The bitmap only reaches the last word holding a set bit.
		return false
	}
	return v.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// Val reconstructs the exact original row value at i.
func (v *ColVec) Val(i int) Val {
	if v.Vals != nil {
		return v.Vals[i]
	}
	if v.IsNull(i) {
		return Val{}
	}
	switch {
	case v.Ints != nil:
		return Val{Kind: ValInt, Int: v.Ints[i]}
	case v.Reals != nil:
		return Val{Kind: ValReal, Real: v.Reals[i]}
	case v.Bools != nil:
		return Val{Kind: ValBool, Bool: v.Bools[i]}
	case v.Strs != nil:
		return Val{Kind: ValStr, Str: v.Strs[i]}
	}
	return Val{}
}

// ColBlock is a columnar snapshot of the first NRows rows of a relation.
// The slices are immutable prefixes of the relation's growable columnar
// cache: concurrent appends extend the cache past NRows without touching
// the covered range, so a block may be scanned without locks.
type ColBlock struct {
	NRows int
	Cols  []ColVec
}

// distinctExact is the number of distinct values tracked exactly before
// the estimator falls back to linear counting.
const distinctExact = 4096

// lcBits is the linear-counting bitmap size (bits). With 1<<14 buckets
// the estimate stays within a few percent up to ~100k distinct values,
// plenty for cost-based planning.
const lcBits = 1 << 14

var colHashSeed = maphash.MakeSeed()

// colAcc accumulates one column's growable typed storage and statistics.
type colAcc struct {
	typ   ColType
	ints  []int64
	reals []float64
	bools []bool
	strs  []string
	vals  []Val // generic layout once a mixed-kind value is seen
	nulls []uint64

	stats ColStats
	// exact distinct tracking, dropped once it overflows to linear counting.
	seen map[Val]struct{}
	lc   []uint64 // linear-counting bitmap, always maintained
	lcOn int      // set bits in lc
}

func newColAcc(typ ColType) *colAcc {
	return &colAcc{
		typ:   typ,
		seen:  make(map[Val]struct{}),
		lc:    make([]uint64, lcBits/64),
		stats: ColStats{Sorted: true},
	}
}

func hashVal(v Val) uint64 {
	var h maphash.Hash
	h.SetSeed(colHashSeed)
	h.WriteByte(byte(v.Kind))
	switch v.Kind {
	case ValInt:
		u := uint64(v.Int)
		h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24), byte(u >> 32), byte(u >> 40), byte(u >> 48), byte(u >> 56)})
	case ValReal:
		u := uint64(int64(v.Real)) // cheap; collisions only soften the estimate
		h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)})
		h.WriteString(v.String())
	case ValBool:
		if v.Bool {
			h.WriteByte(1)
		} else {
			h.WriteByte(0)
		}
	case ValChar:
		h.WriteByte(v.Ch)
	case ValStr:
		h.WriteString(v.Str)
	case ValRef:
		u := uint64(v.Ref)
		h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24), byte(u >> 32), byte(u >> 40), byte(u >> 48), byte(u >> 56)})
	}
	return h.Sum64()
}

// noteDistinct feeds the distinct estimators.
func (a *colAcc) noteDistinct(v Val) {
	b := hashVal(v) & (lcBits - 1)
	if a.lc[b>>6]&(1<<(b&63)) == 0 {
		a.lc[b>>6] |= 1 << (b & 63)
		a.lcOn++
	}
	if a.seen != nil {
		a.seen[v] = struct{}{}
		if len(a.seen) > distinctExact {
			a.seen = nil // overflow: linear counting takes over
		}
	}
}

// distinct reports the current distinct-value estimate.
func (a *colAcc) distinct() int {
	if a.seen != nil {
		return len(a.seen)
	}
	// Linear counting: n ≈ -m ln(u/m) with m buckets, u unset.
	m := float64(lcBits)
	u := m - float64(a.lcOn)
	if u < 1 {
		u = 1
	}
	// ln via a few Newton steps would be overkill; the estimate only
	// steers the planner, so a 3-term series around u/m is enough when
	// occupancy is low and the exact map covers the rest. Use the
	// identity ln(m/u) = ln(1/(1-f)) with f = set fraction.
	f := float64(a.lcOn) / m
	// ln(1/(1-f)) = f + f²/2 + f³/3 + f⁴/4 (converges for f<1).
	est := f + f*f/2 + f*f*f/3 + f*f*f*f/4
	n := int(m * est)
	if n < a.lcOn {
		n = a.lcOn
	}
	return n
}

// setNull marks row i null in the accumulator's bitmap.
func (a *colAcc) setNull(i int) {
	w := i >> 6
	for len(a.nulls) <= w {
		a.nulls = append(a.nulls, 0)
	}
	a.nulls[w] |= 1 << (uint(i) & 63)
}

// toGeneric abandons the typed layout, reconstructing the boxed values
// accumulated so far. Called at most once per column.
func (a *colAcc) toGeneric(n int) {
	vals := make([]Val, n)
	for i := 0; i < n; i++ {
		switch {
		case a.nulls != nil && i>>6 < len(a.nulls) && a.nulls[i>>6]&(1<<(uint(i)&63)) != 0:
			// stays the zero Val
		case a.ints != nil:
			vals[i] = Val{Kind: ValInt, Int: a.ints[i]}
		case a.reals != nil:
			vals[i] = Val{Kind: ValReal, Real: a.reals[i]}
		case a.bools != nil:
			vals[i] = Val{Kind: ValBool, Bool: a.bools[i]}
		case a.strs != nil:
			vals[i] = Val{Kind: ValStr, Str: a.strs[i]}
		}
	}
	a.vals = vals
	a.ints, a.reals, a.bools, a.strs = nil, nil, nil, nil
}

// add appends row i's value for this column.
func (a *colAcc) add(i int, v Val) {
	st := &a.stats
	st.Rows++
	if v.Kind == ValNil {
		st.Nulls++
		st.Sorted = false
		a.setNull(i)
		if a.vals != nil {
			a.vals = append(a.vals, Val{})
		} else {
			a.pushZero()
		}
		a.noteDistinct(v)
		return
	}
	a.noteDistinct(v)
	if a.vals != nil {
		a.vals = append(a.vals, v)
		a.statsVal(v)
		return
	}
	want := ValNil
	switch a.typ {
	case ColInt:
		want = ValInt
	case ColReal:
		want = ValReal
	case ColBool:
		want = ValBool
	case ColStr:
		want = ValStr
	}
	if v.Kind != want {
		a.toGeneric(i)
		a.vals = append(a.vals, v)
		st.Sorted = false
		st.HasMinMax = false
		return
	}
	switch v.Kind {
	case ValInt:
		if st.HasMinMax {
			if v.Int < st.MinInt {
				st.MinInt = v.Int
			}
			if v.Int > st.MaxInt {
				st.MaxInt = v.Int
			}
			if n := len(a.ints); n > 0 && a.ints[n-1] > v.Int {
				st.Sorted = false
			}
		} else {
			st.HasMinMax, st.MinInt, st.MaxInt = true, v.Int, v.Int
		}
		a.ints = append(a.ints, v.Int)
	case ValReal:
		if st.HasMinMax {
			if v.Real < st.MinReal {
				st.MinReal = v.Real
			}
			if v.Real > st.MaxReal {
				st.MaxReal = v.Real
			}
			if n := len(a.reals); n > 0 && a.reals[n-1] > v.Real {
				st.Sorted = false
			}
		} else {
			st.HasMinMax, st.MinReal, st.MaxReal = true, v.Real, v.Real
		}
		a.reals = append(a.reals, v.Real)
	case ValBool:
		st.Sorted = false
		a.bools = append(a.bools, v.Bool)
	case ValStr:
		if st.HasMinMax {
			if v.Str < st.MinStr {
				st.MinStr = v.Str
			}
			if v.Str > st.MaxStr {
				st.MaxStr = v.Str
			}
			if n := len(a.strs); n > 0 && a.strs[n-1] > v.Str {
				st.Sorted = false
			}
		} else {
			st.HasMinMax, st.MinStr, st.MaxStr = true, v.Str, v.Str
		}
		a.strs = append(a.strs, v.Str)
	}
}

// statsVal updates ordering/min-max conservatively for generic columns.
func (a *colAcc) statsVal(v Val) {
	// Mixed-kind columns: no meaningful order statistics.
	a.stats.Sorted = false
	a.stats.HasMinMax = false
	_ = v
}

// pushZero appends the zero element to whichever typed slice is active,
// keeping positions aligned with row indexes for null rows.
func (a *colAcc) pushZero() {
	switch a.typ {
	case ColInt:
		a.ints = append(a.ints, 0)
	case ColReal:
		a.reals = append(a.reals, 0)
	case ColBool:
		a.bools = append(a.bools, false)
	case ColStr:
		a.strs = append(a.strs, "")
	}
}

// vec cuts an immutable ColVec prefix of n rows from the accumulator.
// Called under the cache lock; the returned slice headers are capped at
// their current length, so later in-place appends past n are invisible
// (and race-free) for holders of the prefix.
func (a *colAcc) vec(n int) ColVec {
	v := ColVec{Type: a.typ}
	if a.vals != nil {
		v.Vals = a.vals[:n:n]
	} else {
		switch a.typ {
		case ColInt:
			v.Ints = a.ints[:n:n]
		case ColReal:
			v.Reals = a.reals[:n:n]
		case ColBool:
			v.Bools = a.bools[:n:n]
		case ColStr:
			v.Strs = a.strs[:n:n]
		}
	}
	if a.nulls != nil {
		v.Nulls = a.nulls
	}
	st := a.stats
	st.Rows = n
	// A shorter horizon reads the longer prefix's counts as upper bounds.
	st.Nulls = min(st.Nulls, n)
	st.Distinct = min(a.distinct(), n)
	v.Stats = st
	return v
}

// colCache is a relation's derived cache: one accumulator per column and
// one hash index per declared index, all covering the same row prefix.
// It hangs off unexported Relation fields (colMu, cols) that clone,
// decode and relView all leave at their zero value: a fresh object
// starts cold and builds its own cache on first use, while clean MVCC
// views delegate to the live relation's cache via canon.
//
// ptrs copies the address of the first slot of every covered row. Row
// slices are immutable after publication, so pointer identity of a
// prefix's last row certifies that the cache still describes exactly
// that prefix. The pointers are copied, never aliased from a caller's
// rows, so a truncate-and-regrow that stomps a shared backing array is
// caught; holding them also pins the old rows, so the allocator cannot
// recycle their storage into a false match.
type colCache struct {
	ptrs []*Val
	accs []*colAcc
	// ixs maps an indexed column to its postings: for every value, the
	// ascending positions of the covered rows holding it. A lookup hands
	// out a capped prefix of a posting slice, so appending past it in
	// place is invisible to the holder.
	ixs map[int]map[Val][]int
}

// CacheEvent says how a relation's derived cache served a request;
// relalg's index statistics count them.
type CacheEvent uint8

// The derived-cache events.
const (
	CacheHit        CacheEvent = iota // served unchanged
	CacheHorizonHit                   // served a prefix to a shorter horizon
	CacheExtend                       // extended over appended rows
	CacheBuild                        // built cold
	CacheRebuild                      // prefix identity broke: thrown away and built again
)

// coverLocked brings r's cache to cover the caller's snapshot rows. The
// snapshot is checked once, at the last row both it and the cache cover:
// a shorter horizon is served a prefix, a longer one extends the cache,
// and a broken prefix rebuilds it. It reports false when a ragged row
// (length ≠ schema width) stops the cache short of len(rows); the cache
// then ends just before that row. Must be called with colMu held on a
// relation with a schema.
func (r *Relation) coverLocked(rows [][]Val) (*colCache, CacheEvent, bool) {
	c, ev := r.cols, CacheHit
	if c == nil {
		ev = CacheBuild
	} else if m := min(len(rows), len(c.ptrs)); m > 0 && (len(rows[m-1]) == 0 || &rows[m-1][0] != c.ptrs[m-1]) {
		ev = CacheRebuild
	}
	switch {
	case ev != CacheHit:
		c = &colCache{accs: make([]*colAcc, len(r.Schema)), ixs: make(map[int]map[Val][]int)}
		for i, col := range r.Schema {
			c.accs[i] = newColAcc(col.Type)
		}
		for _, ix := range r.Indexes {
			if ix.Column >= 0 && ix.Column < len(r.Schema) { // a decoded spec is unchecked
				c.ixs[ix.Column] = make(map[Val][]int)
			}
		}
		r.cols = c
	case len(rows) < len(c.ptrs):
		ev = CacheHorizonHit
	case len(rows) > len(c.ptrs):
		ev = CacheExtend
	}
	for i := len(c.ptrs); i < len(rows); i++ {
		row := rows[i]
		if len(row) != len(r.Schema) {
			return c, ev, false // ragged row: columnar form would misrepresent it
		}
		// Null bitmaps are shared with previously cut prefixes; appending
		// bits into an existing word would race with their readers, so
		// copy-on-write the bitmap once per extension that needs it.
		for ci, acc := range c.accs {
			if row[ci].Kind == ValNil && acc.nulls != nil && i < len(acc.nulls)<<6 {
				acc.nulls = append([]uint64(nil), acc.nulls...)
			}
			acc.add(i, row[ci])
		}
		for col, ix := range c.ixs {
			ix[row[col]] = append(ix[row[col]], i)
		}
		c.ptrs = append(c.ptrs, &row[0])
	}
	return c, ev, true
}

// Columns returns a columnar snapshot of the first nrows rows, building
// or extending the relation's derived cache as needed. It returns nil
// when the columnar form cannot serve the request exactly: a view
// carrying transaction-private rows (nrows past the committed horizon),
// a ragged row (length ≠ schema width), or nrows beyond the stored rows.
// Callers must fall back to the row path on nil.
//
// Clean MVCC views delegate to their canonical live relation, so every
// snapshot of the same relation shares one derived cache.
func (r *Relation) Columns(nrows int) *ColBlock {
	if r.canon != nil {
		if nrows <= r.canonRows {
			return r.canon.Columns(nrows)
		}
		return nil // transaction-private rows: row path only
	}
	rows := r.RowsSnapshot()
	if nrows < 0 || nrows > len(rows) {
		return nil
	}
	return r.ColumnsRows(rows[:nrows:nrows])
}

// ColumnsRows is Columns for a caller-held row snapshot: the cache is
// validated against — and built from — exactly the rows the caller will
// read, so a kernel that pairs the returned block with its own snapshot
// can never observe skew between the two, even across a concurrent
// truncate-and-regrow of the live relation.
func (r *Relation) ColumnsRows(rows [][]Val) *ColBlock {
	if r.canon != nil {
		if len(rows) <= r.canonRows {
			return r.canon.ColumnsRows(rows)
		}
		return nil // transaction-private rows: row path only
	}
	if len(r.Schema) == 0 {
		return nil
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	c, _, ok := r.coverLocked(rows)
	if !ok {
		return nil
	}
	blk := &ColBlock{NRows: len(rows), Cols: make([]ColVec, len(c.accs))}
	for i, acc := range c.accs {
		blk.Cols[i] = acc.vec(len(rows))
	}
	return blk
}

// IndexLookup returns the ascending positions of the rows in the
// caller's snapshot whose column col equals key, served from the
// declared hash index on col in the relation's derived cache, and says
// how the cache served it. ok is false when no index is declared on col
// or a ragged row keeps the cache from covering rows; the caller then
// filters sequentially. The returned slice is capped: the caller must
// not append to it.
//
// A clean MVCC view delegates to its live relation's cache, as Columns
// does; a view carrying transaction-private rows uses its own cache, so
// its uncommitted rows never reach another session's lookups.
func (r *Relation) IndexLookup(rows [][]Val, col int, key Val) (hits []int, ev CacheEvent, ok bool) {
	if r.canon != nil && len(rows) <= r.canonRows {
		return r.canon.IndexLookup(rows, col, key)
	}
	if col < 0 || col >= len(r.Schema) || !r.HasIndexOn(col) {
		return nil, CacheHit, false
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	c, ev, ok := r.coverLocked(rows)
	if !ok {
		return nil, ev, false
	}
	hits = c.ixs[col][key]
	n := sort.SearchInts(hits, len(rows))
	return hits[:n:n], ev, true
}

// ColumnStats returns the per-column live statistics for the first nrows
// rows, building the columnar cache as a side effect. nil when the
// columnar form is unavailable (see Columns).
func (r *Relation) ColumnStats(nrows int) []ColStats {
	blk := r.Columns(nrows)
	if blk == nil {
		return nil
	}
	sts := make([]ColStats, len(blk.Cols))
	for i := range blk.Cols {
		sts[i] = blk.Cols[i].Stats
	}
	return sts
}

// RelationStats resolves oid through a View and reports the per-column
// statistics of the relation at the view's horizon. This is the planner's
// entry point: the same statistics whatever the view — the store, snapshot
// or transaction — with nil when oid is not a relation or the columnar
// form is unavailable.
func RelationStats(v View, oid OID) []ColStats {
	obj, err := v.Get(oid)
	if err != nil {
		return nil
	}
	rel, ok := obj.(*Relation)
	if !ok {
		return nil
	}
	return rel.ColumnStats(rel.NumRows())
}
