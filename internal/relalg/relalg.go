// Package relalg implements the relational bulk data substrate: relation
// values, hash indexes, and the query primitive procedures (select,
// project, join, exists, empty, foreach, rinsert, indexscan, count) that
// paper §4.2 compiles embedded queries into.
//
// Query primitives follow the extension recipe of paper §2.3: they are
// registered in the compile-time registry (arity, cost, effects) by this
// package's init, and their executors are attached to a Machine by
// Register. Predicates and target expressions are ordinary TML closures;
// evaluating them re-enters the machine, which is what makes program and
// query execution — and therefore program and query *optimization* —
// mutually recursive (Fig. 4).
//
// The operators process rows in fixed-size batches (DESIGN.md §9): the
// traversal cost of a batch is charged up front with one TickN, and the
// predicate is driven through a machine.Batch, which reuses one argument
// buffer and — when the predicate compiles step-neutrally to TAM code —
// one recycled frame per call instead of re-entering the tree
// interpreter per row.
package relalg

import (
	"fmt"
	"sync"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/qopt"
	"tycoon/internal/store"
)

// batchSize is the number of rows whose traversal cost is charged as one
// TickN and processed per batch.
const batchSize = 256

// compileThreshold is the scan size above which compiling a predicate
// closure to TAM code amortises; smaller scans run interpreted.
const compileThreshold = 32

func init() {
	// Compile-time descriptors (paper §2.3: new primitives extend the
	// registry). select/project/join/exists/empty/foreach/count follow
	// the (vals… ce cc) convention; their cost estimates reflect that
	// they traverse bulk data.
	prim.Default.Register(&prim.Desc{Name: "select", NVals: 2, NConts: 2, Cost: 64, Effect: prim.Reader})
	prim.Default.Register(&prim.Desc{Name: "project", NVals: 2, NConts: 2, Cost: 64, Effect: prim.Reader})
	prim.Default.Register(&prim.Desc{Name: "join", NVals: 3, NConts: 2, Cost: 128, Effect: prim.Reader})
	prim.Default.Register(&prim.Desc{Name: "exists", NVals: 2, NConts: 2, Cost: 48, Effect: prim.Reader})
	prim.Default.Register(&prim.Desc{Name: "empty", NVals: 1, NConts: 2, Cost: 4, Effect: prim.Reader})
	prim.Default.Register(&prim.Desc{Name: "count", NVals: 1, NConts: 2, Cost: 4, Effect: prim.Reader})
	prim.Default.Register(&prim.Desc{Name: "foreach", NVals: 2, NConts: 2, Cost: 64, Effect: prim.Writer})
	prim.Default.Register(&prim.Desc{Name: "rinsert", NVals: 2, NConts: 2, Cost: 16, Effect: prim.Writer, RetainsVals: true})
	// (indexscan rel col key ce cc): introduced only by the query
	// optimizer when the runtime binding shows an index (paper §4.2).
	prim.Default.Register(&prim.Desc{Name: "indexscan", NVals: 3, NConts: 2, Cost: 8, Effect: prim.Reader})
}

// Rel is a transient relation value (query intermediate or result).
type Rel struct {
	machine.ExtValue
	Schema []store.Column
	Rows   [][]store.Val
}

// Show renders the relation briefly.
func (r *Rel) Show() string { return fmt.Sprintf("rel(%d rows)", len(r.Rows)) }

// rowSlab carves an operator's output rows out of one backing array, so
// a result of n rows costs one allocation instead of n. Every row is
// capacity-capped: an append to one row reallocates it instead of
// overwriting the next.
type rowSlab struct{ free []store.Val }

// row returns a zeroed row of width k. left counts the rows still to
// come, this one included: when the slab runs out it is refilled for all
// of them at this width, so only a row wider than its predecessors costs
// another allocation.
func (s *rowSlab) row(k, left int) []store.Val {
	if k > len(s.free) {
		s.free = make([]store.Val, k*left)
	}
	r := s.free[:k:k]
	s.free = s.free[k:]
	return r
}

// pair names one output row of a join: a left and a right row index.
type pair struct{ a, b int32 }

// joinRows materialises a join's output in pair order: the row headers
// in one exact slice, the concatenated cells in one slab.
func joinRows(out *Rel, rows1, rows2 [][]store.Val, pairs []pair) {
	var slab rowSlab
	out.Rows = make([][]store.Val, len(pairs))
	for i, p := range pairs {
		r1, r2 := rows1[p.a], rows2[p.b]
		row := slab.row(len(r1)+len(r2), len(pairs)-i)
		copy(row[copy(row, r1):], r2)
		out.Rows[i] = row
	}
}

// Manager owns the runtime index structures for persistent relations and
// provides the query executors. One Manager serves one store.
type Manager struct {
	st *store.Store
	// NoBatch disables the batched kernels: every predicate call goes
	// through machine.Apply on a fresh tuple. The step-parity tests use
	// it to prove that batching is a pure representation change.
	NoBatch bool
	// NoVector disables the vectorized kernels only, leaving batching in
	// place; the parity tests use it to isolate the two layers.
	NoVector bool
	// ForceJoin overrides the cost-based join-algorithm choice for
	// equi-joins ("hash", "merge", "nested"); the plan-equivalence
	// property tests use it to run every algorithm over one input.
	ForceJoin string

	// mu guards indexes, stats and explains (machines sharing one store
	// share the manager).
	mu sync.Mutex
	// explains holds per-machine EXPLAIN sinks; explainN mirrors its size
	// for the lock-free fast path.
	explains map[*machine.Machine]*qopt.PlanSink
	explainN int32
	// indexes caches hash indexes per relation OID and column: the
	// runtime binding knowledge the query optimizer consults. Each entry
	// remembers the relation object and row count it was built against,
	// so a reloaded relation or rows inserted behind the manager's back
	// invalidate (or extend) the cache instead of serving stale matches.
	indexes map[store.OID]map[int]*cachedIndex
	stats   IndexStats
}

type hashIndex map[store.Val][]int

// cachedIndex is one hash index together with the validity horizon it
// was built against. Once an index map has been handed to a kernel
// (shared), it is immutable: maintenance and tail extension go through a
// copy-on-write clone so concurrent scans on other sessions never
// observe a map mutation. Untouched buckets are shared between the old
// and new map; only appended buckets are copied. The clone is swapped in
// under mg.mu, after which in-place maintenance is legal again until the
// next scan marks the index shared.
type cachedIndex struct {
	rel  *store.Relation // object identity the index was built on
	rows int             // rows covered
	// builtPtrs snapshots, per covered row, the address of the row's
	// first element at build time. Row slices are immutable after
	// publication, so pointer identity of a prefix's last row certifies
	// that the cached postings still describe exactly that prefix — the
	// validity horizon the columnar MVCC views key off. The pointers are
	// copied out (never an alias of the caller's rows slice), so a
	// truncate-and-regrow that stomps a shared backing array changes the
	// observed addresses and is caught; holding the old pointers also
	// pins the old rows, so the allocator cannot recycle their storage
	// into a false match.
	builtPtrs []*store.Val
	ix        hashIndex
	shared    bool // ix escaped to a reader; mutate via COW only
}

// rowPtr is a row's identity for prefix validation.
func rowPtr(r []store.Val) *store.Val {
	if len(r) == 0 {
		return nil
	}
	return &r[0]
}

func rowPtrs(rows [][]store.Val) []*store.Val {
	ps := make([]*store.Val, len(rows))
	for i, r := range rows {
		ps[i] = rowPtr(r)
	}
	return ps
}

// prefixIntact reports that the first n rows of the caller's snapshot
// are the very rows the index was built from.
func (c *cachedIndex) prefixIntact(rows [][]store.Val, n int) bool {
	if n == 0 {
		return true
	}
	if n > len(rows) || n > len(c.builtPtrs) {
		return false
	}
	p := c.builtPtrs[n-1]
	return p != nil && len(rows[n-1]) > 0 && &rows[n-1][0] == p
}

// IndexStats counts index cache activity; the regression tests assert
// that repeated scans hit instead of rebuilding.
type IndexStats struct {
	Builds        int64 // full builds
	Extends       int64 // incremental tail extensions after appends
	Invalidations int64 // rebuilds forced by object identity or row loss
	Hits          int64 // served unchanged
	HorizonHits   int64 // served filtered to a shorter snapshot horizon
	Copies        int64 // copy-on-write clones protecting concurrent readers
}

// NewManager returns a manager over st.
func NewManager(st *store.Store) *Manager {
	return &Manager{st: st, indexes: make(map[store.OID]map[int]*cachedIndex)}
}

// IndexStats returns a snapshot of the index cache counters.
func (mg *Manager) IndexStats() IndexStats {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.stats
}

// Register attaches the query executors to a machine.
func (mg *Manager) Register(m *machine.Machine) {
	m.RegisterExec("select", mg.execSelect)
	m.RegisterExec("project", mg.execProject)
	m.RegisterExec("join", mg.execJoin)
	m.RegisterExec("exists", mg.execExists)
	m.RegisterExec("empty", mg.execEmpty)
	m.RegisterExec("count", mg.execCount)
	m.RegisterExec("foreach", mg.execForeach)
	m.RegisterExec("rinsert", mg.execInsert)
	m.RegisterExec("indexscan", mg.execIndexScan)
}

// CreateRelation allocates a persistent relation with the given schema
// and index declarations and registers it as a store root under
// "rel:<name>", the name TL rel declarations bind against.
func (mg *Manager) CreateRelation(name string, schema []store.Column, indexCols ...int) (store.OID, error) {
	rel := &store.Relation{Name: name, Schema: schema}
	for _, c := range indexCols {
		if c < 0 || c >= len(schema) {
			return store.Nil, fmt.Errorf("relalg: index column %d out of range", c)
		}
		rel.Indexes = append(rel.Indexes, store.IndexSpec{Column: c})
	}
	oid := mg.st.Alloc(rel)
	mg.st.SetRoot("rel:"+name, oid)
	return oid, nil
}

// view resolves the store a machine executes against: the machine's own
// view (a transaction or snapshot when the server wrapped the request in
// one) when set, the manager's raw store otherwise.
func (mg *Manager) view(m *machine.Machine) store.View {
	if m != nil && m.Store != nil {
		return m.Store
	}
	return mg.st
}

// InsertRow appends a row to a persistent relation, maintaining indexes.
// It writes through the raw store; rows inserted by programs running
// under a transaction go through the machine's view instead (execInsert).
func (mg *Manager) InsertRow(oid store.OID, row []store.Val) error {
	return mg.insertRow(mg.st, oid, row)
}

// insertRow appends a row through the given store view, maintaining any
// cached index built on the same relation identity. A transaction's
// localised relation view has its own identity, so indexes cached for
// the committed relation are never extended with uncommitted rows.
func (mg *Manager) insertRow(st store.View, oid store.OID, row []store.Val) error {
	obj, err := st.Get(oid)
	if err != nil {
		return err
	}
	rel, ok := obj.(*store.Relation)
	if !ok {
		return fmt.Errorf("relalg: oid 0x%x is a %s, not a relation", uint64(oid), obj.Kind())
	}
	if len(row) != len(rel.Schema) {
		return fmt.Errorf("relalg: row width %d, schema width %d", len(row), len(rel.Schema))
	}
	idx := rel.AppendRow(row)
	st.MarkDirty(oid)
	snap := rel.RowsSnapshot()
	mg.mu.Lock()
	if cols, ok := mg.indexes[oid]; ok {
		for col, c := range cols {
			// Maintain only indexes that are current for this relation
			// object AND still describe its row prefix (a truncate-and-
			// regrow to the same length must not be extended in place);
			// anything else is caught by validation on next use.
			if c.rel == rel && c.rows == idx && len(snap) > idx && c.prefixIntact(snap, idx) {
				mg.cow(c)
				c.ix[row[col]] = appendPosting(c.shared, c.ix[row[col]], idx)
				c.rows = idx + 1
				c.builtPtrs = append(c.builtPtrs, rowPtr(snap[idx]))
				c.shared = false
			}
		}
	}
	mg.mu.Unlock()
	return nil
}

// cow prepares a cached index for mutation: if its map escaped to a
// reader, replace it with a clone that shares the (immutable) buckets.
// Buckets touched afterwards must be copied, not appended in place —
// appendPosting does that while c came out of a COW clone. Must be
// called with mg.mu held.
func (mg *Manager) cow(c *cachedIndex) {
	if !c.shared {
		return
	}
	next := make(hashIndex, len(c.ix))
	for k, v := range c.ix {
		next[k] = v
	}
	c.ix = next
	mg.stats.Copies++
}

// appendPosting appends a row index to a bucket, copying the bucket
// first when it may still be shared with a published map.
func appendPosting(shared bool, bucket []int, idx int) []int {
	if shared {
		out := make([]int, len(bucket), len(bucket)+1)
		copy(out, bucket)
		bucket = out
	}
	return append(bucket, idx)
}

// index returns (building lazily, caching with validation) the hash
// index on the given column of a persistent relation, or nil when none
// is declared. rows is the caller's row snapshot; postings at or past
// the returned limit must be ignored, so the served index can never
// reach past the data the caller scans.
//
// Cache validity keys off the row-prefix identity behind
// Relation.IndexIdentity: a cached index is served unchanged when the
// caller's snapshot is exactly the prefix it was built from, served
// filtered (limit < built rows) when the caller is a snapshot view at an
// older horizon of the same prefix, extended via copy-on-write when rows
// were appended behind the manager's back, and rebuilt when the prefix
// identity broke — a reloaded relation object, or a truncate-and-regrow
// that replaced the rows (even at the same length).
func (mg *Manager) index(oid store.OID, rel *store.Relation, rows [][]store.Val, col int) (hashIndex, int) {
	if !rel.HasIndexOn(col) {
		return nil, 0
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	cols, ok := mg.indexes[oid]
	if !ok {
		cols = make(map[int]*cachedIndex)
		mg.indexes[oid] = cols
	}
	if c, ok := cols[col]; ok && c.rel == rel {
		switch {
		case len(rows) == c.rows && c.prefixIntact(rows, c.rows):
			mg.stats.Hits++
			c.shared = true
			return c.ix, c.rows
		case len(rows) < c.rows && c.prefixIntact(rows, len(rows)):
			// Snapshot view at an older horizon of the same prefix: serve
			// the cached postings filtered to the view's rows. The cache
			// itself stays at the longer (live) horizon.
			mg.stats.HorizonHits++
			c.shared = true
			return c.ix, len(rows)
		case len(rows) > c.rows && c.prefixIntact(rows, c.rows):
			wasShared := c.shared
			mg.cow(c)
			var copied map[store.Val]bool
			if wasShared {
				copied = make(map[store.Val]bool)
			}
			for i := c.rows; i < len(rows); i++ {
				key := rows[i][col]
				c.ix[key] = appendPosting(wasShared && !copied[key], c.ix[key], i)
				c.builtPtrs = append(c.builtPtrs, rowPtr(rows[i]))
				if wasShared {
					copied[key] = true
				}
			}
			c.rows = len(rows)
			c.shared = true
			mg.stats.Extends++
			return c.ix, c.rows
		}
	}
	if _, stale := cols[col]; stale {
		mg.stats.Invalidations++
	}
	ix := make(hashIndex, len(rows))
	for i, row := range rows {
		ix[row[col]] = append(ix[row[col]], i)
	}
	cols[col] = &cachedIndex{rel: rel, rows: len(rows), builtPtrs: rowPtrs(rows), ix: ix, shared: true}
	mg.stats.Builds++
	return ix, len(rows)
}

// relOf resolves a relation argument: a transient Rel or a Ref to a
// persistent relation. Persistent refs resolve through the machine's
// store view, so a program running under a transaction scans exactly its
// snapshot (plus its own appends) regardless of concurrent committers.
// The returned rel is the identity the index cache keys on: a clean
// transaction view shares the live relation's identity (and therefore
// its cached indexes); a view carrying uncommitted rows keeps its own.
func (mg *Manager) relOf(m *machine.Machine, op string, v machine.Value) (schema []store.Column, rows [][]store.Val, oid store.OID, rel *store.Relation, err error) {
	switch v := v.(type) {
	case *Rel:
		return v.Schema, v.Rows, store.Nil, nil, nil
	case machine.Ref:
		obj, gerr := mg.view(m).Get(v.OID)
		if gerr != nil {
			return nil, nil, store.Nil, nil, fmt.Errorf("relalg: %s: %w", op, gerr)
		}
		r, ok := obj.(*store.Relation)
		if !ok {
			return nil, nil, store.Nil, nil, fmt.Errorf("relalg: %s: oid 0x%x is a %s", op, uint64(v.OID), obj.Kind())
		}
		// Snapshot the row header: appends on other sessions may grow
		// the relation mid-scan, never mutate the snapshotted rows.
		rows := r.RowsSnapshot()
		return r.Schema, rows, v.OID, r.IndexIdentity(len(rows)), nil
	default:
		return nil, nil, store.Nil, nil, fmt.Errorf("relalg: %s: expected relation, got %s", op, v.Show())
	}
}

// rowValue converts a stored row to the runtime tuple the predicate
// closures receive.
func rowValue(row []store.Val) machine.Value {
	elems := make([]machine.Value, len(row))
	for i, v := range row {
		elems[i] = machine.FromStoreVal(v)
	}
	return &machine.Vector{Elems: elems}
}

// kernel drives one predicate or target closure over many rows. It wraps
// a machine.Batch (shared continuations, recycled TAM frames) and, when
// the compiled predicate provably does not retain its row tuple, reuses
// one tuple buffer for every row of the scan.
type kernel struct {
	m     *machine.Machine
	fn    machine.Value
	batch *machine.Batch
	buf   machine.Vector // reused row tuple (reuse only)
	reuse bool
	args  [1]machine.Value
}

// newKernel prepares fn for a scan of nrows rows. With NoBatch set the
// kernel degrades to one machine.Apply per row on a fresh tuple — the
// row-at-a-time semantics the parity tests compare against.
func (mg *Manager) newKernel(m *machine.Machine, fn machine.Value, nrows int) *kernel {
	k := &kernel{m: m, fn: fn}
	if mg.NoBatch {
		return k
	}
	k.batch = m.NewBatch(fn, 1, nrows >= compileThreshold)
	k.reuse = k.batch.RowSafe()
	return k
}

// served books n scanned rows to the kernel tier newKernel selects, in
// the machine's profile (the vectorized kernels book their own).
func (mg *Manager) served(m *machine.Machine, n int) {
	if mg.NoBatch {
		m.AddRowRows(n)
	} else {
		m.AddBatchRows(n)
	}
}

// call applies the kernel closure to one row.
func (k *kernel) call(row []store.Val) (machine.Value, error) {
	if k.batch == nil {
		return k.m.Apply(k.fn, []machine.Value{rowValue(row)})
	}
	if k.reuse {
		elems := k.buf.Elems[:0]
		for _, v := range row {
			elems = append(elems, machine.FromStoreVal(v))
		}
		k.buf.Elems = elems
		k.args[0] = &k.buf
	} else {
		k.args[0] = rowValue(row)
	}
	return k.batch.Call(k.args[:])
}

// callPair applies the kernel closure to the concatenation of two rows
// without materialising the concatenated store row (the join only
// materialises pairs the predicate keeps).
func (k *kernel) callPair(r1, r2 []store.Val) (machine.Value, error) {
	if k.batch == nil {
		row := append(append([]store.Val(nil), r1...), r2...)
		return k.m.Apply(k.fn, []machine.Value{rowValue(row)})
	}
	var elems []machine.Value
	if k.reuse {
		elems = k.buf.Elems[:0]
	} else {
		elems = make([]machine.Value, 0, len(r1)+len(r2))
	}
	for _, v := range r1 {
		elems = append(elems, machine.FromStoreVal(v))
	}
	for _, v := range r2 {
		elems = append(elems, machine.FromStoreVal(v))
	}
	if k.reuse {
		k.buf.Elems = elems
		k.args[0] = &k.buf
	} else {
		k.args[0] = &machine.Vector{Elems: elems}
	}
	return k.batch.Call(k.args[:])
}

// boolResult coerces a predicate result.
func boolResult(op string, v machine.Value) (bool, error) {
	b, ok := v.(machine.Bool)
	if !ok {
		return false, fmt.Errorf("relalg: %s predicate returned %s, want boolean", op, v.Show())
	}
	return bool(b), nil
}

// outEx converts a nested TML exception into an invocation of the query
// primitive's own exception continuation (exceptions raised inside
// predicates propagate to the enclosing block, paper §4.2).
func outEx(err error) (machine.Outcome, error) {
	if ex, ok := err.(*machine.Exception); ok {
		return machine.Outcome{Branch: 0, Results: []machine.Value{ex.Value}}, nil
	}
	return machine.Outcome{}, err
}

// ok1 invokes the normal continuation (position 1) with results.
func ok1(results ...machine.Value) machine.Outcome {
	return machine.Outcome{Branch: 1, Results: results}
}

// execSelect implements (select pred rel ce cc): σ_pred(rel).
func (mg *Manager) execSelect(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	pred := vals[0]
	schema, rows, _, rel, err := mg.relOf(m, "select", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	out := &Rel{Schema: schema}
	nrows := len(rows)
	w := relWidth(schema, rows)
	if ev := mg.vevalFor(pred, w, nrows); ev != nil && rowsRegular(rows, w) {
		return mg.vecSelect(m, ev, out, rows, rel)
	}
	mg.served(m, nrows)
	k := mg.newKernel(m, pred, nrows)
	for len(rows) > 0 {
		n := min(batchSize, len(rows))
		if err := m.TickN(n); err != nil {
			return machine.Outcome{}, err
		}
		for _, row := range rows[:n] {
			v, err := k.call(row)
			if err != nil {
				return outEx(err)
			}
			keep, err := boolResult("select", v)
			if err != nil {
				return machine.Outcome{}, err
			}
			if keep {
				out.Rows = append(out.Rows, row)
			}
		}
		rows = rows[n:]
	}
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "select", Algo: mg.fallbackAlgo(), Table: tableName(rel),
			InRows: int64(nrows), EstRows: -1, ActRows: int64(len(out.Rows)),
		})
	}
	return ok1(out), nil
}

// execProject implements (project fn rel ce cc): π_fn(rel). The target
// function returns the new row as a vector of scalars.
func (mg *Manager) execProject(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	fn := vals[0]
	schema, rows, _, rel, err := mg.relOf(m, "project", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	out := &Rel{Rows: make([][]store.Val, 0, len(rows))}
	nrows := len(rows)
	w := relWidth(schema, rows)
	if ev := mg.vevalFor(fn, w, nrows); ev != nil && rowsRegular(rows, w) {
		return mg.vecProject(m, ev, out, rows, rel)
	}
	mg.served(m, nrows)
	k := mg.newKernel(m, fn, nrows)
	var slab rowSlab
	for len(rows) > 0 {
		n := min(batchSize, len(rows))
		if err := m.TickN(n); err != nil {
			return machine.Outcome{}, err
		}
		for _, row := range rows[:n] {
			v, err := k.call(row)
			if err != nil {
				return outEx(err)
			}
			vec, ok := v.(*machine.Vector)
			if !ok {
				return machine.Outcome{}, fmt.Errorf("relalg: project target returned %s, want tuple", v.Show())
			}
			newRow := slab.row(len(vec.Elems), nrows-len(out.Rows))
			for i, el := range vec.Elems {
				sv, err := machine.ToStoreVal(el)
				if err != nil {
					return machine.Outcome{}, fmt.Errorf("relalg: project: %w", err)
				}
				newRow[i] = sv
			}
			out.Rows = append(out.Rows, newRow)
		}
		rows = rows[n:]
	}
	synthSchema(out)
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "project", Algo: mg.fallbackAlgo(), Table: tableName(rel),
			InRows: int64(nrows), EstRows: -1, ActRows: int64(len(out.Rows)),
		})
	}
	return ok1(out), nil
}

// synthSchema synthesises a positional schema for a computed relation;
// the front end's type checker owns the real column names.
func synthSchema(out *Rel) {
	if len(out.Rows) > 0 {
		out.Schema = make([]store.Column, len(out.Rows[0]))
		for i, v := range out.Rows[0] {
			out.Schema[i] = store.Column{Name: fmt.Sprintf("c%d", i), Type: colTypeOf(v)}
		}
	}
}

func colTypeOf(v store.Val) store.ColType {
	switch v.Kind {
	case store.ValInt:
		return store.ColInt
	case store.ValReal:
		return store.ColReal
	case store.ValBool:
		return store.ColBool
	default:
		return store.ColStr
	}
}

// execJoin implements (join pred r1 r2 ce cc): nested-loop θ-join; the
// predicate receives the concatenated row.
func (mg *Manager) execJoin(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	pred := vals[0]
	s1, rows1, _, rel1, err := mg.relOf(m, "join", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	s2, rows2, _, rel2, err := mg.relOf(m, "join", vals[2])
	if err != nil {
		return machine.Outcome{}, err
	}
	out := &Rel{Schema: append(append([]store.Column(nil), s1...), s2...)}
	pairs := len(rows1) * len(rows2)
	w1, w2 := relWidth(s1, rows1), relWidth(s2, rows2)
	if ev := mg.vevalFor(pred, w1+w2, pairs); ev != nil && rowsRegular(rows1, w1) && rowsRegular(rows2, w2) {
		return mg.vecJoin(m, ev, out, rows1, rows2, w1, rel1, rel2)
	}
	mg.served(m, len(rows1)+len(rows2))
	k := mg.newKernel(m, pred, pairs)
	var kept []pair
	for i1, r1 := range rows1 {
		for base := 0; base < len(rows2); base += batchSize {
			n := min(batchSize, len(rows2)-base)
			if err := m.TickN(n); err != nil {
				return machine.Outcome{}, err
			}
			for i2 := base; i2 < base+n; i2++ {
				v, err := k.callPair(r1, rows2[i2])
				if err != nil {
					return outEx(err)
				}
				keep, err := boolResult("join", v)
				if err != nil {
					return machine.Outcome{}, err
				}
				if keep {
					kept = append(kept, pair{int32(i1), int32(i2)})
				}
			}
		}
	}
	joinRows(out, rows1, rows2, kept)
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "join", Algo: qopt.JoinNested,
			Table:  tableName(rel1) + "," + tableName(rel2),
			InRows: int64(len(rows1)) * int64(len(rows2)), EstRows: -1, ActRows: int64(len(out.Rows)),
		})
	}
	return ok1(out), nil
}

// execExists implements (exists pred rel ce cc) with early exit; the
// exit keeps ticking per row so partial scans charge exactly the rows
// they visit.
func (mg *Manager) execExists(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	pred := vals[0]
	schema, rows, _, rel, err := mg.relOf(m, "exists", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	w := relWidth(schema, rows)
	if ev := mg.vevalFor(pred, w, len(rows)); ev != nil && rowsRegular(rows, w) {
		return mg.vecExists(m, ev, rows, rel)
	}
	k := mg.newKernel(m, pred, len(rows))
	visited := 0
	defer func() { mg.served(m, visited) }()
	for i, row := range rows {
		visited = i + 1
		if err := m.Tick(); err != nil {
			return machine.Outcome{}, err
		}
		v, err := k.call(row)
		if err != nil {
			return outEx(err)
		}
		found, err := boolResult("exists", v)
		if err != nil {
			return machine.Outcome{}, err
		}
		if found {
			if mg.explaining() {
				mg.plan(m, &qopt.PlanNode{
					Op: "exists", Algo: mg.fallbackAlgo(), Table: tableName(rel),
					InRows: int64(len(rows)), EstRows: -1, ActRows: int64(i + 1),
				})
			}
			return ok1(machine.Bool(true)), nil
		}
	}
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "exists", Algo: mg.fallbackAlgo(), Table: tableName(rel),
			InRows: int64(len(rows)), EstRows: -1, ActRows: int64(len(rows)),
		})
	}
	return ok1(machine.Bool(false)), nil
}

// execEmpty implements (empty rel ce cc): R = ∅.
func (mg *Manager) execEmpty(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	_, rows, _, _, err := mg.relOf(m, "empty", vals[0])
	if err != nil {
		return machine.Outcome{}, err
	}
	return ok1(machine.BoolValue(len(rows) == 0)), nil
}

// execCount implements (count rel ce cc).
func (mg *Manager) execCount(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	_, rows, _, _, err := mg.relOf(m, "count", vals[0])
	if err != nil {
		return machine.Outcome{}, err
	}
	return ok1(machine.IntValue(int64(len(rows)))), nil
}

// execForeach implements (foreach body rel ce cc): element-at-a-time
// iteration with side effects. The body may retain its row (it can
// insert it elsewhere), so the kernel's buffer reuse does not apply —
// newKernel still shares the batch continuations and compiled code.
func (mg *Manager) execForeach(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	body := vals[0]
	_, rows, _, _, err := mg.relOf(m, "foreach", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	mg.served(m, len(rows))
	k := mg.newKernel(m, body, len(rows))
	for len(rows) > 0 {
		n := min(batchSize, len(rows))
		if err := m.TickN(n); err != nil {
			return machine.Outcome{}, err
		}
		for _, row := range rows[:n] {
			if _, err := k.call(row); err != nil {
				return outEx(err)
			}
		}
		rows = rows[n:]
	}
	return ok1(machine.Unit{}), nil
}

// execInsert implements (rinsert rel row ce cc).
func (mg *Manager) execInsert(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	row, ok := vals[1].(*machine.Vector)
	if !ok {
		return machine.Outcome{}, fmt.Errorf("relalg: rinsert row is %s, want tuple", vals[1].Show())
	}
	stRow := make([]store.Val, len(row.Elems))
	for i, el := range row.Elems {
		sv, err := machine.ToStoreVal(el)
		if err != nil {
			return machine.Outcome{}, fmt.Errorf("relalg: rinsert: %w", err)
		}
		stRow[i] = sv
	}
	switch rel := vals[0].(type) {
	case *Rel:
		rel.Rows = append(rel.Rows, stRow)
		return ok1(machine.Unit{}), nil
	case machine.Ref:
		if err := mg.insertRow(mg.view(m), rel.OID, stRow); err != nil {
			return machine.Outcome{}, err
		}
		return ok1(machine.Unit{}), nil
	default:
		return machine.Outcome{}, fmt.Errorf("relalg: rinsert into %s", vals[0].Show())
	}
}

// execIndexScan implements (indexscan rel col key ce cc): the physical
// access path the query optimizer substitutes for a selection on an
// indexed column (paper §4.2, "knowledge about index structures").
// Without an index the scan degrades to a sequential filter, so the
// rewrite is always safe.
func (mg *Manager) execIndexScan(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	schema, rows, oid, rel, err := mg.relOf(m, "indexscan", vals[0])
	if err != nil {
		return machine.Outcome{}, err
	}
	col, ok := vals[1].(machine.Int)
	if !ok || int(col) < 0 || int(col) >= len(schema) {
		return machine.Outcome{}, fmt.Errorf("relalg: indexscan column %s", vals[1].Show())
	}
	key, err := machine.ToStoreVal(vals[2])
	if err != nil {
		return machine.Outcome{}, fmt.Errorf("relalg: indexscan key: %w", err)
	}
	out := &Rel{Schema: schema}
	if rel != nil {
		if ix, limit := mg.index(oid, rel, rows, int(col)); ix != nil {
			// Postings ascend, so a snapshot view served from a longer
			// live index stops at its own horizon.
			for _, i := range ix[key] {
				if i >= limit {
					break
				}
				if err := m.Tick(); err != nil {
					return machine.Outcome{}, err
				}
				out.Rows = append(out.Rows, rows[i])
			}
			if mg.explaining() {
				var est float64 = -1
				if sts := rel.ColumnStats(len(rows)); sts != nil && int(col) < len(sts) {
					est = qopt.EstEqMatches(&sts[col], len(rows))
				}
				mg.plan(m, &qopt.PlanNode{
					Op: "indexscan", Algo: "index", Table: tableName(rel),
					InRows: int64(len(rows)), EstRows: est, ActRows: int64(len(out.Rows)),
					Detail: fmt.Sprintf("col=%d", int(col)),
				})
			}
			return ok1(out), nil
		}
	}
	for _, row := range rows {
		if err := m.Tick(); err != nil {
			return machine.Outcome{}, err
		}
		if row[col].Eq(key) {
			out.Rows = append(out.Rows, row)
		}
	}
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "indexscan", Algo: "scan", Table: tableName(rel),
			InRows: int64(len(rows)), EstRows: -1, ActRows: int64(len(out.Rows)),
			Detail: fmt.Sprintf("col=%d", int(col)),
		})
	}
	return ok1(out), nil
}
