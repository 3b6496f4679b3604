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
// Each operator either vectorizes its predicate (vector.go, DESIGN.md
// §14) or applies it one row at a time through machine.Apply, on a fresh
// tuple per row (DESIGN.md §9). The row-at-a-time path is the one
// fallback and the oracle the vector kernels are checked against; it
// charges traversal in fixed-size batches, one TickN per batch.
package relalg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/qopt"
	"tycoon/internal/store"
)

// batchSize is the number of rows whose traversal cost is charged as one
// TickN and processed per batch.
const batchSize = 256

// compileThreshold is the scan size above which decompiling a predicate's
// TAM code into the vector fragment amortises; smaller scans run row at
// a time.
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
	prim.Default.Register(&prim.Desc{Name: "rinsert", NVals: 2, NConts: 2, Cost: 16, Effect: prim.Writer})
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

// Manager provides the query executors over one store. It holds no
// per-relation state: the runtime index structures live in each
// relation's derived cache (store.Relation.IndexLookup), next to its
// columns, and die with the relation.
type Manager struct {
	st store.View
	// NoVector disables the vectorized kernels: every predicate runs row
	// at a time on a fresh tuple. It is the oracle the step-parity and
	// plan-equivalence tests compare the vector kernels against.
	NoVector bool
	// ForceJoin overrides the cost-based join-algorithm choice for
	// equi-joins ("hash", "merge", "nested"); the plan-equivalence
	// property tests use it to run every algorithm over one input. Merge
	// runs only on sorted integer keys; a forced merge on any other input
	// runs hash.
	ForceJoin string

	// mu guards explains (machines sharing one store share the manager).
	mu sync.Mutex
	// explains holds per-machine EXPLAIN sinks; explainN mirrors its size
	// for the lock-free fast path.
	explains map[*machine.Machine]*qopt.PlanSink
	explainN int32
	// ixEvents counts how the derived caches served this manager's index
	// lookups, one counter per store.CacheEvent.
	ixEvents [store.CacheRebuild + 1]atomic.Int64
}

// IndexStats counts index cache activity; the regression tests assert
// that repeated scans hit instead of rebuilding.
type IndexStats struct {
	Builds        int64 // full builds
	Extends       int64 // incremental tail extensions after appends
	Invalidations int64 // rebuilds forced by a broken row prefix
	Hits          int64 // served unchanged
	HorizonHits   int64 // served filtered to a shorter snapshot horizon
	// Copies is always 0: indexes are extended in place and lookups hand
	// out capped posting prefixes, so no reader ever needs a copy. The
	// field stays for readers of the wire stats.
	Copies int64
}

// NewManager returns a manager whose executors read through st when the
// machine they run on has no store of its own.
func NewManager(st store.View) *Manager {
	return &Manager{st: st}
}

// IndexStats returns a snapshot of the index cache counters.
func (mg *Manager) IndexStats() IndexStats {
	n := func(ev store.CacheEvent) int64 { return mg.ixEvents[ev].Load() }
	return IndexStats{
		Builds:        n(store.CacheBuild) + n(store.CacheRebuild),
		Extends:       n(store.CacheExtend),
		Invalidations: n(store.CacheRebuild),
		Hits:          n(store.CacheHit),
		HorizonHits:   n(store.CacheHorizonHit),
	}
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
// and index declarations in tx and binds it to the root "rel:<name>",
// the name TL rel declarations bind against. Both become visible when tx
// commits.
func CreateRelation(tx *store.Txn, name string, schema []store.Column, indexCols ...int) (store.OID, error) {
	rel := &store.Relation{Name: name, Schema: schema}
	for _, c := range indexCols {
		if c < 0 || c >= len(schema) {
			return store.Nil, fmt.Errorf("relalg: index column %d out of range", c)
		}
		rel.Indexes = append(rel.Indexes, store.IndexSpec{Column: c})
	}
	oid := tx.Alloc(rel)
	tx.SetRoot("rel:"+name, oid)
	return oid, nil
}

// view resolves the store a machine executes against: the machine's own
// view (a transaction or snapshot when the server wrapped the request in
// one) when set, the manager's otherwise.
func (mg *Manager) view(m *machine.Machine) store.View {
	if m != nil && m.Store != nil {
		return m.Store
	}
	return mg.st
}

// InsertRow appends a row to a persistent relation in tx. The
// transaction's localised relation view carries the row privately until
// commit, which merges it into the relation; the relation's derived
// cache picks it up on its next use. Programs insert through rinsert,
// on the transaction their machine runs against.
func InsertRow(tx *store.Txn, oid store.OID, row []store.Val) error {
	obj, err := tx.Get(oid)
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
	rel.AppendRow(row)
	tx.MarkDirty(oid)
	return nil
}

// relOf resolves a relation argument: a transient Rel or a Ref to a
// persistent relation. Persistent refs resolve through the machine's
// store view, so a program running under a transaction scans exactly its
// snapshot (plus its own appends) regardless of concurrent committers.
// rel is the relation object it resolved (nil for a transient Rel); its
// derived cache is shared with every clean view of the same relation.
func (mg *Manager) relOf(m *machine.Machine, op string, v machine.Value) (schema []store.Column, rows [][]store.Val, rel *store.Relation, err error) {
	switch v := v.(type) {
	case *Rel:
		return v.Schema, v.Rows, nil, nil
	case machine.Ref:
		obj, gerr := mg.view(m).Get(v.OID)
		if gerr != nil {
			return nil, nil, nil, fmt.Errorf("relalg: %s: %w", op, gerr)
		}
		r, ok := obj.(*store.Relation)
		if !ok {
			return nil, nil, nil, fmt.Errorf("relalg: %s: oid 0x%x is a %s", op, uint64(v.OID), obj.Kind())
		}
		// Snapshot the row header: appends on other sessions may grow
		// the relation mid-scan, never mutate the snapshotted rows.
		return r.Schema, r.RowsSnapshot(), r, nil
	default:
		return nil, nil, nil, fmt.Errorf("relalg: %s: expected relation, got %s", op, v.Show())
	}
}

// applyRow applies fn to one row on a fresh tuple: the row-at-a-time
// path every operator takes when its predicate does not vectorize. A join
// passes its two rows, which the tuple concatenates without materialising
// the concatenated store row (the join materialises only the pairs its
// predicate keeps).
func applyRow(m *machine.Machine, fn machine.Value, rows ...[]store.Val) (machine.Value, error) {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	elems := make([]machine.Value, 0, n)
	for _, r := range rows {
		for _, v := range r {
			elems = append(elems, machine.FromStoreVal(v))
		}
	}
	return m.Apply(fn, []machine.Value{&machine.Vector{Elems: elems}})
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
	schema, rows, rel, err := mg.relOf(m, "select", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	out := &Rel{Schema: schema}
	nrows := len(rows)
	w := relWidth(schema, rows)
	if ev := mg.vevalFor(pred, w, nrows); ev != nil && rowsRegular(rows, w) {
		return mg.vecSelect(m, ev, out, rows, rel)
	}
	m.AddRowRows(nrows)
	for len(rows) > 0 {
		n := min(batchSize, len(rows))
		if err := m.TickN(n); err != nil {
			return machine.Outcome{}, err
		}
		for _, row := range rows[:n] {
			v, err := applyRow(m, pred, row)
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
			Op: "select", Algo: "row", Table: tableName(rel),
			InRows: int64(nrows), EstRows: -1, ActRows: int64(len(out.Rows)),
		})
	}
	return ok1(out), nil
}

// execProject implements (project fn rel ce cc): π_fn(rel). The target
// function returns the new row as a vector of scalars.
func (mg *Manager) execProject(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	fn := vals[0]
	schema, rows, rel, err := mg.relOf(m, "project", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	out := &Rel{Rows: make([][]store.Val, 0, len(rows))}
	nrows := len(rows)
	w := relWidth(schema, rows)
	if ev := mg.vevalFor(fn, w, nrows); ev != nil && rowsRegular(rows, w) {
		return mg.vecProject(m, ev, out, rows, rel)
	}
	m.AddRowRows(nrows)
	var slab rowSlab
	for len(rows) > 0 {
		n := min(batchSize, len(rows))
		if err := m.TickN(n); err != nil {
			return machine.Outcome{}, err
		}
		for _, row := range rows[:n] {
			v, err := applyRow(m, fn, row)
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
			Op: "project", Algo: "row", Table: tableName(rel),
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
	s1, rows1, rel1, err := mg.relOf(m, "join", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	s2, rows2, rel2, err := mg.relOf(m, "join", vals[2])
	if err != nil {
		return machine.Outcome{}, err
	}
	out := &Rel{Schema: append(append([]store.Column(nil), s1...), s2...)}
	pairs := len(rows1) * len(rows2)
	w1, w2 := relWidth(s1, rows1), relWidth(s2, rows2)
	if ev := mg.vevalFor(pred, w1+w2, pairs); ev != nil && rowsRegular(rows1, w1) && rowsRegular(rows2, w2) {
		return mg.vecJoin(m, ev, out, rows1, rows2, w1, rel1, rel2)
	}
	m.AddRowRows(len(rows1) + len(rows2))
	var kept []pair
	for i1, r1 := range rows1 {
		for base := 0; base < len(rows2); base += batchSize {
			n := min(batchSize, len(rows2)-base)
			if err := m.TickN(n); err != nil {
				return machine.Outcome{}, err
			}
			for i2 := base; i2 < base+n; i2++ {
				v, err := applyRow(m, pred, r1, rows2[i2])
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
	schema, rows, rel, err := mg.relOf(m, "exists", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	w := relWidth(schema, rows)
	if ev := mg.vevalFor(pred, w, len(rows)); ev != nil && rowsRegular(rows, w) {
		return mg.vecExists(m, ev, rows, rel)
	}
	visited := 0
	defer func() { m.AddRowRows(visited) }()
	for i, row := range rows {
		visited = i + 1
		if err := m.Tick(); err != nil {
			return machine.Outcome{}, err
		}
		v, err := applyRow(m, pred, row)
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
					Op: "exists", Algo: "row", Table: tableName(rel),
					InRows: int64(len(rows)), EstRows: -1, ActRows: int64(i + 1),
				})
			}
			return ok1(machine.Bool(true)), nil
		}
	}
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "exists", Algo: "row", Table: tableName(rel),
			InRows: int64(len(rows)), EstRows: -1, ActRows: int64(len(rows)),
		})
	}
	return ok1(machine.Bool(false)), nil
}

// execEmpty implements (empty rel ce cc): R = ∅.
func (mg *Manager) execEmpty(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	_, rows, _, err := mg.relOf(m, "empty", vals[0])
	if err != nil {
		return machine.Outcome{}, err
	}
	return ok1(machine.BoolValue(len(rows) == 0)), nil
}

// execCount implements (count rel ce cc).
func (mg *Manager) execCount(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	_, rows, _, err := mg.relOf(m, "count", vals[0])
	if err != nil {
		return machine.Outcome{}, err
	}
	return ok1(machine.IntValue(int64(len(rows)))), nil
}

// execForeach implements (foreach body rel ce cc): element-at-a-time
// iteration with side effects, always row at a time (the body may retain
// its row: it can insert it elsewhere).
func (mg *Manager) execForeach(m *machine.Machine, vals, conts []machine.Value) (machine.Outcome, error) {
	body := vals[0]
	_, rows, _, err := mg.relOf(m, "foreach", vals[1])
	if err != nil {
		return machine.Outcome{}, err
	}
	m.AddRowRows(len(rows))
	for len(rows) > 0 {
		n := min(batchSize, len(rows))
		if err := m.TickN(n); err != nil {
			return machine.Outcome{}, err
		}
		for _, row := range rows[:n] {
			if _, err := applyRow(m, body, row); err != nil {
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
		tx, ok := m.Store.(*store.Txn)
		if !ok {
			return machine.Outcome{}, fmt.Errorf("relalg: rinsert: a stored relation is written only inside a transaction")
		}
		if err := InsertRow(tx, rel.OID, stRow); err != nil {
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
	schema, rows, rel, err := mg.relOf(m, "indexscan", vals[0])
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
		if hits, ev, ok := rel.IndexLookup(rows, int(col), key); ok {
			mg.ixEvents[ev].Add(1)
			for _, i := range hits {
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
	for i, row := range rows {
		if err := m.Tick(); err != nil {
			return machine.Outcome{}, err
		}
		if int(col) >= len(row) {
			// A transient relation's rows need not fit its schema.
			return machine.Outcome{}, &machine.RuntimeError{Op: "indexscan",
				Msg: fmt.Sprintf("row %d has %d columns, no column %d", i, len(row), int(col))}
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
