// Cost-based planning over live column statistics (paper §4.2: query
// optimization is delayed until runtime precisely so that it can consult
// the store's actual structures). The statistics come from the columnar
// cache (store.ColStats: row counts, distinct estimates, min/max,
// sortedness); the planner turns them into access-path and join-algorithm
// decisions, and every decision is recorded as a PlanNode so EXPLAIN
// surfaces (tycsh explain=, tml run -explain, reflectopt.Result.Plan) can
// show estimated against actual cardinalities.
package qopt

import (
	"fmt"
	"strings"
	"sync"

	"tycoon/internal/store"
)

// Join algorithm names used in plans and knobs.
const (
	JoinNested = "nested" // nested loop: the always-correct fallback
	JoinHash   = "hash"   // build a hash table on the smaller side
	JoinMerge  = "merge"  // merge pre-sorted inputs
)

// PlanNode is one operator of an executed (or planned) query: which
// physical algorithm served it, over which table, and how the optimizer's
// cardinality estimate compared to reality. ActRows is -1 until the
// operator has actually run (optimize-time nodes).
type PlanNode struct {
	Op      string  // select, join, exists, project, indexscan, access-path
	Algo    string  // vector, batch, row, hash, merge, nested, index, scan
	Table   string  // relation name(s), "" for transients
	InRows  int64   // input cardinality (left×right for joins)
	EstRows float64 // estimated output cardinality; -1 unknown
	ActRows int64   // actual output cardinality; -1 not executed
	Detail  string  // operator-specific extra (key columns, predicate shape)
}

// String renders the node as one EXPLAIN line.
func (p *PlanNode) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s algo=%s", p.Op, p.Algo)
	if p.Table != "" {
		fmt.Fprintf(&b, " table=%s", p.Table)
	}
	if p.Detail != "" {
		fmt.Fprintf(&b, " %s", p.Detail)
	}
	fmt.Fprintf(&b, " in=%d", p.InRows)
	if p.EstRows >= 0 {
		fmt.Fprintf(&b, " est=%.0f", p.EstRows)
	} else {
		b.WriteString(" est=?")
	}
	if p.ActRows >= 0 {
		fmt.Fprintf(&b, " act=%d", p.ActRows)
	}
	return b.String()
}

// RenderPlan formats a plan as indented EXPLAIN text, one node per line
// in execution order.
func RenderPlan(nodes []*PlanNode) string {
	if len(nodes) == 0 {
		return "(no plan recorded)"
	}
	var b strings.Builder
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(n.String())
	}
	return b.String()
}

// PlanSink collects plan nodes across optimizer rules and executing
// kernels; it is safe for concurrent use (pipeline passes may run rules
// from several goroutines).
type PlanSink struct {
	mu    sync.Mutex
	nodes []*PlanNode
}

// Add appends a node.
func (s *PlanSink) Add(n *PlanNode) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.nodes = append(s.nodes, n)
	s.mu.Unlock()
}

// Nodes returns the collected nodes in arrival order.
func (s *PlanSink) Nodes() []*PlanNode {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*PlanNode(nil), s.nodes...)
}

// EstEqMatches estimates how many of nrows rows match an equality
// against the column: rows/distinct under the uniform assumption, the
// whole relation when statistics are unavailable.
func EstEqMatches(st *store.ColStats, nrows int) float64 {
	if st == nil || st.Distinct <= 0 {
		return float64(nrows)
	}
	m := float64(st.Rows) / float64(st.Distinct)
	if m > float64(nrows) {
		m = float64(nrows)
	}
	return m
}

// EstCmpMatches estimates the selectivity of `col OP k` for an integer
// comparison against the column's min/max range (uniform assumption).
// Falls back to the classic 1/3 guess without statistics.
func EstCmpMatches(st *store.ColStats, nrows int, op byte, k int64) float64 {
	if st == nil || !st.HasMinMax || st.MaxInt < st.MinInt {
		return float64(nrows) / 3
	}
	span := float64(st.MaxInt-st.MinInt) + 1
	var frac float64
	switch op {
	case '<':
		frac = float64(k-st.MinInt) / span
	case 'l': // <=
		frac = float64(k-st.MinInt+1) / span
	case '>':
		frac = float64(st.MaxInt-k) / span
	case 'g': // >=
		frac = float64(st.MaxInt-k+1) / span
	default:
		frac = 1.0 / 3
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac * float64(nrows)
}

// indexProbeCost is the fixed cost charged to an index probe when it
// competes against a sequential scan: hashing the key, the bucket chase,
// and the risk that the estimate is off. With it, the planner keeps
// sequential scans for tiny relations and for columns whose statistics
// show the "index" would return most of the relation anyway.
const indexProbeCost = 8

// UseIndex decides index probe vs sequential scan for an equality
// selection over nrows rows. Without statistics it preserves the old
// heuristic (an index that exists is used); with statistics the index
// must actually beat the scan: emitting the estimated matches plus the
// probe overhead must undercut visiting every row.
func UseIndex(st *store.ColStats, nrows int) bool {
	if st == nil {
		return true
	}
	return EstEqMatches(st, nrows)+indexProbeCost < float64(nrows)
}

// ChooseJoinAlgo picks the join algorithm for an equi-join from the live
// statistics of the two key columns: merge when both inputs are already
// sorted on their keys (no sort is ever performed — sortedness must hold),
// hash otherwise, building on the smaller input. Nested loop is reserved
// for inputs too small for setup costs to amortise.
func ChooseJoinAlgo(ls, rs *store.ColStats, lrows, rrows int) (algo string, buildLeft bool) {
	if lrows <= 2 || rrows <= 2 {
		return JoinNested, lrows <= rrows
	}
	if ls != nil && rs != nil && ls.Sorted && rs.Sorted {
		return JoinMerge, lrows <= rrows
	}
	return JoinHash, lrows <= rrows
}

// EstJoinMatches estimates equi-join output cardinality:
// |L|·|R| / max(d(L.key), d(R.key)), the standard containment assumption.
func EstJoinMatches(ls, rs *store.ColStats, lrows, rrows int) float64 {
	d := 1.0
	if ls != nil && float64(ls.Distinct) > d {
		d = float64(ls.Distinct)
	}
	if rs != nil && float64(rs.Distinct) > d {
		d = float64(rs.Distinct)
	}
	return float64(lrows) * float64(rrows) / d
}
