// EXPLAIN capture: when a caller registers interest for a machine, the
// executing kernels record one qopt.PlanNode per operator — which
// algorithm actually served it, with estimated vs. actual cardinalities.
// Capture is per-machine so concurrent sessions sharing one Manager never
// see each other's plans, and the disabled path costs one atomic load.
package relalg

import (
	"sync/atomic"

	"tycoon/internal/machine"
	"tycoon/internal/qopt"
	"tycoon/internal/store"
)

// CaptureExplain starts recording the physical plan of queries executed
// on m. Call TakeExplain to collect the nodes and stop recording.
func (mg *Manager) CaptureExplain(m *machine.Machine) {
	if m == nil {
		return
	}
	mg.mu.Lock()
	if mg.explains == nil {
		mg.explains = make(map[*machine.Machine]*qopt.PlanSink)
	}
	if _, ok := mg.explains[m]; !ok {
		mg.explains[m] = &qopt.PlanSink{}
		atomic.AddInt32(&mg.explainN, 1)
	}
	mg.mu.Unlock()
}

// TakeExplain stops recording for m and returns the plan nodes collected
// since CaptureExplain, in execution order. nil when capture was never
// enabled for m.
func (mg *Manager) TakeExplain(m *machine.Machine) []*qopt.PlanNode {
	if m == nil {
		return nil
	}
	mg.mu.Lock()
	sink, ok := mg.explains[m]
	if ok {
		delete(mg.explains, m)
		atomic.AddInt32(&mg.explainN, -1)
	}
	mg.mu.Unlock()
	if !ok {
		return nil
	}
	return sink.Nodes()
}

// explaining reports whether any machine has capture enabled; kernels use
// it to skip plan-node construction entirely on the hot path.
func (mg *Manager) explaining() bool {
	return atomic.LoadInt32(&mg.explainN) != 0
}

// plan records a node for m's sink, if capture is enabled for m.
func (mg *Manager) plan(m *machine.Machine, n *qopt.PlanNode) {
	mg.mu.Lock()
	sink := mg.explains[m]
	mg.mu.Unlock()
	sink.Add(n)
}

// tableName renders a relation's name for plan nodes; transients have
// none.
func tableName(rel *store.Relation) string {
	if rel == nil {
		return ""
	}
	return rel.Name
}
