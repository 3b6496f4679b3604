package machine

import "tycoon/internal/store"

// ForceGenericPath makes m resolve every primitive by name and skip the
// fused executors, exactly as a RegisterExec that shadows a standard
// primitive does: the reference path the dispatch tests compare the
// resolved and fused paths against.
func ForceGenericPath(m *Machine) { m.shadowsStd = true }

// FusedValueBranches counts the primitive instructions of p that carry a
// fused executor and continue to at least one value (non-label)
// continuation — the shape the dispatch tests must exercise.
func FusedValueBranches(p *Program) int {
	n := 0
	for _, blk := range p.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.fast == nil {
				continue
			}
			for _, c := range in.Conts {
				if !c.IsLabel {
					n++
					break
				}
			}
		}
	}
	return n
}

// TableClosure returns what t binds to a closure OID: an install or a
// lazy link.
func TableClosure(t *CodeTable, oid store.OID) (Value, bool) {
	v, ok := t.closures.Load(oid)
	if !ok {
		return nil, false
	}
	return v.(Value), true
}

// TablePrograms counts the decoded code blobs t holds.
func TablePrograms(t *CodeTable) int {
	n := 0
	t.programs.Range(func(_, _ any) bool { n++; return true })
	return n
}

// The use-after-pop check of the continuation stack is on for every test
// of this package: popped records are never reused, so a stale pointer
// to one fails loudly instead of resuming someone else's frame.
func init() { SetContCheck(true) }

// SetContCheck turns the use-after-pop check on or off for machines
// created afterwards and returns the previous setting.
func SetContCheck(on bool) bool {
	prev := checkConts
	checkConts = on
	return prev
}

// ContDepth reports the depth of m's continuation stack.
func ContDepth(m *Machine) int { return m.conts.depth }

// ContChunks reports how many chunks m's continuation stack holds.
func ContChunks(m *Machine) int { return len(m.conts.chunks) }

// LookupExec returns the executor m runs for a primitive name.
func LookupExec(m *Machine, name string) (ExecFunc, bool) { return m.exec(name) }

// InvokePopped reifies the entry label of p as a continuation record,
// pops it, pushes another record in its place, and then invokes the
// first: a use after pop.
func InvokePopped(m *Machine, p *Program) error {
	ts := tamState{prog: p, blk: p.Entry, frame: make([]Value, p.EntryBlock().NSlots)}
	in := &Instr{Op: OpCont}
	stale := m.pushCont(&ts, in)
	m.conts.popTo(0)
	m.pushCont(&ts, in)
	defer m.conts.popTo(0)
	_, err := m.drive(stale, nil)
	return err
}

// RefApply applies an interpreted procedure on the reference evaluator
// (refeval_test.go), as Apply applies compiled code.
func RefApply(m *Machine, fn Value, args []Value) (Value, error) { return m.refApply(fn, args) }
