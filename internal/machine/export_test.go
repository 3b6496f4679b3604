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
