package machine

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
