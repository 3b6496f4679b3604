package machine

import "tycoon/internal/prim"

// prepareProgram computes the derived execution metadata of a compiled
// program: per-instruction standard and fused executors and
// inert-continuation marks, and per-block frame and row escape analyses.
// It runs once, when a program is produced by the code generator or
// decoded from the store; programs are immutable afterwards, so the
// metadata may be read without synchronisation. Descriptors come from
// prim.Default, the one primitive table, so a program means the same on
// every machine.
func prepareProgram(p *Program) {
	if p == nil || p.prepared {
		return
	}
	p.prepared = true
	for _, blk := range p.Blocks {
		analyzeBlock(blk)
	}
}

// analyzeBlock resolves, per instruction, the standard executor and
// whether the fused fast path and the shared inert continuation
// placeholders apply, and, per block, whether frames and row tuples can
// be reused across activations.
func analyzeBlock(blk *CodeBlock) {
	frameSafe := true
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		switch in.Op {
		case OpCont:
			// Reifying a join point hands out a reference to the frame.
			frameSafe = false
		case OpPrim:
			in.std = stdExecs[in.Prim]
			d, ok := prim.Lookup(in.Prim)
			capturing := !ok || d.CapturesConts
			if capturing {
				// The executor may retain a continuation reified over this
				// frame (or is unknown and must be assumed to).
				frameSafe = false
				continue
			}
			if len(in.Conts) <= maxInertConts {
				in.contsInert = true
			}
			in.fast = fastExecs[in.Prim]
		}
	}
	blk.frameSafe = frameSafe
	blk.rowSafe = frameSafe && rowSafe(blk)
}

// rowSafe runs a taint analysis on slot 0 — the row tuple in the batched
// query calling convention — and reports that no alias of it can survive
// the activation. Taint is monotone (a slot once tainted stays tainted;
// kills are ignored), so a fixpoint over the flat instruction list covers
// every path through the block's join points.
func rowSafe(blk *CodeBlock) bool {
	if blk.NParams == 0 {
		return false
	}
	tainted := make([]bool, blk.NSlots)
	tainted[0] = true
	src := func(s Src) bool { return s.Kind == SrcSlot && tainted[s.Idx] }
	for changed := true; changed; {
		changed = false
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case OpMove:
				if src(in.Srcs[0]) && !tainted[in.Dst] {
					tainted[in.Dst] = true
					changed = true
				}
			case OpClos:
				// Captured into a closure that outlives the activation.
				for _, s := range in.Srcs {
					if src(s) {
						return false
					}
				}
			case OpSetCell:
				for _, s := range in.Srcs {
					if src(s) {
						return false
					}
				}
			case OpCall:
				// Passed to an unknown procedure or continuation.
				if src(in.Fn) {
					return false
				}
				for _, s := range in.Srcs {
					if src(s) {
						return false
					}
				}
			case OpPrim:
				anyTainted := false
				for _, s := range in.Srcs {
					if src(s) {
						anyTainted = true
						break
					}
				}
				if !anyTainted {
					continue
				}
				d, ok := prim.Lookup(in.Prim)
				if !ok || d.RetainsVals {
					return false
				}
				// A non-retaining primitive may still return (part of) the
				// row: taint its results. Results flowing to a non-label
				// continuation leave the block with them.
				for _, c := range in.Conts {
					if !c.IsLabel {
						return false
					}
					for _, ps := range c.ParamSlots {
						if !tainted[ps] {
							tainted[ps] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return true
}
