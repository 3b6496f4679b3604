package machine

import (
	"slices"

	"tycoon/internal/prim"
)

// prepareProgram computes the derived execution metadata of a compiled
// program: per-instruction standard and fused executors and
// inert-continuation marks, and the per-block frame escape analysis.
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
// placeholders apply, and, per block, whether frames can be reused
// across activations.
func analyzeBlock(blk *CodeBlock) {
	frameSafe, contSafe, conts := true, true, false
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		switch in.Op {
		case OpCont:
			// Reifying a join point hands out a reference to the frame,
			// held by a stack record that is gone once the stack is back
			// at the activation's entry depth.
			frameSafe, conts = false, true
		case OpPrim:
			in.std = stdExecs[in.Prim]
			d, ok := prim.Lookup(in.Prim)
			capturing := !ok || d.CapturesConts
			if capturing {
				// The executor may retain a continuation reified over this
				// frame (or is unknown and must be assumed to).
				frameSafe, contSafe = false, false
				continue
			}
			if len(in.Conts) <= maxInertConts {
				in.contsInert = true
			}
			in.fast = fastExecs[in.Prim]
		}
	}
	blk.frameSafe, blk.contSafe = frameSafe, contSafe
	if conts {
		analyzeConts(blk)
	}
}

// analyzeConts classifies the block's OpConts for the continuation stack
// (see contstack.go) and marks the transfers that leave the activation.
//
// An OpCont is a return point when its slot is read exactly once, as an
// argument of the call that ends its straight-line run, and every OpCont
// between it and that call is one too: its record is reachable only
// through that call, and dead once the activation resumes. Any other
// OpCont is an activation record. A transfer leaves the activation when
// no operand it passes on may hold a continuation the activation
// reified: a slot OpCont writes, or one a move copies such a slot into.
// (A join point's parameters receive values only, §2.2, so no other
// write brings a continuation into the frame.)
func analyzeConts(blk *CodeBlock) {
	type slotUse struct {
		reads   int
		tainted bool
	}
	slots := make([]slotUse, blk.NSlots)
	read := func(s Src) {
		if s.Kind == SrcSlot {
			slots[s.Idx].reads++
		}
	}
	tainted := func(s Src) bool { return s.Kind == SrcSlot && slots[s.Idx].tainted }
	anyTainted := func(srcs []Src) bool { return slices.ContainsFunc(srcs, tainted) }
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if in.Op == OpCont {
			slots[in.Dst].tainted = true
		}
		if in.Op == OpCall {
			read(in.Fn)
		}
		for _, s := range in.Srcs {
			read(s)
		}
		for _, c := range in.Conts {
			if !c.IsLabel {
				read(c.Src)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op == OpMove && !slots[in.Dst].tainted && tainted(in.Srcs[0]) {
				slots[in.Dst].tainted = true
				changed = true
			}
		}
	}
	for q := range blk.Instrs {
		call := &blk.Instrs[q]
		switch call.Op {
		case OpCall:
			call.leaves = !tainted(call.Fn) && !anyTainted(call.Srcs)
		case OpPrim:
			call.leaves = !anyTainted(call.Srcs)
			for _, c := range call.Conts {
				if !c.IsLabel && tainted(c.Src) {
					call.leaves = false
				}
			}
			continue
		default:
			continue
		}
		// Walk the run back from the call (code generation starts every
		// label right after a transfer, so the run is only entered at its
		// start) to the last OpCont that is not a return point; the ones
		// after it are the call's return points.
		p := q - 1
		for ; p >= 0; p-- {
			in := &blk.Instrs[p]
			if in.Op == OpJump || in.Op == OpPrim || in.Op == OpCall {
				break
			}
			if in.Op == OpCont && (slots[in.Dst].reads != 1 || !passes(call, in.Dst) ||
				overwritten(blk.Instrs[p+1:q], in.Dst)) {
				break
			}
		}
		ret := 0
		for i := p + 1; i < q; i++ {
			if in := &blk.Instrs[i]; in.Op == OpCont {
				ret++
				in.ret = ret
			}
		}
	}
}

// passes reports that call passes slot as an argument.
func passes(call *Instr, slot int) bool {
	for _, s := range call.Srcs {
		if s.Kind == SrcSlot && s.Idx == slot {
			return true
		}
	}
	return false
}

// overwritten reports that one of instrs writes slot.
func overwritten(instrs []Instr, slot int) bool {
	for i := range instrs {
		switch in := &instrs[i]; in.Op {
		case OpMove, OpClos, OpCont, OpCell:
			if in.Dst == slot {
				return true
			}
		}
	}
	return false
}
