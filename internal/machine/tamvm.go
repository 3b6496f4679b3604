package machine

import "tycoon/internal/tml"

// This file implements the TAM virtual machine and the unified driver
// that lets compiled and interpreted code call each other freely: the
// query primitives, for example, invoke predicate closures that may be
// either TML closures (interpreted) or TAM closures (compiled), and the
// reflective optimizer swaps one for the other at runtime (paper §4.1).

// tamState is the register state of compiled execution.
type tamState struct {
	prog  *Program
	blk   int
	pc    int
	frame []Value
	free  []Value
}

// execState is either an interpreted state (app != nil) or a compiled
// state (tam.prog != nil).
type execState struct {
	app *tml.App
	env *Env
	tam tamState
}

// drive runs states to completion, switching engines at call boundaries.
// Every machine entry (Apply, RunApp, Batch.Call) runs through it, and it
// returns with the handler stack no deeper than it found it: a handler
// the program installed and never removed — it finished inside a try, or
// was aborted there by a runtime error or a budget — cannot catch a later
// program's exception on the same machine, and a nested entry (a query
// predicate) never drops its caller's handlers.
func (m *Machine) drive(st execState) (Value, error) {
	depth := len(m.handlers)
	for {
		var done bool
		var result Value
		var err error
		if st.app != nil {
			st, done, result, err = m.stepInterp(st.app, st.env)
		} else {
			st, done, result, err = m.runTAM(st.tam)
		}
		if err != nil || done {
			if len(m.handlers) > depth {
				clear(m.handlers[depth:])
				m.handlers = m.handlers[:depth]
			}
			return result, err
		}
	}
}

// transfer dispatches an application of fn to args, yielding the next
// execution state (or completion via a Halt continuation).
func (m *Machine) transfer(fn Value, args []Value) (execState, bool, Value, error) {
	switch f := fn.(type) {
	case *Closure:
		if len(f.Abs.Params) != len(args) {
			return execState{}, true, nil, rtErr("apply", "%s expects %d arguments, got %d",
				f.Show(), len(f.Abs.Params), len(args))
		}
		// Procedure entry costs a step; continuation invocation is a jump
		// (compiled code runs join points without any transfer at all).
		if !f.Abs.IsCont() {
			if err := m.tick(); err != nil {
				return execState{}, true, nil, err
			}
		}
		m.transfers++
		// The environment frame retains the argument slice, but callers
		// (the TAM call instruction, the batched kernels) pass reused
		// scratch buffers — bind a private copy.
		bound := make([]Value, len(args))
		copy(bound, args)
		return execState{app: f.Abs.Body, env: f.Env.Extend(f.Abs.Params, bound)}, false, nil, nil
	case *TAMClosure:
		if err := m.tick(); err != nil {
			return execState{}, true, nil, err
		}
		blk := f.Prog.Blocks[f.Blk]
		if blk.NParams != len(args) {
			return execState{}, true, nil, rtErr("apply", "%s expects %d arguments, got %d",
				f.Show(), blk.NParams, len(args))
		}
		m.transfers++
		frame := m.getFrame(blk.NSlots)
		copy(frame, args)
		return execState{tam: tamState{prog: f.Prog, blk: f.Blk, frame: frame, free: f.Free}}, false, nil, nil
	case *TAMCont:
		if len(f.ParamSlots) != len(args) {
			return execState{}, true, nil, rtErr("apply", "continuation expects %d results, got %d",
				len(f.ParamSlots), len(args))
		}
		m.transfers++
		for i, s := range f.ParamSlots {
			f.Frame[s] = args[i]
		}
		return execState{tam: tamState{prog: f.Prog, blk: f.Blk, pc: f.PC, frame: f.Frame, free: f.Free}}, false, nil, nil
	case *Cell:
		if f.V == nil {
			return execState{}, true, nil, rtErr("apply", "unset recursive binding")
		}
		return m.transfer(f.V, args)
	case Ref:
		// Applying an object identifier links the persistent closure it
		// denotes (paper Fig. 3) and applies the result.
		linked, err := m.linkClosure(f.OID)
		if err != nil {
			return execState{}, true, nil, err
		}
		return m.transfer(linked, args)
	case *Halt:
		var v Value = Unit{}
		if len(args) > 0 {
			v = args[0]
		}
		if f.Err {
			return execState{}, true, nil, &Exception{Value: v}
		}
		return execState{}, true, v, nil
	default:
		return execState{}, true, nil, rtErr("apply", "cannot apply %T", fn)
	}
}

// load resolves an operand. Cells are dereferenced except when capturing
// (OpClos), which copies the cell itself so recursive bindings resolve to
// their final value.
func (ts *tamState) load(s Src, deref bool) Value {
	var v Value
	switch s.Kind {
	case SrcSlot:
		v = ts.frame[s.Idx]
	case SrcLit:
		v = ts.prog.Blocks[ts.blk].Lits[s.Idx]
	case SrcFree:
		v = ts.free[s.Idx]
	}
	if deref {
		if c, ok := v.(*Cell); ok {
			return c.V
		}
	}
	return v
}

// runTAM executes compiled code until control leaves the engine: a
// transfer into interpreted code, or program completion through a Halt
// value. Calls and continuation invocations between compiled blocks stay
// inside this loop.
func (m *Machine) runTAM(ts tamState) (execState, bool, Value, error) {
	for {
		blk := ts.prog.Blocks[ts.blk]
		if ts.pc < 0 || ts.pc >= len(blk.Instrs) {
			return execState{}, true, nil, rtErr("tam", "pc %d out of range in %s", ts.pc, blk.Name)
		}
		in := &blk.Instrs[ts.pc]
		// An instruction either continues in this block or sets fn and
		// args and breaks out of the switch to leave it (see below).
		var fn Value
		var args []Value
		var base int
		switch in.Op {
		case OpMove:
			ts.frame[in.Dst] = ts.load(in.Srcs[0], true)
			ts.pc++
			continue
		case OpClos:
			free := make([]Value, len(in.Srcs))
			for i, s := range in.Srcs {
				free[i] = ts.load(s, false)
			}
			ts.frame[in.Dst] = &TAMClosure{
				Prog: ts.prog, Blk: in.Block, Free: free,
				Name: ts.prog.Blocks[in.Block].Name,
			}
			ts.pc++
			continue
		case OpCont:
			ts.frame[in.Dst] = &TAMCont{
				Prog: ts.prog, Blk: ts.blk, PC: in.Target,
				Frame: ts.frame, Free: ts.free, ParamSlots: in.ParamSlots,
			}
			ts.pc++
			continue
		case OpCell:
			ts.frame[in.Dst] = &Cell{}
			ts.pc++
			continue
		case OpSetCell:
			cell, ok := ts.frame[in.Dst].(*Cell)
			if !ok {
				return execState{}, true, nil, rtErr("tam", "OpSetCell on non-cell")
			}
			cell.V = ts.load(in.Srcs[0], true)
			ts.pc++
			continue
		case OpJump:
			ts.pc = in.Target
			continue
		case OpPrim:
			if err := m.tick(); err != nil {
				return execState{}, true, nil, err
			}
			var vals []Value
			base, vals = m.arenaPush(len(in.Srcs))
			for i, s := range in.Srcs {
				vals[i] = ts.load(s, true)
			}
			if f := in.fast; f != nil && !m.shadowsStd {
				// Fused load-slot/apply-primitive/branch superinstruction: a
				// label branch is a frame write and a jump, a value branch
				// leaves the block with the result. The fast executor
				// declines (branch < 0) on anything but the common case, and
				// the generic executor below re-executes the call — sound
				// because fast executors are pure and the step was charged
				// once, above.
				branch, result, nres := f(m, vals, len(in.Conts))
				if branch >= 0 {
					ref := &in.Conts[branch]
					if !ref.IsLabel {
						m.result[0] = result
						fn, args = ts.load(ref.Src, true), m.result[:nres]
						break
					}
					if nres == len(ref.ParamSlots) {
						m.arenaPop(base)
						if nres == 1 {
							ts.frame[ref.ParamSlots[0]] = result
						}
						ts.pc = ref.PC
						continue
					}
				}
			}
			var conts []Value
			if in.contsInert {
				// The executor never retains or inspects a continuation
				// argument (beyond its count): pass shared placeholders
				// instead of reifying the join points over this frame.
				conts = inertConts[len(in.Conts)]
			} else {
				conts = make([]Value, len(in.Conts))
				for i, ref := range in.Conts {
					if ref.IsLabel {
						conts[i] = &TAMCont{Prog: ts.prog, Blk: ts.blk, PC: ref.PC,
							Frame: ts.frame, Free: ts.free, ParamSlots: ref.ParamSlots}
					} else {
						conts[i] = ts.load(ref.Src, true)
					}
				}
			}
			exec := in.std
			if exec == nil || m.shadowsStd {
				var ok bool
				if exec, ok = m.exec(in.Prim); !ok {
					m.arenaPop(base)
					return execState{}, true, nil, rtErr(in.Prim, "no executor registered")
				}
			}
			out, err := exec(m, vals, conts)
			m.arenaPop(base)
			if err != nil {
				return execState{}, true, nil, err
			}
			if out.Tail != nil {
				fn, args = out.Tail.Fn, out.Tail.Args
				break
			}
			if out.Branch < 0 || out.Branch >= len(in.Conts) {
				return execState{}, true, nil, rtErr(in.Prim, "selected continuation %d of %d", out.Branch, len(in.Conts))
			}
			ref := &in.Conts[out.Branch]
			if ref.IsLabel {
				if len(ref.ParamSlots) != len(out.Results) {
					return execState{}, true, nil, rtErr(in.Prim, "label expects %d results, got %d",
						len(ref.ParamSlots), len(out.Results))
				}
				for i, s := range ref.ParamSlots {
					ts.frame[s] = out.Results[i]
				}
				ts.pc = ref.PC
				continue
			}
			fn, args = ts.load(ref.Src, true), out.Results
		case OpCall:
			fn = ts.load(in.Fn, true)
			base, args = m.arenaPush(len(in.Srcs))
			for i, s := range in.Srcs {
				args[i] = ts.load(s, true)
			}
		default:
			return execState{}, true, nil, rtErr("tam", "unknown opcode %d", in.Op)
		}
		// Control leaves the block: a call, a primitive's value
		// continuation, or a throw to a handler. The arguments are already
		// loaded out of the frame, so a frame-safe block's frame is
		// recycled before the transfer — a self-recursive tail call reuses
		// the very frame it leaves. The arena reservation is released only
		// after the transfer has copied the arguments.
		if blk.frameSafe {
			m.putFrame(ts.frame)
			ts.frame = nil
		}
		next, done, result, err := m.transfer(fn, args)
		m.arenaPop(base)
		if err != nil || done || next.tam.prog == nil {
			return next, done, result, err
		}
		// Stay inside the engine for TAM-to-TAM transfers.
		ts = next.tam
	}
}
