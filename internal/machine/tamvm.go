package machine

import "fmt"

// This file implements the TAM virtual machine, the one engine every
// machine entry runs on: Apply (which the query kernels' predicate calls
// use too) and the reflective optimizer's swapped-in code all execute
// compiled TAM closures, and a module constant is compiled before the
// linker applies it. A direct TML interpreter exists only as the test
// oracle this package's tests compare TAM against (refeval_test.go).

// Halt is the sentinel continuation value terminating execution: the
// top-level normal continuation (Err=false) yields the program result, the
// top-level exception continuation (Err=true) reports an unhandled
// exception.
type Halt struct{ Err bool }

func (*Halt) value() {}

// Show renders the halt continuation.
func (h *Halt) Show() string {
	if h.Err {
		return "<halt-error>"
	}
	return "<halt>"
}

// Exception reports a TML exception that reached the top-level exception
// continuation.
type Exception struct {
	Value Value
}

// Error formats the exception.
func (e *Exception) Error() string {
	return fmt.Sprintf("%v: %s", ErrUnhandled, e.Value.Show())
}

// Unwrap lets errors.Is match ErrUnhandled.
func (e *Exception) Unwrap() error { return ErrUnhandled }

// tamState is the register state of compiled execution. The engine
// updates one state in place through a pointer: a transfer rewrites it,
// nothing copies it.
type tamState struct {
	prog *Program
	blk  int
	// code is prog.Blocks[blk], the block executing.
	code  *CodeBlock
	pc    int
	frame []Value
	free  []Value
	// base is the continuation-stack depth at the activation's entry,
	// epoch the stack's pin epoch then (see contstack.go).
	base  int
	epoch int64
}

// The top-level exception and normal continuations every entry passes.
// A Halt is immutable, so all entries share one pair.
var haltErr, haltOK Value = &Halt{Err: true}, &Halt{Err: false}

// Apply invokes a procedure value with the given value arguments,
// supplying the top-level exception and normal continuations, and runs
// it to completion. It allocates nothing itself: the argument vector is
// reserved on the value arena for the length of the call, and transfer
// copies it into the callee's frame or the continuation's slots and
// keeps none of it. args is not retained.
func (m *Machine) Apply(fn Value, args []Value) (Value, error) {
	base, all := m.arenaPush(len(args) + 2)
	copy(all, args)
	all[len(args)], all[len(args)+1] = haltErr, haltOK
	v, err := m.drive(fn, all)
	m.arenaPop(base)
	return v, err
}

// drive applies fn to args and runs the resulting compiled code to
// completion. Every machine entry runs through it, and it returns with
// the handler stack no deeper than it found it: a handler the program
// installed and never removed — it finished inside a try, or was aborted
// there by a runtime error or a budget — cannot catch a later program's
// exception on the same machine. The entry depth is also the handler
// floor while the entry runs: a throw or popHandler never reaches a
// handler below it, so a fault inside a nested entry (a query predicate)
// leaves the entry as an Exception instead of running its caller's
// handler inside it. The continuation stack is restored to its entry
// depth the same way, and is never popped below it while the entry runs.
func (m *Machine) drive(fn Value, args []Value) (Value, error) {
	depth, hfloor := len(m.handlers), m.hfloor
	m.hfloor = depth
	entry, floor := m.conts.enter()
	var ts tamState
	done, result, err := m.transfer(&ts, fn, args)
	if !done && err == nil {
		result, err = m.runTAM(&ts)
	}
	if len(m.handlers) > depth {
		clear(m.handlers[depth:])
		m.handlers = m.handlers[:depth]
	}
	m.hfloor = hfloor
	m.conts.leave(entry, floor)
	if m.conts.drives == 0 {
		m.endRequest()
	}
	return result, err
}

// transfer dispatches an application of fn to args, writing the next
// execution state into ts or reporting completion (a Halt continuation)
// or failure.
func (m *Machine) transfer(ts *tamState, fn Value, args []Value) (bool, Value, error) {
	switch f := fn.(type) {
	case *TAMClosure:
		if err := m.tick(); err != nil {
			return true, nil, err
		}
		blk := f.Prog.Blocks[f.Blk]
		if blk.NParams != len(args) {
			return true, nil, rtErr("apply", "%s expects %d arguments, got %d",
				f.Show(), blk.NParams, len(args))
		}
		m.transfers++
		frame := m.getFrame(blk.NSlots)
		copy(frame, args)
		ts.prog, ts.blk, ts.code, ts.pc, ts.frame, ts.free = f.Prog, f.Blk, blk, 0, frame, f.Free
		ts.base, ts.epoch = m.conts.depth, m.conts.epoch
		return false, nil, nil
	case *contRec:
		if !m.conts.live(f) {
			return true, nil, rtErr("apply", "continuation used after its stack record was popped")
		}
		return m.resume(ts, &f.TAMCont, args)
	case *TAMCont:
		return m.resume(ts, f, args)
	case *Cell:
		if f.V == nil {
			return true, nil, rtErr("apply", "unset recursive binding")
		}
		return m.transfer(ts, f.V, args)
	case Ref:
		// Applying an object identifier links the persistent closure it
		// denotes (paper Fig. 3) and applies the result; the link memo
		// answers a repeated reference within the request.
		linked, err := m.linkClosure(f.OID)
		if err != nil {
			return true, nil, err
		}
		return m.transfer(ts, linked, args)
	case *Halt:
		var v Value = Unit{}
		if len(args) > 0 {
			v = m.durable(args[0])
		}
		if f.Err {
			return true, nil, &Exception{Value: v}
		}
		return true, v, nil
	default:
		return true, nil, rtErr("apply", "cannot apply %T", fn)
	}
}

// resume invokes compiled continuation c with args: the results go to
// its parameter slots, the continuation stack pops to c's depth, and
// execution continues at c's label in its frame.
func (m *Machine) resume(ts *tamState, c *TAMCont, args []Value) (bool, Value, error) {
	if len(c.ParamSlots) != len(args) {
		return true, nil, rtErr("apply", "continuation expects %d results, got %d",
			len(c.ParamSlots), len(args))
	}
	m.transfers++
	for i, s := range c.ParamSlots {
		v := args[i]
		if r, ok := v.(*contRec); ok {
			// A continuation passed as a value (ill-formed) lands in a
			// frame slot the stack discipline does not follow.
			v = m.promote(r)
		}
		c.Frame[s] = v
	}
	m.conts.unwind(c.low)
	ts.prog, ts.blk, ts.code, ts.pc = c.Prog, c.Blk, c.Prog.Blocks[c.Blk], c.PC
	ts.frame, ts.free = c.Frame, c.Free
	ts.base, ts.epoch = min(c.base, m.conts.depth), c.epoch
	return false, nil, nil
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
		v = ts.code.Lits[s.Idx]
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

// runTAM executes compiled code until the program completes through a
// Halt value or fails. Calls and continuation invocations between
// compiled blocks stay inside this loop, which updates ts in place.
func (m *Machine) runTAM(ts *tamState) (Value, error) {
	for {
		blk := ts.code
		if ts.pc < 0 || ts.pc >= len(blk.Instrs) {
			return nil, rtErr("tam", "pc %d out of range in %s", ts.pc, blk.Name)
		}
		in := &blk.Instrs[ts.pc]
		// An instruction either continues in this block or sets fn and
		// args and breaks out of the switch to leave it (see below).
		var fn Value
		var args []Value
		var base int
		leaves := false
		switch in.Op {
		case OpMove:
			ts.frame[in.Dst] = ts.load(in.Srcs[0], true)
			ts.pc++
			continue
		case OpClos:
			free := make([]Value, len(in.Srcs))
			for i, s := range in.Srcs {
				free[i] = m.durable(ts.load(s, false))
			}
			ts.frame[in.Dst] = &TAMClosure{
				Prog: ts.prog, Blk: in.Block, Free: free,
				Name: ts.prog.Blocks[in.Block].Name,
			}
			ts.pc++
			continue
		case OpCont:
			ts.frame[in.Dst] = m.pushCont(ts, in)
			ts.pc++
			continue
		case OpCell:
			ts.frame[in.Dst] = &Cell{}
			ts.pc++
			continue
		case OpSetCell:
			cell, ok := ts.frame[in.Dst].(*Cell)
			if !ok {
				return nil, rtErr("tam", "OpSetCell on non-cell")
			}
			cell.V = m.durable(ts.load(in.Srcs[0], true))
			ts.pc++
			continue
		case OpJump:
			ts.pc = in.Target
			continue
		case OpPrim:
			if err := m.tick(); err != nil {
				return nil, err
			}
			if f := in.fast; f != nil && !m.shadowsStd {
				// Fused load-slot/apply-primitive/branch superinstruction:
				// the operands go to the register file, a label branch is a
				// frame write and a jump, a value branch leaves the block
				// with the result. The fast executor declines (branch < 0)
				// on anything but the common case, and the generic executor
				// below re-executes the call — sound because fast executors
				// are pure and the step was charged once, above.
				if len(in.Srcs) > len(m.opnd) {
					m.opnd = make([]Value, len(in.Srcs))
				}
				vals := m.opnd[:len(in.Srcs)]
				for i, s := range in.Srcs {
					vals[i] = ts.load(s, true)
				}
				branch, result, nres := f(m, vals, len(in.Conts))
				if branch >= 0 {
					ref := &in.Conts[branch]
					if !ref.IsLabel {
						m.result[0] = result
						fn, args, leaves = ts.load(ref.Src, true), m.result[:nres], in.leaves
						base = len(m.valArena) // nothing reserved to release
						break
					}
					if nres == len(ref.ParamSlots) {
						if nres == 1 {
							ts.frame[ref.ParamSlots[0]] = result
						}
						ts.pc = ref.PC
						continue
					}
				}
			}
			var vals []Value
			base, vals = m.arenaPush(len(in.Srcs))
			for i, s := range in.Srcs {
				vals[i] = ts.load(s, true)
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
						conts[i] = m.heapCont(ts, ref.PC, ref.ParamSlots)
					} else {
						conts[i] = ts.load(ref.Src, true)
					}
					// The executor may keep it (pushHandler is the one that
					// does): it must outlive the continuation stack.
					conts[i] = m.durable(conts[i])
				}
			}
			exec := in.std
			if exec == nil || m.shadowsStd {
				var ok bool
				if exec, ok = m.exec(in.Prim); !ok {
					m.arenaPop(base)
					return nil, rtErr(in.Prim, "no executor registered")
				}
			}
			out, err := exec(m, vals, conts)
			m.arenaPop(base)
			if err != nil {
				return nil, err
			}
			if out.Tail != nil {
				fn, args = out.Tail.Fn, out.Tail.Args
				break
			}
			if out.Branch < 0 || out.Branch >= len(in.Conts) {
				return nil, rtErr(in.Prim, "selected continuation %d of %d", out.Branch, len(in.Conts))
			}
			ref := &in.Conts[out.Branch]
			if ref.IsLabel {
				if len(ref.ParamSlots) != len(out.Results) {
					return nil, rtErr(in.Prim, "label expects %d results, got %d",
						len(ref.ParamSlots), len(out.Results))
				}
				for i, s := range ref.ParamSlots {
					ts.frame[s] = out.Results[i]
				}
				ts.pc = ref.PC
				continue
			}
			fn, args, leaves = ts.load(ref.Src, true), out.Results, in.leaves
		case OpCall:
			fn = ts.load(in.Fn, true)
			base, args = m.arenaPush(len(in.Srcs))
			for i, s := range in.Srcs {
				args[i] = ts.load(s, true)
			}
			leaves = in.leaves
		default:
			return nil, rtErr("tam", "unknown opcode %d", in.Op)
		}
		// Control leaves the block: a call, a primitive's value
		// continuation, or a throw to a handler. A transfer that passes
		// on none of the activation's continuations ends it, so its
		// records pop. The arguments are already loaded out of the frame,
		// so a frame no reference can outlive is recycled before the
		// transfer — a self-recursive tail call reuses the very frame it
		// leaves. The arena reservation is released only after the
		// transfer has copied the arguments.
		if leaves {
			m.conts.unwind(ts.base)
		}
		if blk.frameSafe || blk.contSafe && m.conts.depth == ts.base && m.conts.epoch == ts.epoch {
			m.putFrame(ts.frame)
			ts.frame = nil
		}
		done, result, err := m.transfer(ts, fn, args)
		m.arenaPop(base)
		if err != nil || done {
			return result, err
		}
	}
}
