package machine

// This file implements the TAM's continuation stack. TML's well-formedness
// rules (paper §2.2, checked on every compiled term by tml.Check) make
// continuations second-class: they are bound only as continuation
// parameters, passed only in continuation positions, and never stored,
// returned or captured by a procedure. The continuations compiled code
// reifies therefore form a stack, and OpCont pushes a record onto a
// per-machine stack instead of allocating one. The continuation value is
// a pointer to that record, so storing it in a Value does not allocate.
//
// Records live in fixed-size chunks, so a pointer to a record stays valid
// while the stack grows. Two kinds are pushed (analyzeConts classifies
// every OpCont statically):
//
//   - a return point — the record feeds only the call right after it —
//     dies as soon as its activation resumes: invoking it, or a sibling
//     passed to the same call, pops the whole call group;
//   - an activation record — a join point bound to a variable, invoked or
//     passed on from several places — dies when it is invoked: its label
//     lies outside the scope of its own binding, and a continuation takes
//     values only, so no code it reaches can name it or anything pushed
//     after it again. For the same reason it dies when its OpCont runs
//     again in the same frame (a loop's next iteration), which pops it
//     and what was pushed after it. A call that passes none of the
//     activation's records (a tail call) pops whatever of them is left.
//
// Every continuation, on the stack or on the heap, carries the depth its
// invocation pops to (low). drive restores its entry depth whenever it
// returns, and never pops below it while it runs (the floor), so a nested
// entry from a query predicate cannot disturb its caller's records.
//
// These rules rely on the §2.2 guarantees: a continuation is never a
// value argument, so a join point's parameters never hold one. Code that
// breaks them (it only reaches the machine around the pipeline's check)
// may see a use-after-pop error.
//
// What cannot be proved last-in-first-out keeps a heap TAMCont. A record
// that reaches something outliving the stack discipline — the handler
// stack, a closure or cell, a program's result — is promoted: it gets a
// heap twin, and so does every live record its frame holds (that frame's
// activation may be re-entered through the twin, and would read them).
// The frame is pinned: activation records it reifies later are born on
// the heap. So is the frame a capturing primitive (pushHandler) reifies a
// join point over. An activation recycles its frame only when it leaves
// with the stack back at its entry depth and no frame has been pinned
// since it started (the epoch), so a frame a heap continuation may
// re-enter is never reused.

// contChunkShift sizes the stack's chunks (1<<contChunkShift records).
// The use-after-pop check runs with one record per chunk instead.
const contChunkShift = 7

// checkConts turns on the use-after-pop check for machines created after
// it is set: popped records are marked dead and their chunks dropped, so
// a stale pointer never aliases a later record, and invoking or
// promoting a dead record is a runtime error. Tests turn it on; it costs
// an allocation per record.
var checkConts = false

// contRec is a continuation record on the stack: the resume point plus
// its position and, once promoted, its heap twin.
type contRec struct {
	TAMCont
	idx  int
	twin *TAMCont
	dead bool
}

// contStack is a machine's continuation stack.
type contStack struct {
	chunks [][]contRec
	depth  int
	// floor is the entry depth of the innermost drive: nothing below it
	// is popped while that drive runs.
	floor int
	// hwm is the highest depth reached since the records were last
	// cleared (see leave).
	hwm    int
	drives int
	check  bool
	shift  int
	// epoch counts pinned frames; an activation started before the
	// latest pin keeps its frame off the free-list (see runTAM), and only
	// such an activation can be running in a pinned frame.
	epoch int64
	// pinned holds the frames a promotion reached, by first slot, until
	// the outermost drive returns; pinq is the promotion worklist.
	pinned map[*Value]struct{}
	pinq   [][]Value

	pushed, heap int64
	maxDepth     int
}

// newContStack returns an empty stack; it allocates its first chunk on
// the first push.
func newContStack() contStack {
	if checkConts {
		return contStack{check: true}
	}
	return contStack{shift: contChunkShift}
}

// enter starts a drive: its entry depth becomes the floor.
func (s *contStack) enter() (entry, floor int) {
	entry, floor = s.depth, s.floor
	s.floor = entry
	s.drives++
	return entry, floor
}

// leave ends a drive started at entry, restoring the caller's floor. It
// pops back to entry and clears the records above it, so no dead record
// keeps a frame alive; with nothing pushed it costs O(1). The outermost
// drive keeps one chunk and drops the rest, so a deep recursion does not
// pin its stack for as long as the machine lives.
func (s *contStack) leave(entry, floor int) {
	if s.depth > entry {
		s.popTo(entry)
	}
	if s.hwm > entry {
		if s.hwm > s.maxDepth {
			s.maxDepth = s.hwm
		}
		if !s.check {
			for i := entry; i < s.hwm; i++ {
				s.chunks[i>>s.shift][i&(1<<s.shift-1)] = contRec{dead: true}
			}
		}
		s.hwm = entry
	}
	s.floor = floor
	s.drives--
	if s.drives == 0 {
		if len(s.pinned) > 0 {
			clear(s.pinned)
		}
		if len(s.chunks) > 1 {
			clear(s.chunks[1:])
			s.chunks = s.chunks[:1]
		}
	}
}

// popTo pops the stack down to depth d.
func (s *contStack) popTo(d int) {
	if s.check {
		for i := d; i < s.depth; i++ {
			s.chunks[i][0].dead = true
			s.chunks[i] = nil
		}
	}
	s.depth = d
}

// unwind pops down to low, never below the floor.
func (s *contStack) unwind(low int) {
	if low < s.floor {
		low = s.floor
	}
	if s.depth > low {
		s.popTo(low)
	}
}

// live reports whether r may still be on the stack. With the check off,
// a record above the top is certainly dead, one below it conservatively
// live.
func (s *contStack) live(r *contRec) bool { return !r.dead && r.idx < s.depth }

// push reserves the next record.
func (s *contStack) push() *contRec {
	i := s.depth
	c := i >> s.shift
	for c >= len(s.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	if s.chunks[c] == nil {
		s.chunks[c] = make([]contRec, 1<<s.shift)
	}
	r := &s.chunks[c][i&(1<<s.shift-1)]
	r.idx, r.twin, r.dead = i, nil, false
	s.depth = i + 1
	if s.depth > s.hwm {
		s.hwm = s.depth
	}
	s.pushed++
	return r
}

// pushCont executes OpCont: it pushes the record of the join point the
// instruction reifies over the current frame, or, for an activation
// record in a pinned frame, allocates it on the heap.
func (m *Machine) pushCont(ts *tamState, in *Instr) Value {
	s := &m.conts
	if in.ret == 0 {
		if ts.epoch != s.epoch {
			// A frame can only have been pinned after its activation began.
			if _, ok := s.pinned[&ts.frame[0]]; ok {
				return m.heapCont(ts, in.Target, in.ParamSlots)
			}
		}
		// Only this OpCont writes its slot, and its label lies outside
		// the scope of the variable it binds: running it again means
		// control has left the scope of the record it pushed last in this
		// frame, and of every record pushed after it (with records reused
		// in place, r may be one of those by now). Popping them keeps a
		// loop whose back edge is a jump at a constant depth.
		if r, ok := ts.frame[in.Dst].(*contRec); ok && s.live(r) {
			s.unwind(r.idx)
		}
	}
	d := s.depth
	r := s.push()
	r.Prog, r.Blk, r.PC = ts.prog, ts.blk, in.Target
	r.Frame, r.Free, r.ParamSlots = ts.frame, ts.free, in.ParamSlots
	r.base, r.epoch = ts.base, ts.epoch
	r.low = d
	if in.ret > 0 {
		r.low = d + 1 - in.ret
	}
	return r
}

// heapCont reifies a join point of the current frame on the heap. Its
// invocation pops what was pushed after it.
func (m *Machine) heapCont(ts *tamState, pc int, params []int) *TAMCont {
	m.conts.heap++
	return &TAMCont{Prog: ts.prog, Blk: ts.blk, PC: pc, Frame: ts.frame, Free: ts.free,
		ParamSlots: params, low: m.conts.depth, base: ts.base, epoch: ts.epoch}
}

// durable returns v in a form that may outlive the stack discipline: a
// stack record is promoted, a heap continuation's frame pinned.
func (m *Machine) durable(v Value) Value {
	switch c := v.(type) {
	case *contRec:
		return m.promote(c)
	case *TAMCont:
		m.pin(c.Frame)
	}
	return v
}

// promote returns the heap twin of stack record r, promoting every record
// reachable from its frame as well. A popped record stays as it is:
// invoking it is the use after pop.
func (m *Machine) promote(r *contRec) Value {
	if !m.conts.live(r) {
		return r
	}
	t := m.twin(r)
	m.drainPins()
	return t
}

// pin promotes the records a frame holds and marks it pinned.
func (m *Machine) pin(frame []Value) {
	m.queuePin(frame)
	m.drainPins()
}

func (m *Machine) twin(r *contRec) *TAMCont {
	if r.twin == nil {
		t := new(TAMCont)
		*t = r.TAMCont
		r.twin = t
		m.conts.heap++
		m.queuePin(r.Frame)
	}
	return r.twin
}

func (m *Machine) queuePin(frame []Value) {
	if len(frame) == 0 {
		return
	}
	s := &m.conts
	if s.pinned == nil {
		s.pinned = make(map[*Value]struct{})
	}
	if _, ok := s.pinned[&frame[0]]; ok {
		return
	}
	s.pinned[&frame[0]] = struct{}{}
	s.pinq = append(s.pinq, frame)
	s.epoch++
}

// drainPins replaces the live records in every queued frame by their
// twins, following twins and heap continuations to the frames they
// resume in.
func (m *Machine) drainPins() {
	s := &m.conts
	for len(s.pinq) > 0 {
		f := s.pinq[len(s.pinq)-1]
		s.pinq[len(s.pinq)-1] = nil
		s.pinq = s.pinq[:len(s.pinq)-1]
		for i, v := range f {
			switch c := v.(type) {
			case *contRec:
				// Dead records are the private slots of return points
				// already consumed; they are never read again.
				if s.live(c) {
					f[i] = m.twin(c)
				}
			case *TAMCont:
				m.queuePin(c.Frame)
			}
		}
	}
}
