package machine

import (
	"errors"
	"fmt"
	"io"
	"time"

	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// Machine is the execution context of the TAM virtual machine: the
// persistent store, the output stream of the print primitive, the
// dynamic exception-handler stack (pushHandler / popHandler / raise), a
// step budget that bounds runaway programs and an optional wall-clock
// deadline.
// The code it runs lives in its CodeTable; the machine itself holds
// execution state only and is used by one goroutine at a time.
type Machine struct {
	// Store resolves OID references; nil machines can still run programs
	// that never touch persistent objects.
	Store store.View
	// Out receives the output of the print primitive; nil discards it.
	Out io.Writer
	// MaxSteps bounds the number of applications executed; 0 means
	// DefaultMaxSteps. Exceeding the budget aborts with ErrStepBudget.
	MaxSteps int64
	// Code is the code image this machine links into and runs from (see
	// link.go). New gives each machine a table of its own; machines over
	// one store may share one, as tycd's machines do.
	Code *CodeTable
	// Deadline, when set, bounds the wall-clock time of execution: it is
	// polled every 16384 abstract steps and once per bulk TickN, and a
	// run past it aborts with ErrWallBudget.
	Deadline time.Time

	handlers []Value // dynamic exception handler stack
	hfloor   int     // handler depth at the innermost drive's entry (see drive)
	steps    int64
	execs    map[string]ExecFunc
	// shadowsStd is set when a machine-local executor shadows a standard
	// primitive. Compiled code then resolves every primitive by name and
	// skips the fused executors, so the override is always honoured.
	shadowsStd bool
	// result is the scratch slot behind one-result outcomes (see one).
	result [1]Value
	// opnd is the register file the fused executors read their operands
	// from. A fast executor never re-enters the machine, so it needs no
	// stack discipline; runTAM grows it to the widest fused instruction
	// it meets, and the outermost drive clears it on exit.
	opnd []Value
	// members and links are the per-request memos in front of the store
	// and the CodeTable (see link.go).
	members map[uint64]Value
	links   map[store.OID]Value
	// Execution profile counters (single-goroutine, like steps).
	transfers   int64
	framesAlloc int64
	framesReuse int64
	vecRows     int64
	rowRows     int64
	resolved    int64
	// freeFrames is the TAM frame free-list: a block whose frame provably
	// does not escape (CodeBlock.frameSafe) returns it here when control
	// leaves the block, and transfer reuses it for the next activation —
	// self-recursive tail calls and per-row predicate calls run
	// without frame allocation.
	freeFrames [][]Value
	// valArena is a stack-disciplined scratch buffer for the value
	// arguments of generic primitive executions, calls and Apply (fused
	// primitives read opnd instead). Executors must not retain the
	// vals slice beyond the call (elements may be retained freely); all
	// executors in this repository obey that contract.
	valArena []Value
	// conts is the continuation stack compiled code reifies its return
	// points on (see contstack.go).
	conts contStack
}

// DefaultMaxSteps bounds execution (applications performed) when
// Machine.MaxSteps is zero.
const DefaultMaxSteps = 2_000_000_000

// budgetPollMask spaces out deadline polls: the clock is read when
// steps&budgetPollMask == 0, i.e. every 16384 abstract steps. Coarse
// enough to stay off the hot path, fine enough that a wall-clock budget
// fires within microseconds of expiring.
const budgetPollMask = 1<<14 - 1

// Errors reported by execution.
var (
	// ErrStepBudget aborts programs that exceed MaxSteps.
	ErrStepBudget = errors.New("machine: step budget exceeded")
	// ErrWallBudget aborts programs that run past Deadline (tycd's
	// per-request wall-clock budget).
	ErrWallBudget = errors.New("machine: wall-clock budget exceeded")
	// ErrUnhandled reports an exception that reached the top of the
	// handler stack.
	ErrUnhandled = errors.New("machine: unhandled exception")
)

// RuntimeError carries a TML-level runtime failure (type confusion,
// index out of range, arity mismatch) with context.
type RuntimeError struct {
	Op  string
	Msg string
}

// Error formats the runtime error.
func (e *RuntimeError) Error() string { return fmt.Sprintf("machine: %s: %s", e.Op, e.Msg) }

func rtErr(op, format string, args ...any) error {
	return &RuntimeError{Op: op, Msg: fmt.Sprintf(format, args...)}
}

// New returns a machine executing against the given store (which may be
// nil for pure computations).
func New(st store.View) *Machine {
	// A nil *store.Store must behave like no store at all, not a non-nil
	// interface with a nil receiver inside.
	if s, ok := st.(*store.Store); ok && s == nil {
		st = nil
	}
	return &Machine{Store: st, Code: new(CodeTable), conts: newContStack()}
}

// Steps reports the number of applications executed so far; benchmarks
// use it as a machine-independent work measure.
func (m *Machine) Steps() int64 { return m.steps }

// ResetSteps clears the step counter (between benchmark iterations).
func (m *Machine) ResetSteps() { m.steps = 0 }

// Tick charges one abstract machine step; substrate packages (the
// relational operators) call it per row processed so that bulk data
// traversal and materialisation show up in the work measure.
func (m *Machine) Tick() error { return m.tick() }

// TickN charges n abstract machine steps at once: the bulk operators
// charge one fixed-size batch of rows up front, which moves the budget
// check out of the row loop without changing the total work measure.
func (m *Machine) TickN(n int) error {
	m.steps += int64(n)
	max := m.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	if m.steps > max {
		return ErrStepBudget
	}
	// Bulk charges represent whole row batches; poll once per batch
	// rather than waiting for the mask to line up.
	return m.pollDeadline()
}

func (m *Machine) tick() error {
	m.steps++
	max := m.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	if m.steps > max {
		return ErrStepBudget
	}
	if m.steps&budgetPollMask == 0 {
		return m.pollDeadline()
	}
	return nil
}

// pollDeadline reports ErrWallBudget once the machine has run past its
// Deadline.
func (m *Machine) pollDeadline() error {
	if !m.Deadline.IsZero() && time.Now().After(m.Deadline) {
		return ErrWallBudget
	}
	return nil
}

// Profile is a snapshot of the machine's execution counters: abstract
// steps, engine transfers (control transfers dispatched between closure
// activations), and TAM frame allocation/reuse. tml run -profile prints
// it; the allocation-budget tests assert on it.
type Profile struct {
	Steps       int64
	Transfers   int64
	FramesAlloc int64
	FramesReuse int64
	// VecRows and RowRows split the rows the query operators scanned by
	// the kernel tier that served them: vectorized (no machine re-entry)
	// and row-at-a-time (one Apply per row).
	VecRows, RowRows int64
	// ContsPushed counts the continuation records compiled code pushed on
	// the continuation stack, ContsHeap the continuations that stack
	// discipline could not cover and were allocated on the heap (promoted
	// records, continuations a capturing primitive such as pushHandler
	// receives), and MaxContDepth is the deepest the stack has been.
	ContsPushed, ContsHeap int64
	MaxContDepth           int
	// Resolved counts the library references — module member fetches
	// and applied closure OIDs — served from the per-request memo.
	Resolved int64
}

// Profile reports the machine's execution counters.
func (m *Machine) Profile() Profile {
	return Profile{Steps: m.steps, Transfers: m.transfers,
		FramesAlloc: m.framesAlloc, FramesReuse: m.framesReuse,
		VecRows: m.vecRows, RowRows: m.rowRows,
		ContsPushed: m.conts.pushed, ContsHeap: m.conts.heap,
		MaxContDepth: max(m.conts.maxDepth, m.conts.hwm),
		Resolved:     m.resolved}
}

// AddVecRows records rows served by a vectorized kernel.
func (m *Machine) AddVecRows(n int) { m.vecRows += int64(n) }

// AddRowRows records rows served one Apply at a time.
func (m *Machine) AddRowRows(n int) { m.rowRows += int64(n) }

// ResetProfile clears all execution counters, including steps.
func (m *Machine) ResetProfile() {
	m.steps, m.transfers, m.framesAlloc, m.framesReuse = 0, 0, 0, 0
	m.vecRows, m.rowRows, m.resolved = 0, 0, 0
	m.conts.pushed, m.conts.heap, m.conts.maxDepth = 0, 0, 0
}

// maxPooledFrames bounds the frame free-list; beyond it dead frames are
// left to the garbage collector.
const maxPooledFrames = 64

// getFrame returns a zeroed frame of n slots, preferring the free-list.
func (m *Machine) getFrame(n int) []Value {
	for i := len(m.freeFrames) - 1; i >= 0; i-- {
		f := m.freeFrames[i]
		if cap(f) >= n {
			last := len(m.freeFrames) - 1
			m.freeFrames[i] = m.freeFrames[last]
			m.freeFrames[last] = nil
			m.freeFrames = m.freeFrames[:last]
			f = f[:n]
			clear(f)
			m.framesReuse++
			return f
		}
	}
	m.framesAlloc++
	return make([]Value, n)
}

// putFrame recycles a frame whose block has exited and whose escape
// analysis (CodeBlock.frameSafe) proved no reference to it survives.
func (m *Machine) putFrame(f []Value) {
	if cap(f) == 0 || len(m.freeFrames) >= maxPooledFrames {
		return
	}
	m.freeFrames = append(m.freeFrames, f)
}

// arenaPush reserves n scratch slots for primitive value arguments.
// Discipline is strictly stack-like: a primitive that re-enters the
// machine (the query executors evaluating predicates) pushes above the
// caller's reservation and pops back to it before returning.
func (m *Machine) arenaPush(n int) (int, []Value) {
	base := len(m.valArena)
	if cap(m.valArena) < base+n {
		grown := make([]Value, base, 2*(base+n)+8)
		copy(grown, m.valArena)
		m.valArena = grown
	}
	m.valArena = m.valArena[:base+n]
	return base, m.valArena[base : base+n]
}

// arenaPop releases a reservation, clearing it so values are not retained.
func (m *Machine) arenaPop(base int) {
	clear(m.valArena[base:])
	m.valArena = m.valArena[:base]
}

// PushHandler installs a new exception handler continuation. The handler
// stack outlives the continuation stack's discipline, so a stack record
// installed here is promoted to the heap first.
func (m *Machine) PushHandler(h Value) { m.handlers = append(m.handlers, m.durable(h)) }

// PopHandler removes the topmost exception handler the current entry
// installed; it reports false when there is none above the floor.
func (m *Machine) PopHandler() (Value, bool) {
	if len(m.handlers) <= m.hfloor {
		return nil, false
	}
	h := m.handlers[len(m.handlers)-1]
	m.handlers = m.handlers[:len(m.handlers)-1]
	return h, true
}

// Outcome is what a primitive execution requests next: invoke the
// Branch-th continuation argument with Results, or perform a direct tail
// call (raise transferring to a handler). Results may alias the machine's
// scratch slot (see one): it is valid until the next primitive runs, and
// every consumer copies it out before then.
type Outcome struct {
	Branch  int
	Results []Value
	// Tail, when non-nil, overrides Branch: control transfers to Fn.
	Tail *TailCall
}

// TailCall is a direct transfer of control to a continuation or procedure
// value.
type TailCall struct {
	Fn   Value
	Args []Value
}

// ExecFunc executes one primitive call: vals are the value arguments and
// conts the continuation arguments (as runtime values). Most primitives
// only return a Branch index into conts; the handler primitives inspect
// conts directly (pushHandler installs conts[0]) and raise returns a Tail
// transfer. The returned Results may alias machine scratch, as on
// Outcome.
type ExecFunc func(m *Machine, vals, conts []Value) (Outcome, error)

// RegisterExec adds a primitive executor; the relational substrate
// registers the query primitives this way, mirroring how new primitives
// extend the compile-time registry (paper §2.3). Executors must follow
// the descriptor flags of their primitive: retaining a continuation
// argument requires CapturesConts — the TAM's frame reuse and
// inert-continuation passing rely on it.
func (m *Machine) RegisterExec(name string, f ExecFunc) {
	if m.execs == nil {
		m.execs = make(map[string]ExecFunc)
	}
	if _, std := stdExecs[name]; std {
		m.shadowsStd = true
	}
	m.execs[name] = f
}

// one returns the outcome invoking continuation branch with the single
// result v. The result lives in the machine's scratch slot, so a
// one-result primitive allocates no Results slice.
func (m *Machine) one(branch int, v Value) Outcome {
	m.result[0] = v
	return Outcome{Branch: branch, Results: m.result[:]}
}

// exec resolves the executor for a primitive name: machine-local
// registrations first, then the standard table. Compiled code resolves
// standard primitives once, in prepareProgram (Instr.std).
func (m *Machine) exec(name string) (ExecFunc, bool) {
	if f, ok := m.execs[name]; ok {
		return f, true
	}
	f, ok := stdExecs[name]
	return f, ok
}

// fetch resolves a store reference to its object.
func (m *Machine) fetch(op string, r Ref) (store.Object, error) {
	if m.Store == nil {
		return nil, rtErr(op, "no store attached for %s", r.Show())
	}
	obj, err := m.Store.Get(r.OID)
	if err != nil {
		return nil, rtErr(op, "%v", err)
	}
	return obj, nil
}

// writer returns the transaction a write to a stored object goes
// through. Only a transaction writes: a machine over the store itself,
// or over no store, refuses before it touches the object.
func (m *Machine) writer(op string) (*store.Txn, error) {
	if tx, ok := m.Store.(*store.Txn); ok {
		return tx, nil
	}
	return nil, rtErr(op, "a stored object is written only inside a transaction")
}

// FromStoreVal converts a store slot value to a runtime value. Scalars
// come from the interning tables, so converting a row of small integers
// and booleans allocates nothing.
func FromStoreVal(v store.Val) Value {
	switch v.Kind {
	case store.ValInt:
		return IntValue(v.Int)
	case store.ValReal:
		return Real(v.Real)
	case store.ValBool:
		return BoolValue(v.Bool)
	case store.ValChar:
		return CharValue(v.Ch)
	case store.ValStr:
		return Str(v.Str)
	case store.ValRef:
		return Ref{OID: v.Ref}
	default:
		return unitVal
	}
}

// ToStoreVal converts a runtime value to a store slot value; heap values
// (arrays, closures) must be persisted explicitly and reported as refs by
// the caller.
func ToStoreVal(v Value) (store.Val, error) {
	switch v := v.(type) {
	case Int:
		return store.IntVal(int64(v)), nil
	case Real:
		return store.RealVal(float64(v)), nil
	case Bool:
		return store.BoolVal(bool(v)), nil
	case Char:
		return store.CharVal(byte(v)), nil
	case Str:
		return store.StrVal(string(v)), nil
	case Ref:
		return store.RefVal(v.OID), nil
	case Unit:
		return store.NilVal(), nil
	default:
		return store.Val{}, rtErr("store", "cannot persist transient %T", v)
	}
}

// LitValue converts a TML literal or OID node to a runtime value.
func LitValue(v tml.Value) (Value, bool) {
	switch v := v.(type) {
	case *tml.Lit:
		switch v.Kind {
		case tml.LitUnit:
			return Unit{}, true
		case tml.LitInt:
			return Int(v.Int), true
		case tml.LitChar:
			return Char(v.Ch), true
		case tml.LitBool:
			return Bool(v.Bool), true
		case tml.LitReal:
			return Real(v.Real), true
		case tml.LitStr:
			return Str(v.Str), true
		}
	case *tml.Oid:
		return Ref{OID: store.OID(v.Ref)}, true
	}
	return nil, false
}

// StoreValToTML lifts a stored R-value into a TML value node: scalars
// become literals, references OID nodes. The reflective optimizer and
// tycd's SUBMIT rebinding use it to re-establish R-value bindings in TML
// (paper §4.1).
func StoreValToTML(v store.Val) tml.Value {
	switch v.Kind {
	case store.ValInt:
		return tml.Int(v.Int)
	case store.ValReal:
		return tml.Real(v.Real)
	case store.ValBool:
		return tml.Bool(v.Bool)
	case store.ValChar:
		return tml.Char(v.Ch)
	case store.ValStr:
		return tml.Str(v.Str)
	case store.ValRef:
		return tml.NewOid(uint64(v.Ref))
	default:
		return tml.Unit()
	}
}
