package machine

import "tycoon/internal/prim"

// This file implements the fused "load-slot / apply-primitive / branch"
// fast path of the TAM: for the common primitive shapes — indexing,
// comparisons, arithmetic, boolean connectives, case analysis — the
// dispatch through Outcome, with its reified continuations, collapses
// into a direct function returning a branch index and at most one
// interned result. prepareProgram attaches a fast executor to every
// OpPrim of a fused, non-capturing primitive, whatever its continuations
// are. A label branch is a frame write and a jump; a value branch — the
// caller's k in (+ a b ce k), the body of every library-factored operator
// — leaves the block and transfers the result straight to the loaded
// continuation. Either way the primitive executes without allocating.
//
// A fast executor returns branch < 0 to decline — wrong dynamic types,
// faults, store access other than a memoized module member — and the VM
// falls back to the generic executor, which produces the canonical
// outcome (including throws). Fast executors are pure reads of their
// arguments and never re-enter the machine, so re-execution is safe and
// their operands can sit in the machine's register file (Machine.opnd).
// A machine whose RegisterExec shadows a standard primitive skips them
// (Machine.shadowsStd), so the override is always honoured.

// fastFn is a fused primitive executor: branch selects the continuation
// (branch < 0 declines), nres is 0 or 1 results.
type fastFn func(m *Machine, vals []Value, nconts int) (branch int, result Value, nres int)

var fastExecs = map[string]fastFn{}

// maxInertConts bounds the shared placeholder continuation slices.
const maxInertConts = 16

// inertConts[n] is a shared slice of n placeholder continuations, passed
// to executors that never inspect their continuation arguments beyond
// len(conts) (contsInert instructions). The placeholders are inert
// sentinels: transferring control to one is a bug and fails loudly in
// transfer's default case.
var inertConts [maxInertConts + 1][]Value

// labelCont is the inert placeholder standing in for a join-point
// continuation that is never reified.
type labelCont struct{}

func (labelCont) value() {}

// Show renders the placeholder.
func (labelCont) Show() string { return "<join point>" }

func init() {
	for n := range inertConts {
		s := make([]Value, n)
		for i := range s {
			s[i] = labelCont{}
		}
		inertConts[n] = s
	}
	registerFastExecs()
}

func fastIntOp(eval func(a, b int64) (int64, bool)) fastFn {
	return func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		a, ok := vals[0].(Int)
		if !ok {
			return -1, nil, 0
		}
		b, ok := vals[1].(Int)
		if !ok {
			return -1, nil, 0
		}
		r, ok := eval(int64(a), int64(b))
		if !ok {
			return -1, nil, 0 // fault: generic path throws or branches
		}
		return 1, IntValue(r), 1
	}
}

func fastIntNeg(eval func(a int64) (int64, bool)) fastFn {
	return func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		a, ok := vals[0].(Int)
		if !ok {
			return -1, nil, 0
		}
		r, ok := eval(int64(a))
		if !ok {
			return -1, nil, 0
		}
		return 1, IntValue(r), 1
	}
}

func fastIntCmp(eval func(a, b int64) bool) fastFn {
	return func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		a, ok := vals[0].(Int)
		if !ok {
			return -1, nil, 0
		}
		b, ok := vals[1].(Int)
		if !ok {
			return -1, nil, 0
		}
		if eval(int64(a), int64(b)) {
			return 0, nil, 0
		}
		return 1, nil, 0
	}
}

// registerFastExecs fuses the checked integer operators and comparisons
// of prim.IntOps and the connectives of exec.go (boolOps, boolNot) —
// the definitions the generic executors are built from — plus indexing
// and case analysis.
func registerFastExecs() {
	for name, op := range prim.IntOps {
		switch {
		case op.Arith != nil:
			fastExecs[name] = fastIntOp(op.Arith)
		case op.Neg != nil:
			fastExecs[name] = fastIntNeg(op.Neg)
		case op.Cmp != nil:
			fastExecs[name] = fastIntCmp(op.Cmp)
		}
	}

	// ([] a i c): transient aggregate indexing, and a module member this
	// request has already fetched (the memo, link.go). Other store
	// references decline to the generic executor, which fills the memo;
	// out-of-range declines so the generic path raises the proper
	// exception.
	fastExecs["[]"] = func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		i, ok := vals[1].(Int)
		if !ok {
			return -1, nil, 0
		}
		var elems []Value
		switch a := vals[0].(type) {
		case *Vector:
			elems = a.Elems
		case *Array:
			elems = a.Elems
		case Ref:
			key, ok := memberKey(a.OID, int64(i))
			v, hit := m.members[key]
			if !ok || !hit {
				return -1, nil, 0
			}
			m.resolved++
			return 0, v, 1
		default:
			return -1, nil, 0
		}
		if i < 0 || int64(i) >= int64(len(elems)) {
			return -1, nil, 0
		}
		return 0, elems[i], 1
	}

	// (== v t₁…tₙ c₁…cₙ [cElse]): identity case analysis; a fall-through
	// without else declines so the generic path throws.
	fastExecs["=="] = func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		if len(vals) == 0 {
			return -1, nil, 0
		}
		v := vals[0]
		tags := vals[1:]
		hasElse := nconts == len(tags)+1
		if !hasElse && nconts != len(tags) {
			return -1, nil, 0
		}
		for i, tag := range tags {
			if Eq(v, tag) {
				return i, nil, 0
			}
		}
		if hasElse {
			return nconts - 1, nil, 0
		}
		return -1, nil, 0
	}

	fastExecs["if"] = func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		b, ok := vals[0].(Bool)
		if !ok {
			return -1, nil, 0
		}
		if b {
			return 0, nil, 0
		}
		return 1, nil, 0
	}
	fastExecs["not"] = func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		b, ok := vals[0].(Bool)
		if !ok {
			return -1, nil, 0
		}
		return 0, BoolValue(boolNot(bool(b))), 1
	}
	for name, eval := range boolOps {
		fastExecs[name] = fastBoolOp(eval)
	}
}

func fastBoolOp(eval func(a, b bool) bool) fastFn {
	return func(m *Machine, vals []Value, nconts int) (int, Value, int) {
		a, ok := vals[0].(Bool)
		if !ok {
			return -1, nil, 0
		}
		b, ok := vals[1].(Bool)
		if !ok {
			return -1, nil, 0
		}
		return 0, BoolValue(eval(bool(a), bool(b))), 1
	}
}
