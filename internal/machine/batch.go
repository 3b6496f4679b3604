package machine

// This file implements the batched calling convention of the query
// kernels (DESIGN.md §9): a Batch prepares one procedure value for
// repeated application — one argument buffer and one pair of top-level
// continuations — so that applying a predicate to the next row costs a
// frame reuse and a transfer instead of the slice and continuation
// allocations Apply performs per call.

// Batch applies one procedure value to many argument tuples.
type Batch struct {
	m       *Machine
	fn      Value
	nargs   int
	args    []Value
	rowSafe bool
}

// NewBatch prepares fn for repeated application with nargs value
// arguments per call (the trailing exception and normal continuations
// are supplied by the batch).
func (m *Machine) NewBatch(fn Value, nargs int) *Batch {
	b := &Batch{m: m, fn: fn, nargs: nargs}
	b.args = make([]Value, nargs+2)
	b.args[nargs] = &Halt{Err: true}
	b.args[nargs+1] = &Halt{Err: false}
	if tc, ok := fn.(*TAMClosure); ok {
		b.rowSafe = tc.Prog.Blocks[tc.Blk].rowSafe
	}
	return b
}

// RowSafe reports that the first argument of a call — the row tuple in
// the query calling convention — provably does not survive the call, so
// the caller may reuse one tuple buffer across the whole batch.
func (b *Batch) RowSafe() bool { return b.rowSafe }

// Call applies the batch procedure to args (len(args) must be the batch
// arity) and runs it to completion. The args slice is not retained.
func (b *Batch) Call(args []Value) (Value, error) {
	copy(b.args[:b.nargs], args)
	return b.m.drive(b.fn, b.args)
}
