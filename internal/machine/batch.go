package machine

import "tycoon/internal/tml"

// This file implements the batched calling convention of the query
// kernels (DESIGN.md §9): a Batch prepares one procedure value for
// repeated application — one argument buffer, one pair of top-level
// continuations, and (when provably step-neutral) a one-time compilation
// of the procedure to TAM code — so that applying a predicate to the
// next row costs a frame reuse and a transfer instead of the slice and
// continuation allocations Apply performs per call.

// Batch applies one procedure value to many argument tuples.
type Batch struct {
	m       *Machine
	fn      Value
	target  Value
	nargs   int
	args    []Value
	rowSafe bool
}

// NewBatch prepares fn for repeated application with nargs value
// arguments per call (the trailing exception and normal continuations
// are supplied by the batch). When compile is true, fn is an interpreted
// closure, and compiling it provably preserves the abstract step count
// (StepNeutral), the closure is compiled to TAM code once, so every call
// runs on the frame free-list without re-entering the tree interpreter.
// Compilation failures are not errors — the batch falls back to the
// interpreted closure.
func (m *Machine) NewBatch(fn Value, nargs int, compile bool) *Batch {
	b := &Batch{m: m, fn: fn, target: fn, nargs: nargs}
	b.args = make([]Value, nargs+2)
	b.args[nargs] = &Halt{Err: true}
	b.args[nargs+1] = &Halt{Err: false}
	if clo, ok := fn.(*Closure); ok && compile &&
		len(clo.Abs.Params) == nargs+2 && StepNeutral(clo.Abs) {
		if tc, err := CompileClosure(clo); err == nil {
			b.target = tc
		}
	}
	if tc, ok := b.target.(*TAMClosure); ok {
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
	var st execState
	return b.m.drive(&st, b.target, b.args)
}

// StepNeutral reports that compiling abs to TAM code preserves the
// abstract step count. The interpreter charges a step for every
// primitive execution and every procedure entry; it also charges for Y
// applications and for entering a non-continuation abstraction in
// function position (a β-redex), both of which the code generator
// compiles away (Y into labels and cells, β-redexes into moves). A
// procedure is step-neutral exactly when neither shape occurs anywhere
// in its body — the normal form the optimizer's expansion produces for
// predicate bodies.
func StepNeutral(abs *tml.Abs) bool { return stepNeutralApp(abs.Body) }

func stepNeutralApp(app *tml.App) bool {
	switch fn := app.Fn.(type) {
	case *tml.Prim:
		if fn.Name == "Y" {
			return false
		}
	case *tml.Abs:
		if !fn.IsCont() {
			return false
		}
	}
	if !stepNeutralVal(app.Fn) {
		return false
	}
	for _, a := range app.Args {
		if !stepNeutralVal(a) {
			return false
		}
	}
	return true
}

func stepNeutralVal(v tml.Value) bool {
	if abs, ok := v.(*tml.Abs); ok {
		return stepNeutralApp(abs.Body)
	}
	return true
}
