package machine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

// This file implements the TAM (Tycoon Abstract Machine) code generator:
// the target of the paper's back end (Fig. 3). TML compiles to flat
// instruction blocks:
//
//   - every proc abstraction becomes a CodeBlock with a slot frame;
//   - continuation abstractions that stay within their proc compile to
//     join points — labels in the same block sharing the frame — so the
//     common case (straight-line CPS chains, conditionals, Y loops) runs
//     without closure allocation;
//   - continuations that escape (passed to an unknown procedure) are
//     reified as records on the machine's continuation stack, pointing
//     at the frame (see contstack.go);
//   - the Y primitive disappears at compile time: continuation bindings
//     become labels (loops become jumps), procedure bindings become
//     closures tied through mutable cells.
//
// During compilation every jump target holds a label ID; resolveLabels
// rewrites them to instruction addresses once all join points are placed.
//
// The TAM plays the rôle of executable native code in the paper's
// experiments: its serialised size is the "code size" of E3 and its
// execution speed the baseline of E1/E2.

// SrcKind discriminates instruction operands.
type SrcKind uint8

// Operand kinds.
const (
	SrcSlot SrcKind = iota // frame slot
	SrcLit                 // literal pool entry
	SrcFree                // captured free variable
)

// Src is an instruction operand.
type Src struct {
	Kind SrcKind
	Idx  int
}

// Op is a TAM opcode.
type Op uint8

// The TAM instruction set.
const (
	OpMove    Op = iota // frame[Dst] = load(Srcs[0])
	OpClos              // frame[Dst] = closure(Block, captures Srcs)
	OpCont              // frame[Dst] = continuation(Target, ParamSlots, current frame)
	OpCell              // frame[Dst] = fresh cell
	OpSetCell           // cell(frame[Dst]).V = load(Srcs[0])
	OpJump              // pc = Target
	OpPrim              // execute Prim on loads(Srcs); continue per Conts
	OpCall              // tail-call load(Fn) with loads(Srcs)
)

// ContRef is how a primitive instruction refers to one of its
// continuation arguments: either a join-point label in the same block
// (results written to ParamSlots, jump to PC — no allocation) or a value
// operand holding a continuation closure.
type ContRef struct {
	IsLabel    bool
	PC         int   // label target (IsLabel; label ID before resolution)
	ParamSlots []int // where the label's parameters live (IsLabel)
	Src        Src   // continuation value (!IsLabel)
}

// Instr is one TAM instruction.
type Instr struct {
	Op     Op
	Dst    int
	Block  int // OpClos: callee block index
	Target int // OpJump, OpCont (label ID before resolution)
	Prim   string
	Fn     Src
	Srcs   []Src
	Conts  []ContRef
	// ParamSlots, for OpCont, are the parameter slots of the reified
	// label (results are written there when the continuation is invoked).
	ParamSlots []int

	// Execution metadata computed by prepareProgram (derived, never
	// serialised; the zero values select the safe generic path).
	//
	// std is the standard executor of this OpPrim, resolved once so the
	// VM never looks a standard primitive up by name; nil for a
	// machine-local primitive (the query operators), which the VM
	// resolves through the machine.
	std ExecFunc
	// fast, when non-nil, is the fused load-slot/apply-primitive/branch
	// executor for this OpPrim, whatever its continuations are: a label
	// branch is a frame write and a jump, a value branch a transfer
	// straight from the result.
	fast fastFn
	// contsInert marks an OpPrim whose executor never retains or inspects
	// a continuation: the executor receives a shared placeholder slice
	// instead of freshly reified TAMConts, and the VM itself loads the
	// continuation the outcome selects.
	contsInert bool
	// ret classifies an OpCont (see analyzeConts): a return point feeding
	// only the next call holds 1 + its position among that call's return
	// points, an activation record 0.
	ret int
	// leaves marks an OpCall, or an OpPrim's value continuations, that
	// pass on no continuation this activation reified: taking it, the
	// activation is done, and its stack records are popped.
	leaves bool
}

// CodeBlock is the compiled form of one proc abstraction plus all the
// join points flattened into it.
type CodeBlock struct {
	Name    string
	NParams int
	NSlots  int
	Lits    []Value // scalar and Ref literals only
	Instrs  []Instr
	// FreeNames documents the captured variables (diagnostics, linker,
	// and the reflective optimizer's binding table alignment).
	FreeNames []string
	// Labels records every join point (pc and parameter slots). The
	// decompiler (see decompile.go) uses it to invert code generation —
	// the paper's §6 "reconstruct a TML representation by examining the
	// persistent executable code representation".
	Labels []LabelInfo

	// Escape analysis computed by prepareProgram (derived, never
	// serialised; the zero values are the conservative answers).
	//
	// frameSafe reports that no reference to an activation's frame can
	// survive the activation: the block reifies no continuation (OpCont)
	// and calls no continuation-capturing primitive. The VM recycles
	// frames of frameSafe blocks on its free-list when control leaves.
	frameSafe bool
	// contSafe relaxes frameSafe to blocks whose only references to the
	// frame are the records OpCont pushes: the VM recycles the frame when
	// control leaves with the continuation stack back at the activation's
	// entry depth (no record left to point at it) and no frame pinned
	// since the activation started (see contstack.go).
	contSafe bool
	// memo holds what a substrate package derived from this block's
	// immutable code (see Program.BlockMemo).
	memo atomic.Pointer[any]
}

// LabelInfo describes one join point of a block.
type LabelInfo struct {
	PC         int
	ParamSlots []int
}

// Program is a set of blocks with a designated entry block.
type Program struct {
	Blocks []*CodeBlock
	Entry  int

	// prepared records that prepareProgram has run; programs are
	// immutable (and shared across goroutines) once published.
	prepared bool
}

// EntryBlock returns the entry code block.
func (p *Program) EntryBlock() *CodeBlock { return p.Blocks[p.Entry] }

// BlockMemo returns the value build derives from block blk, computing it
// on first use and keeping it — nil results included — for the life of
// the program, so whatever holds the program (the pipeline cache, a
// linked closure) holds the derived form with it. Concurrent first calls
// may each run build; one result wins. relalg keeps a predicate block's
// vectorized form here.
func (p *Program) BlockMemo(blk int, build func() any) any {
	slot := &p.Blocks[blk].memo
	if v := slot.Load(); v != nil {
		return *v
	}
	v := build()
	slot.CompareAndSwap(nil, &v)
	return *slot.Load()
}

// TAMClosure is a compiled procedure value.
type TAMClosure struct {
	Prog *Program
	Blk  int
	Free []Value
	Name string
}

func (*TAMClosure) value() {}

// Show renders the compiled closure.
func (c *TAMClosure) Show() string {
	if c.Name != "" {
		return "tamproc " + c.Name
	}
	return "tamproc"
}

// TAMCont is a reified continuation: a code label plus the frame (and
// captured free variables) it continues in. Compiled code pushes most of
// them on the machine's continuation stack (see contstack.go); a TAMCont
// on the heap is one that stack discipline cannot cover.
type TAMCont struct {
	Prog       *Program
	Blk        int
	PC         int
	Frame      []Value
	Free       []Value
	ParamSlots []int

	// low is the continuation-stack depth invoking the continuation pops
	// to; base and epoch are those of the activation it resumes (see
	// contstack.go).
	low, base int
	epoch     int64
}

func (*TAMCont) value() {}

// Show renders the continuation.
func (c *TAMCont) Show() string { return "tamcont" }

// Cell is the mutable binding cell tying recursive closures created for
// Y procedure bindings. Operand loads dereference cells transparently.
type Cell struct{ V Value }

func (*Cell) value() {}

// Show renders the cell.
func (c *Cell) Show() string {
	if c.V == nil {
		return "cell(unset)"
	}
	return "cell(…)"
}

// CompileProc compiles a proc abstraction to a TAM program whose entry
// block expects the abstraction's parameters plus its two continuations.
// Free variables of the abstraction become the entry closure's captures,
// in the order reported by the entry block's FreeNames.
func CompileProc(abs *tml.Abs, name string) (*Program, error) {
	prog, _, err := compileProcFree(abs, name)
	return prog, err
}

// compileProcFree is CompileProc keeping the captured free variables of
// the entry block (in capture order, aligned with FreeNames).
func compileProcFree(abs *tml.Abs, name string) (*Program, []*tml.Var, error) {
	c := &compiler{prog: &Program{}}
	entry, free, err := c.compileAbs(abs, name, nil)
	if err != nil {
		return nil, nil, err
	}
	c.prog.Entry = entry
	prepareProgram(c.prog)
	return c.prog, free, nil
}

// CompileClosure compiles abs into a TAM closure, taking the values of
// its free variables from vals (aligned with vars). The linker uses it
// to run a module constant's initialiser on the machine that installs
// the module.
func CompileClosure(abs *tml.Abs, name string, vars []*tml.Var, vals []Value) (*TAMClosure, error) {
	prog, freeVars, err := compileProcFree(abs, name)
	if err != nil {
		return nil, err
	}
	free := make([]Value, len(freeVars))
	for i, v := range freeVars {
		j := slices.Index(vars, v)
		if j < 0 {
			return nil, rtErr("compile", "%s: unbound free variable %s", name, v)
		}
		free[i] = vals[j]
	}
	return &TAMClosure{Prog: prog, Blk: prog.Entry, Free: free, Name: name}, nil
}

type compiler struct {
	prog *Program
}

type bindKind uint8

const (
	bindSlot bindKind = iota
	bindFree
	bindLabel
)

// binding records how a variable is addressed inside a block.
type binding struct {
	kind  bindKind
	slot  int    // bindSlot
	free  int    // bindFree
	label *label // bindLabel
}

// label is a join point: a continuation abstraction flattened into the
// current block.
type label struct {
	id         int
	abs        *tml.Abs
	paramSlots []int
}

// blockCtx carries the state of one block's compilation.
type blockCtx struct {
	c      *compiler
	parent *blockCtx
	block  *CodeBlock
	vars   map[*tml.Var]*binding
	// freeVars lists captured variables in capture order; OpClos loads
	// them in the same order.
	freeVars []*tml.Var
	litIdx   map[litKey]int
	labels   []*label
	pending  []*label
	labelPCs []int
}

type litKey struct {
	kind byte
	i    int64
	s    string
}

// compileAbs compiles a proc abstraction into a new block, returning the
// block index and the captured free variables (to be resolved in parent).
func (c *compiler) compileAbs(abs *tml.Abs, name string, parent *blockCtx) (int, []*tml.Var, error) {
	blk := &CodeBlock{Name: name, NParams: len(abs.Params)}
	idx := len(c.prog.Blocks)
	c.prog.Blocks = append(c.prog.Blocks, blk)
	ctx := &blockCtx{
		c:      c,
		parent: parent,
		block:  blk,
		vars:   make(map[*tml.Var]*binding),
		litIdx: make(map[litKey]int),
	}
	for i, p := range abs.Params {
		ctx.vars[p] = &binding{kind: bindSlot, slot: i}
	}
	blk.NSlots = len(abs.Params)
	if err := ctx.emitApp(abs.Body); err != nil {
		return 0, nil, err
	}
	if err := ctx.flushPending(); err != nil {
		return 0, nil, err
	}
	ctx.resolveLabels()
	for _, lbl := range ctx.labels {
		if lbl.id < len(ctx.labelPCs) && ctx.labelPCs[lbl.id] >= 0 {
			blk.Labels = append(blk.Labels, LabelInfo{PC: ctx.labelPCs[lbl.id], ParamSlots: lbl.paramSlots})
		}
	}
	for _, v := range ctx.freeVars {
		blk.FreeNames = append(blk.FreeNames, v.String())
	}
	return idx, ctx.freeVars, nil
}

// newSlot allocates a frame slot.
func (ctx *blockCtx) newSlot() int {
	s := ctx.block.NSlots
	ctx.block.NSlots++
	return s
}

// emit appends an instruction and returns its pc.
func (ctx *blockCtx) emit(in Instr) int {
	ctx.block.Instrs = append(ctx.block.Instrs, in)
	return len(ctx.block.Instrs) - 1
}

// lit interns a literal value in the block pool.
func (ctx *blockCtx) lit(v Value) Src {
	key := litKeyOf(v)
	if i, ok := ctx.litIdx[key]; ok {
		return Src{Kind: SrcLit, Idx: i}
	}
	i := len(ctx.block.Lits)
	ctx.block.Lits = append(ctx.block.Lits, v)
	ctx.litIdx[key] = i
	return Src{Kind: SrcLit, Idx: i}
}

func litKeyOf(v Value) litKey {
	switch v := v.(type) {
	case Int:
		return litKey{kind: 'i', i: int64(v)}
	case Real:
		return litKey{kind: 'r', s: v.Show()}
	case Bool:
		if v {
			return litKey{kind: 'b', i: 1}
		}
		return litKey{kind: 'b', i: 0}
	case Char:
		return litKey{kind: 'c', i: int64(v)}
	case Str:
		return litKey{kind: 's', s: string(v)}
	case Unit:
		return litKey{kind: 'u'}
	case Ref:
		return litKey{kind: 'o', i: int64(v.OID)}
	default:
		return litKey{kind: '?', s: fmt.Sprintf("%p", v)}
	}
}

// newLabel registers a continuation abstraction as a join point of the
// current block: parameters get frame slots, the body is scheduled for
// emission, and the returned label's ID stands in for the target pc until
// resolveLabels runs.
func (ctx *blockCtx) newLabel(abs *tml.Abs) *label {
	slots := make([]int, len(abs.Params))
	for i, p := range abs.Params {
		s := ctx.newSlot()
		slots[i] = s
		ctx.vars[p] = &binding{kind: bindSlot, slot: s}
	}
	lbl := &label{id: len(ctx.labels), abs: abs, paramSlots: slots}
	ctx.labels = append(ctx.labels, lbl)
	ctx.pending = append(ctx.pending, lbl)
	return lbl
}

// flushPending emits the bodies of all scheduled join points (which may
// schedule further ones).
func (ctx *blockCtx) flushPending() error {
	ctx.labelPCs = make([]int, 0, len(ctx.labels))
	emitted := make(map[int]bool)
	for len(ctx.pending) > 0 {
		lbl := ctx.pending[0]
		ctx.pending = ctx.pending[1:]
		if emitted[lbl.id] {
			continue
		}
		emitted[lbl.id] = true
		for len(ctx.labelPCs) <= lbl.id {
			ctx.labelPCs = append(ctx.labelPCs, -1)
		}
		ctx.labelPCs[lbl.id] = len(ctx.block.Instrs)
		if err := ctx.emitApp(lbl.abs.Body); err != nil {
			return err
		}
	}
	return nil
}

// resolveLabels rewrites label IDs into instruction addresses.
func (ctx *blockCtx) resolveLabels() {
	pc := func(id int) int {
		if id < 0 || id >= len(ctx.labelPCs) || ctx.labelPCs[id] < 0 {
			panic(fmt.Sprintf("tam: unresolved label %d in block %s", id, ctx.block.Name))
		}
		return ctx.labelPCs[id]
	}
	for i := range ctx.block.Instrs {
		in := &ctx.block.Instrs[i]
		switch in.Op {
		case OpJump, OpCont:
			in.Target = pc(in.Target)
		case OpPrim:
			for j := range in.Conts {
				if in.Conts[j].IsLabel {
					in.Conts[j].PC = pc(in.Conts[j].PC)
				}
			}
		}
	}
}

// lookup resolves a variable: locally, or by capturing it from the parent
// chain as a free variable.
func (ctx *blockCtx) lookup(v *tml.Var) (*binding, error) {
	if b, ok := ctx.vars[v]; ok {
		return b, nil
	}
	// Not local: capture as a free variable. In nested blocks the parent
	// must be able to address it (transitively capturing it itself); in
	// the entry block the variable is free in the whole procedure and its
	// value arrives through the closure's capture list, aligned with the
	// R-value binding table of the closure record (paper §4.1).
	if ctx.parent != nil {
		if _, err := ctx.parent.lookup(v); err != nil {
			return nil, err
		}
	}
	idx := len(ctx.freeVars)
	ctx.freeVars = append(ctx.freeVars, v)
	b := &binding{kind: bindFree, free: idx}
	ctx.vars[v] = b
	return b, nil
}

// valueSrc compiles a TML value into an operand, emitting closure or
// continuation construction as needed.
func (ctx *blockCtx) valueSrc(v tml.Value) (Src, error) {
	switch v := v.(type) {
	case *tml.Lit, *tml.Oid:
		val, _ := LitValue(v)
		return ctx.lit(val), nil
	case *tml.Var:
		b, err := ctx.lookup(v)
		if err != nil {
			return Src{}, err
		}
		switch b.kind {
		case bindSlot:
			return Src{Kind: SrcSlot, Idx: b.slot}, nil
		case bindFree:
			return Src{Kind: SrcFree, Idx: b.free}, nil
		case bindLabel:
			// A label used as a value escapes: reify it.
			return ctx.reifyLabel(b.label), nil
		}
		return Src{}, fmt.Errorf("tam: unhandled binding kind %d", b.kind)
	case *tml.Abs:
		if v.IsCont() {
			return ctx.reifyLabel(ctx.newLabel(v)), nil
		}
		return ctx.closureSrc(v, "")
	case *tml.Prim:
		return Src{}, fmt.Errorf("tam: primitive %s is not a first-class value", v.Name)
	default:
		return Src{}, fmt.Errorf("tam: unexpected value %T", v)
	}
}

// reifyLabel materialises a join point as a continuation value capturing
// the current frame.
func (ctx *blockCtx) reifyLabel(lbl *label) Src {
	dst := ctx.newSlot()
	ctx.emit(Instr{Op: OpCont, Dst: dst, Target: lbl.id, ParamSlots: lbl.paramSlots})
	return Src{Kind: SrcSlot, Idx: dst}
}

// closureSrc emits OpClos for a proc abstraction.
func (ctx *blockCtx) closureSrc(abs *tml.Abs, name string) (Src, error) {
	blkIdx, freeVars, err := ctx.c.compileAbs(abs, name, ctx)
	if err != nil {
		return Src{}, err
	}
	caps := make([]Src, len(freeVars))
	for i, fv := range freeVars {
		src, err := ctx.valueSrc(fv)
		if err != nil {
			return Src{}, err
		}
		caps[i] = src
	}
	dst := ctx.newSlot()
	ctx.emit(Instr{Op: OpClos, Dst: dst, Block: blkIdx, Srcs: caps})
	return Src{Kind: SrcSlot, Idx: dst}, nil
}

// contRef compiles a continuation argument of a primitive.
func (ctx *blockCtx) contRef(v tml.Value) (ContRef, error) {
	switch v := v.(type) {
	case *tml.Abs:
		lbl := ctx.newLabel(v)
		return ContRef{IsLabel: true, PC: lbl.id, ParamSlots: lbl.paramSlots}, nil
	case *tml.Var:
		b, err := ctx.lookup(v)
		if err != nil {
			return ContRef{}, err
		}
		if b.kind == bindLabel {
			return ContRef{IsLabel: true, PC: b.label.id, ParamSlots: b.label.paramSlots}, nil
		}
		src, err := ctx.valueSrc(v)
		if err != nil {
			return ContRef{}, err
		}
		return ContRef{Src: src}, nil
	default:
		return ContRef{}, fmt.Errorf("tam: continuation argument is %T", v)
	}
}

// emitApp compiles one application; since TML is CPS, every application
// ends the current straight-line sequence with a transfer of control.
func (ctx *blockCtx) emitApp(app *tml.App) error {
	switch fn := app.Fn.(type) {
	case *tml.Prim:
		if fn.Name == "Y" {
			return ctx.emitY(app)
		}
		return ctx.emitPrim(fn.Name, app.Args)
	case *tml.Var:
		b, err := ctx.lookup(fn)
		if err != nil {
			return err
		}
		if b.kind == bindLabel {
			// Direct jump to a join point: move arguments into the
			// label's parameter slots.
			if len(app.Args) != len(b.label.paramSlots) {
				return fmt.Errorf("tam: label %s arity mismatch", fn)
			}
			if err := ctx.emitParallelMoves(app.Args, b.label.paramSlots); err != nil {
				return err
			}
			ctx.emit(Instr{Op: OpJump, Target: b.label.id})
			return nil
		}
		return ctx.emitCall(app.Fn, app.Args)
	case *tml.Oid:
		// Calling through an object identifier: the VM links the
		// persistent closure on first application.
		return ctx.emitCall(app.Fn, app.Args)
	case *tml.Abs:
		// β-redex: bind arguments to fresh slots and continue inline.
		if len(fn.Params) != len(app.Args) {
			return fmt.Errorf("tam: β-redex arity mismatch")
		}
		for i, p := range fn.Params {
			src, err := ctx.valueSrc(app.Args[i])
			if err != nil {
				return err
			}
			dst := ctx.newSlot()
			ctx.emit(Instr{Op: OpMove, Dst: dst, Srcs: []Src{src}})
			ctx.vars[p] = &binding{kind: bindSlot, slot: dst}
		}
		return ctx.emitApp(fn.Body)
	default:
		return fmt.Errorf("tam: cannot apply %T", app.Fn)
	}
}

// emitParallelMoves writes argument values into target slots, using
// temporaries when a target slot is also a source (loop back-edges).
func (ctx *blockCtx) emitParallelMoves(args []tml.Value, dsts []int) error {
	srcs := make([]Src, len(args))
	for i, a := range args {
		src, err := ctx.valueSrc(a)
		if err != nil {
			return err
		}
		srcs[i] = src
	}
	// Break read-after-write hazards: if any later source reads a slot an
	// earlier move overwrites, stage through temporaries. Staging every
	// conflicting move is simple and the frames are registers, not memory.
	targets := make(map[int]bool, len(dsts))
	for _, d := range dsts {
		targets[d] = true
	}
	for i, src := range srcs {
		if src.Kind == SrcSlot && targets[src.Idx] && src.Idx != dsts[i] {
			tmp := ctx.newSlot()
			ctx.emit(Instr{Op: OpMove, Dst: tmp, Srcs: []Src{src}})
			srcs[i] = Src{Kind: SrcSlot, Idx: tmp}
		}
	}
	for i, src := range srcs {
		if src.Kind == SrcSlot && src.Idx == dsts[i] {
			continue
		}
		ctx.emit(Instr{Op: OpMove, Dst: dsts[i], Srcs: []Src{src}})
	}
	return nil
}

// emitPrim compiles a primitive application.
func (ctx *blockCtx) emitPrim(name string, args []tml.Value) error {
	var nodeVals, nodeConts []tml.Value
	if d, ok := prim.Lookup(name); ok && d.NConts >= 0 {
		split := len(args) - d.NConts
		if split < 0 {
			return fmt.Errorf("tam: primitive %s with too few arguments", name)
		}
		nodeVals, nodeConts = args[:split], args[split:]
	} else {
		nodeVals, nodeConts = tml.SplitArgs(args)
	}
	srcs := make([]Src, len(nodeVals))
	for i, a := range nodeVals {
		src, err := ctx.valueSrc(a)
		if err != nil {
			return err
		}
		srcs[i] = src
	}
	conts := make([]ContRef, len(nodeConts))
	for i, a := range nodeConts {
		ref, err := ctx.contRef(a)
		if err != nil {
			return err
		}
		conts[i] = ref
	}
	ctx.emit(Instr{Op: OpPrim, Prim: name, Srcs: srcs, Conts: conts})
	return nil
}

// emitCall compiles a call of an unknown procedure: every argument —
// including continuations — is passed as a value.
func (ctx *blockCtx) emitCall(fn tml.Value, args []tml.Value) error {
	fnSrc, err := ctx.valueSrc(fn)
	if err != nil {
		return err
	}
	srcs := make([]Src, len(args))
	for i, a := range args {
		src, err := ctx.valueSrc(a)
		if err != nil {
			return err
		}
		srcs[i] = src
	}
	ctx.emit(Instr{Op: OpCall, Fn: fnSrc, Srcs: srcs})
	return nil
}

// emitY compiles (Y λ(c₀ v₁…vₙ c)(c cont₀ abs₁…absₙ)): continuation
// bindings become join points (loops become jumps), procedure bindings
// become closures tied through cells, and control falls through to the
// entry continuation cont₀.
func (ctx *blockCtx) emitY(app *tml.App) error {
	if len(app.Args) != 1 {
		return fmt.Errorf("tam: Y expects one abstraction")
	}
	yAbs, ok := app.Args[0].(*tml.Abs)
	if !ok || len(yAbs.Params) < 2 {
		return fmt.Errorf("tam: malformed Y abstraction")
	}
	knot := yAbs.Body
	cVar, ok := knot.Fn.(*tml.Var)
	if !ok || cVar != yAbs.Params[len(yAbs.Params)-1] {
		return fmt.Errorf("tam: Y body must invoke its final continuation")
	}
	if len(knot.Args) != len(yAbs.Params)-1 {
		return fmt.Errorf("tam: Y knot arity mismatch")
	}
	binders := yAbs.Params[:len(yAbs.Params)-1] // c₀ v₁…vₙ
	type recProc struct {
		v    *tml.Var
		abs  *tml.Abs
		cell int
	}
	var procs []recProc
	// First pass: declare all bindings so that bodies can reference each
	// other (mutual recursion). A knot argument that is a *variable*
	// (η-reduction contracts cont()(loop) to loop) aliases another knot
	// binding and is resolved after the declarations exist.
	type aliasRef struct{ v, target *tml.Var }
	var aliases []aliasRef
	for i, arg := range knot.Args {
		v := binders[i]
		switch arg := arg.(type) {
		case *tml.Abs:
			if arg.IsCont() {
				lbl := ctx.newLabel(arg)
				ctx.vars[v] = &binding{kind: bindLabel, label: lbl}
			} else {
				cell := ctx.newSlot()
				ctx.emit(Instr{Op: OpCell, Dst: cell})
				ctx.vars[v] = &binding{kind: bindSlot, slot: cell}
				procs = append(procs, recProc{v: v, abs: arg, cell: cell})
			}
		case *tml.Var:
			aliases = append(aliases, aliasRef{v: v, target: arg})
		default:
			return fmt.Errorf("tam: Y knot argument %d is %T", i, arg)
		}
	}
	for range aliases {
		for _, a := range aliases {
			if ctx.vars[a.v] == nil {
				if b := ctx.vars[a.target]; b != nil {
					ctx.vars[a.v] = b
				}
			}
		}
	}
	for _, a := range aliases {
		if ctx.vars[a.v] == nil {
			return fmt.Errorf("tam: Y knot alias %s unresolved", a.v)
		}
	}
	// Second pass: build the recursive closures and tie the cells.
	for _, rp := range procs {
		src, err := ctx.closureSrc(rp.abs, rp.v.Name)
		if err != nil {
			return err
		}
		ctx.emit(Instr{Op: OpSetCell, Dst: rp.cell, Srcs: []Src{src}})
	}
	// Entry: c₀ is always a continuation label; jump to it.
	entryBinding := ctx.vars[binders[0]]
	if entryBinding.kind != bindLabel {
		return fmt.Errorf("tam: Y entry binding must be a continuation")
	}
	if len(entryBinding.label.paramSlots) != 0 {
		return fmt.Errorf("tam: Y entry continuation must take no parameters")
	}
	ctx.emit(Instr{Op: OpJump, Target: entryBinding.label.id})
	return nil
}
