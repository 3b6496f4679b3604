package machine

import (
	"fmt"

	"tycoon/internal/tml"
)

// This file implements the inverse of the TAM code generator: paper §6
// closes with "we are currently investigating techniques to reconstruct a
// TML representation by examining the persistent executable code
// representation of a procedure, effectively inverting the target machine
// code generation process", noting that the reconstructed tree "will not
// be isomorphic to the original" and asking "whether this has an impact
// on the possible optimizations".
//
// Decompile answers that question for this system: it symbolically
// executes a code block, turning
//
//   - join-point labels back into continuation abstractions (shared
//     labels are duplicated — the non-isomorphism the paper predicts),
//   - back-edges back into Y loops,
//   - cell-tied recursive closures back into Y procedure bindings,
//   - captures back into free variables named after the binding table.
//
// The result is well-formed TML that optimizes like the PTML original;
// reflectopt.Options.FromCode uses it in place of the stored PTML tree,
// eliminating the ×2 code-size cost of E3 (see EXPERIMENTS.md, E8).

// Decompile reconstructs a TML procedure from compiled code. The
// returned abstraction's free variables carry the names of the entry
// block's capture list, so closure-record bindings resolve against it
// exactly as against a decoded PTML tree. gen supplies fresh variables
// (nil allocates a private generator).
func Decompile(p *Program, gen *tml.VarGen) (*tml.Abs, []*tml.Var, error) {
	return DecompileBlock(p, p.Entry, gen)
}

// DecompileBlock is Decompile for any block of p — the nested blocks the
// closure instruction instantiates (query predicates, local procedures).
// The returned free variables align, index for index, with the block's
// FreeNames and therefore with the Free list of every TAMClosure over it.
func DecompileBlock(p *Program, blk int, gen *tml.VarGen) (*tml.Abs, []*tml.Var, error) {
	if blk < 0 || blk >= len(p.Blocks) {
		return nil, nil, fmt.Errorf("machine: decompile: no block %d", blk)
	}
	if gen == nil {
		gen = tml.NewVarGen()
	}
	d := &decompiler{prog: p, gen: gen}
	return d.block(blk)
}

type decompiler struct {
	prog *Program
	gen  *tml.VarGen
}

// dstate is the symbolic frame of one block during reconstruction.
type dstate struct {
	blk    *CodeBlock
	slots  []tml.Value
	free   []*tml.Var
	labels map[int][]int // pc → param slots
	// active maps loop-head pcs to their reconstructed loop variables.
	active map[int]*tml.Var
	// recursive cell bindings collected in the current linear segment.
	cells []recCell
}

type recCell struct {
	v   *tml.Var
	abs *tml.Abs
}

// block reconstructs one code block as a proc abstraction.
func (d *decompiler) block(idx int) (*tml.Abs, []*tml.Var, error) {
	blk := d.prog.Blocks[idx]
	st := &dstate{
		blk:    blk,
		slots:  make([]tml.Value, blk.NSlots),
		labels: make(map[int][]int, len(blk.Labels)),
		active: make(map[int]*tml.Var),
	}
	for _, l := range blk.Labels {
		st.labels[l.PC] = l.ParamSlots
	}
	params := make([]*tml.Var, blk.NParams)
	for i := range params {
		v := d.gen.Fresh(fmt.Sprintf("p%d", i))
		// Blocks are compiled from proc abstractions: the trailing two
		// parameters are the exception and normal continuations.
		if i >= blk.NParams-2 {
			v.Cont = true
		}
		params[i] = v
		st.slots[i] = v
	}
	for _, name := range blk.FreeNames {
		fv := d.gen.Fresh(name)
		// Re-attach the persistent printed name exactly: the binding
		// table is keyed by it.
		fv.Name, fv.ID = splitPrinted(name)
		st.free = append(st.free, fv)
	}
	body, err := d.segment(st, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("machine: decompiling block %q: %w", blk.Name, err)
	}
	return &tml.Abs{Params: params, Body: body}, st.free, nil
}

// splitPrinted recovers (name, id) from a printed variable name base_N so
// the reconstructed free variable prints identically.
func splitPrinted(printed string) (string, int) {
	for i := len(printed) - 1; i > 0; i-- {
		if printed[i] == '_' {
			n := 0
			ok := i+1 < len(printed)
			for j := i + 1; j < len(printed); j++ {
				c := printed[j]
				if c < '0' || c > '9' {
					ok = false
					break
				}
				n = n*10 + int(c-'0')
			}
			if ok {
				return printed[:i], n
			}
			break
		}
	}
	return printed, 0
}

// read fetches an operand as a TML value; abstractions are α-converted on
// every read so one symbolic value can appear at several use sites
// without violating the unique binding rule.
func (d *decompiler) read(st *dstate, s Src) (tml.Value, error) {
	var v tml.Value
	switch s.Kind {
	case SrcSlot:
		v = st.slots[s.Idx]
	case SrcLit:
		lv, ok := litToTML(st.blk.Lits[s.Idx])
		if !ok {
			return nil, fmt.Errorf("literal %d not representable", s.Idx)
		}
		return lv, nil
	case SrcFree:
		if s.Idx >= len(st.free) {
			return nil, fmt.Errorf("free index %d out of range", s.Idx)
		}
		return st.free[s.Idx], nil
	}
	if v == nil {
		return nil, fmt.Errorf("read of undefined slot %d", s.Idx)
	}
	if abs, ok := v.(*tml.Abs); ok {
		return tml.FreshenAbs(abs, d.gen), nil
	}
	return v, nil
}

func litToTML(v Value) (tml.Value, bool) {
	switch v := v.(type) {
	case Int:
		return tml.Int(int64(v)), true
	case Real:
		return tml.Real(float64(v)), true
	case Bool:
		return tml.Bool(bool(v)), true
	case Char:
		return tml.Char(byte(v)), true
	case Str:
		return tml.Str(string(v)), true
	case Unit:
		return tml.Unit(), true
	case Ref:
		return tml.NewOid(uint64(v.OID)), true
	}
	return nil, false
}

// segment reconstructs the instruction sequence starting at pc up to its
// control transfer.
func (d *decompiler) segment(st *dstate, pc int) (*tml.App, error) {
	for {
		if pc < 0 || pc >= len(st.blk.Instrs) {
			return nil, fmt.Errorf("pc %d out of range", pc)
		}
		in := &st.blk.Instrs[pc]
		switch in.Op {
		case OpMove:
			v, err := d.read(st, in.Srcs[0])
			if err != nil {
				return nil, err
			}
			st.slots[in.Dst] = v
			pc++
		case OpClos:
			abs, err := d.closure(st, in)
			if err != nil {
				return nil, err
			}
			st.slots[in.Dst] = abs
			pc++
		case OpCell:
			// A recursive binding cell: stands for the (not yet known)
			// recursive procedure; OpSetCell supplies it.
			st.slots[in.Dst] = d.gen.Fresh("rec")
			pc++
		case OpSetCell:
			cellVar, ok := st.slots[in.Dst].(*tml.Var)
			if !ok {
				return nil, fmt.Errorf("OpSetCell on non-cell slot %d", in.Dst)
			}
			v, err := d.read(st, in.Srcs[0])
			if err != nil {
				return nil, err
			}
			abs, ok := v.(*tml.Abs)
			if !ok {
				return nil, fmt.Errorf("recursive binding is %T", v)
			}
			st.cells = append(st.cells, recCell{v: cellVar, abs: abs})
			pc++
		case OpCont:
			abs, err := d.label(st, in.Target, in.ParamSlots)
			if err != nil {
				return nil, err
			}
			st.slots[in.Dst] = abs
			pc++
		case OpJump:
			return d.jump(st, in.Target)
		case OpPrim:
			return d.prim(st, in)
		case OpCall:
			fn, err := d.read(st, in.Fn)
			if err != nil {
				return nil, err
			}
			args, err := d.reads(st, in.Srcs)
			if err != nil {
				return nil, err
			}
			return d.wrapCells(st, tml.NewApp(fn, args...)), nil
		default:
			return nil, fmt.Errorf("unknown opcode %d", in.Op)
		}
	}
}

func (d *decompiler) reads(st *dstate, srcs []Src) ([]tml.Value, error) {
	out := make([]tml.Value, len(srcs))
	for i, s := range srcs {
		v, err := d.read(st, s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// wrapCells re-ties recursive procedure bindings collected in this
// segment through the Y combinator.
func (d *decompiler) wrapCells(st *dstate, app *tml.App) *tml.App {
	if len(st.cells) == 0 {
		return app
	}
	cells := st.cells
	st.cells = nil
	c0 := d.gen.FreshCont("c0")
	c := d.gen.FreshCont("c")
	params := []*tml.Var{c0}
	knotArgs := []tml.Value{tml.Value(&tml.Abs{Body: app})}
	for _, rc := range cells {
		params = append(params, rc.v)
		knotArgs = append(knotArgs, rc.abs)
	}
	params = append(params, c)
	knot := tml.NewApp(c, knotArgs...)
	return tml.NewApp(tml.NewPrim("Y"), &tml.Abs{Params: params, Body: knot})
}

// closure reconstructs an OpClos: the callee block becomes an abstraction
// whose free variables are substituted by the capture values.
func (d *decompiler) closure(st *dstate, in *Instr) (*tml.Abs, error) {
	inner, innerFree, err := d.block(in.Block)
	if err != nil {
		return nil, err
	}
	if len(innerFree) != len(in.Srcs) {
		return nil, fmt.Errorf("block %d captures %d, instruction provides %d",
			in.Block, len(innerFree), len(in.Srcs))
	}
	if len(innerFree) == 0 {
		return inner, nil
	}
	subst := make(map[*tml.Var]tml.Value, len(innerFree))
	for i, fv := range innerFree {
		v, err := d.read(st, in.Srcs[i])
		if err != nil {
			return nil, err
		}
		subst[fv] = v
	}
	body := tml.SubstMany(inner.Body, subst).(*tml.App)
	return &tml.Abs{Params: inner.Params, Body: body}, nil
}

// label reconstructs a join point as a continuation abstraction. Shared
// labels are reconstructed once per reference — the duplication the
// paper predicts for non-isomorphic reconstruction.
func (d *decompiler) label(st *dstate, pc int, paramSlots []int) (*tml.Abs, error) {
	// Snapshot the whole symbolic frame: temporaries the label body
	// defines are label-local and must not leak into the continuation of
	// the outer segment.
	saved := append([]tml.Value(nil), st.slots...)
	params := make([]*tml.Var, len(paramSlots))
	for i, slot := range paramSlots {
		v := d.gen.Fresh("t")
		params[i] = v
		st.slots[slot] = v
	}
	body, err := d.segment(st, pc)
	copy(st.slots, saved)
	if err != nil {
		return nil, err
	}
	return &tml.Abs{Params: params, Body: body}, nil
}

// jump reconstructs a transfer to a label: a recursive invocation when
// the label is an active loop head, a fresh Y loop when the label has
// parameters (a potential back-edge target), and plain inlining
// otherwise.
func (d *decompiler) jump(st *dstate, target int) (*tml.App, error) {
	paramSlots, isLabel := st.labels[target]
	if lv, ok := st.active[target]; ok {
		args := make([]tml.Value, len(paramSlots))
		for i, slot := range paramSlots {
			v := st.slots[slot]
			if v == nil {
				return nil, fmt.Errorf("loop argument slot %d undefined", slot)
			}
			if abs, isAbs := v.(*tml.Abs); isAbs {
				v = tml.FreshenAbs(abs, d.gen)
			}
			args[i] = v
		}
		return d.wrapCells(st, tml.NewApp(lv, args...)), nil
	}
	if !isLabel || len(paramSlots) == 0 {
		// Entry jumps and parameterless labels inline; guard against
		// self-loops by registering a loop variable anyway.
		lv := d.gen.FreshCont("loop")
		st.active[target] = lv
		body, err := d.segment(st, target)
		delete(st.active, target)
		if err != nil {
			return nil, err
		}
		if tml.Count(body, lv) == 0 {
			return d.wrapCells(st, body), nil
		}
		// The parameterless label loops back to itself: tie it with Y.
		c0 := d.gen.FreshCont("c0")
		c := d.gen.FreshCont("c")
		knot := tml.NewApp(c, tml.Value(&tml.Abs{Body: tml.NewApp(lv)}), tml.Value(&tml.Abs{Body: body}))
		yArg := &tml.Abs{Params: []*tml.Var{c0, lv, c}, Body: knot}
		return d.wrapCells(st, tml.NewApp(tml.NewPrim("Y"), yArg)), nil
	}

	// A label with parameters reached by jump: reconstruct as a Y loop.
	lv := d.gen.FreshCont("loop")
	st.active[target] = lv
	initArgs := make([]tml.Value, len(paramSlots))
	saved := make([]tml.Value, len(paramSlots))
	params := make([]*tml.Var, len(paramSlots))
	for i, slot := range paramSlots {
		initArgs[i] = st.slots[slot]
		if initArgs[i] == nil {
			return nil, fmt.Errorf("loop entry slot %d undefined", slot)
		}
		if abs, isAbs := initArgs[i].(*tml.Abs); isAbs {
			initArgs[i] = tml.FreshenAbs(abs, d.gen)
		}
		saved[i] = st.slots[slot]
		p := d.gen.Fresh("t")
		params[i] = p
		st.slots[slot] = p
	}
	body, err := d.segment(st, target)
	for i, slot := range paramSlots {
		st.slots[slot] = saved[i]
	}
	delete(st.active, target)
	if err != nil {
		return nil, err
	}
	c0 := d.gen.FreshCont("c0")
	c := d.gen.FreshCont("c")
	entry := &tml.Abs{Body: tml.NewApp(lv, initArgs...)}
	head := &tml.Abs{Params: params, Body: body}
	knot := tml.NewApp(c, tml.Value(entry), tml.Value(head))
	yArg := &tml.Abs{Params: []*tml.Var{c0, lv, c}, Body: knot}
	return d.wrapCells(st, tml.NewApp(tml.NewPrim("Y"), yArg)), nil
}

// prim reconstructs a primitive application; label continuations become
// continuation abstractions.
func (d *decompiler) prim(st *dstate, in *Instr) (*tml.App, error) {
	args, err := d.reads(st, in.Srcs)
	if err != nil {
		return nil, err
	}
	for _, ref := range in.Conts {
		if ref.IsLabel {
			if lv, ok := st.active[ref.PC]; ok {
				// A primitive branch looping straight back to an active
				// head (no argument moves): η-style reference.
				if len(ref.ParamSlots) == 0 {
					args = append(args, lv)
					continue
				}
				return nil, fmt.Errorf("primitive %s branches into active loop with parameters", in.Prim)
			}
			abs, err := d.label(st, ref.PC, ref.ParamSlots)
			if err != nil {
				return nil, err
			}
			args = append(args, abs)
		} else {
			v, err := d.read(st, ref.Src)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
	}
	return d.wrapCells(st, tml.NewApp(tml.NewPrim(in.Prim), args...)), nil
}
