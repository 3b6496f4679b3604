// Vectorized predicate evaluation (DESIGN.md §14). A predicate closure
// whose body is built from the recognized CPS shapes — row loads, integer
// comparisons, two-way case analysis, checked arithmetic routed to the
// predicate's own exception continuation, boolean connectives, tuple
// construction and continuation jumps — compiles into a vprog: a tiny
// branch-structured register program over store.Val registers. A
// predicate is a TAM closure, and its vprog compiles from the tree its
// code block decompiles to (paper §6, machine.DecompileBlock), once per
// block. The fused evaluator then runs it over raw store rows (and, for
// the hot integer-comparison shape, over typed column vectors from the
// columnar cache) without boxing a machine.Vector per row and without a
// TAM frame per call.
//
// Semantics are pinned to the TAM step-for-step: every executed vop
// charges one abstract step (the machine ticks before each primitive),
// procedure entry charges one, continuation jumps are free,
// and error values — type-confusion RuntimeErrors, arithmetic-fault
// exception strings — are reproduced byte-identically, so the NoVector
// oracle (one Apply per row) and the steps-parity guards check the
// vectorized kernels row for row and step for step.
package relalg

import (
	"fmt"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/qopt"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// vecBatch is the number of rows a vectorized kernel processes per fused
// pass: traversal cost is charged in lumps of this size.
const vecBatch = 1024

// maxVRegs bounds a vprog's register file; predicates larger than this
// run row at a time.
const maxVRegs = 24

// maxVBlocks bounds compiled control flow (branch bodies are compiled as
// a DAG of blocks); exceeding it falls back.
const maxVBlocks = 128

// Register sentinels for varg.reg.
const (
	regConst = -1 // varg carries a constant in c
	regRow   = -2 // varg names the tuple built by the last vMkRow
)

// varg is one operand of a vop: a register, an embedded constant, or the
// constructed row tuple.
type varg struct {
	reg int
	c   store.Val
}

type vopKind uint8

const (
	vLoad   vopKind = iota // dst = row[col]
	vCmp                   // integer compare a OP b, branch t/f
	vEqV                   // shallow equality a == b, branch t/f
	vArith                 // dst = a OP b; fault raises to the predicate's ce
	vBoolOp                // dst = a AND/OR b, NOT a
	vIfOp                  // boolean branch on a
	vMkRow                 // row tuple := args (project targets)
)

// vop is one instruction. Branching kinds (vCmp, vEqV, vIfOp) terminate
// their block and continue in t or f; the rest fall through in order.
type vop struct {
	kind vopKind
	op   string // source primitive name, used verbatim in error messages
	col  int
	dst  int
	a, b varg
	t, f *vblock
	args []varg
	// arith (vArith) and cmp (vCmp) are op's definition in prim.IntOps,
	// resolved when the vprog is compiled.
	arith func(a, b int64) (int64, bool)
	cmp   func(a, b int64) bool
}

// Block terminal kinds.
const (
	tRet    uint8 = iota // invoke cc with a value
	tRetRow              // invoke cc with the constructed row tuple
	tRaise               // invoke ce with a value
)

type vterm struct {
	kind uint8
	v    varg
}

// vblock is a straight-line run of vops ending in either a branching vop
// (last position) or a terminal.
type vblock struct {
	ops  []vop
	term vterm
}

// vprog is a compiled predicate: a block DAG over a small register file,
// evaluated against one row (select/project/exists) or a concatenated
// pair (join). Registers below nfree hold the closure's captured values:
// the evaluator loads them once per scan and no vop writes them, so one
// vprog serves every closure over the same code.
type vprog struct {
	root   *vblock
	nregs  int
	nfree  int
	ncols  int // one past the highest column loaded: the narrowest row it accepts
	rowCap int // widest vMkRow tuple
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

type vcompiler struct {
	rowVar *tml.Var
	ceVar  *tml.Var
	ccVar  *tml.Var
	binds  map[*tml.Var]varg
	nregs  int
	ncols  int
	rowCap int
	blocks int
}

// compileVProg compiles a predicate abstraction proc(row !ce !cc). Its
// free variables, listed in free, are bound in order to the first
// registers, which the evaluator fills from the closure at hand. nil
// means the predicate is outside the vectorizable fragment and the
// caller must run it row at a time.
func compileVProg(abs *tml.Abs, free []*tml.Var) *vprog {
	if abs == nil || len(abs.Params) != 3 || abs.IsCont() || len(free) > maxVRegs {
		return nil
	}
	ps := abs.Params
	c := &vcompiler{
		rowVar: ps[0], ceVar: ps[1], ccVar: ps[2],
		nregs: len(free),
		binds: make(map[*tml.Var]varg, len(free)),
	}
	for i, v := range free {
		c.binds[v] = varg{reg: i}
	}
	root := c.block(abs.Body)
	if root == nil {
		return nil
	}
	return &vprog{root: root, nregs: c.nregs, nfree: len(free), ncols: c.ncols, rowCap: c.rowCap}
}

func (c *vcompiler) newReg() int {
	if c.nregs >= maxVRegs {
		return -1
	}
	r := c.nregs
	c.nregs++
	return r
}

// arg resolves a TML value argument to a varg: literals and OIDs embed as
// constants, bound continuation parameters alias their defining register,
// and free variables are their capture register. Anything else is
// outside the fragment.
func (c *vcompiler) arg(v tml.Value) (varg, bool) {
	switch v := v.(type) {
	case *tml.Lit, *tml.Oid:
		mv, ok := machine.LitValue(v)
		if !ok {
			return varg{}, false
		}
		sv, err := machine.ToStoreVal(mv)
		if err != nil {
			return varg{}, false
		}
		return varg{reg: regConst, c: sv}, true
	case *tml.Var:
		if v == c.rowVar || v == c.ceVar || v == c.ccVar {
			// The row tuple and the continuations are not first-class in
			// the fragment (a predicate forwarding its whole row runs
			// row at a time).
			return varg{}, false
		}
		if a, ok := c.binds[v]; ok {
			return a, true
		}
		return varg{}, false
	default:
		return varg{}, false
	}
}

// scalarArg resolves an operand that must be a scalar register or
// constant; the row-tuple register is only legal as a cc argument.
func (c *vcompiler) scalarArg(v tml.Value) (varg, bool) {
	a, ok := c.arg(v)
	if !ok || a.reg == regRow {
		return varg{}, false
	}
	return a, true
}

// cont1 checks that v is a one-parameter continuation abstraction.
func cont1(v tml.Value) (*tml.Abs, bool) {
	a, ok := v.(*tml.Abs)
	if !ok || !a.IsCont() || len(a.Params) != 1 {
		return nil, false
	}
	return a, true
}

// cont0 checks that v is a zero-parameter continuation abstraction.
func cont0(v tml.Value) (*tml.Abs, bool) {
	a, ok := v.(*tml.Abs)
	if !ok || !a.IsCont() || len(a.Params) != 0 {
		return nil, false
	}
	return a, true
}

// block compiles an App spine into a vblock, following sequential
// continuations in place and recursing for branches. nil aborts the
// whole compilation.
func (c *vcompiler) block(app *tml.App) *vblock {
	blk := &vblock{}
	for {
		c.blocks++
		if c.blocks > maxVBlocks {
			return nil
		}
		switch fn := app.Fn.(type) {
		case *tml.Var:
			if len(app.Args) != 1 {
				return nil
			}
			a, ok := c.arg(app.Args[0])
			switch fn {
			case c.ccVar:
				if !ok {
					return nil
				}
				if a.reg == regRow {
					// (cc row) returning the constructed tuple.
					blk.term = vterm{kind: tRetRow}
					return blk
				}
				blk.term = vterm{kind: tRet, v: a}
				return blk
			case c.ceVar:
				if !ok || a.reg == regRow {
					return nil
				}
				blk.term = vterm{kind: tRaise, v: a}
				return blk
			default:
				return nil // call into another closure: not vectorizable
			}
		case *tml.Abs:
			// β-redex continuation: binding is a jump, costs nothing.
			if !fn.IsCont() || len(fn.Params) != len(app.Args) {
				return nil
			}
			for i, p := range fn.Params {
				a, ok := c.arg(app.Args[i])
				if !ok {
					return nil
				}
				// regRow re-binds freely: the tuple register is shared.
				c.binds[p] = a
			}
			app = fn.Body
		case *tml.Prim:
			next := c.prim(blk, fn.Name, app.Args)
			if next == nil {
				return nil
			}
			if next == appDone {
				return blk
			}
			app = next
		default:
			return nil
		}
	}
}

// appDone is the sentinel prim() returns when it closed the block with a
// branching vop (whose t/f children are fully compiled).
var appDone = &tml.App{}

// prim compiles one primitive application. It returns the continuation
// body to keep compiling into the same block, appDone when the primitive
// branched (block complete), or nil on failure.
func (c *vcompiler) prim(blk *vblock, name string, args []tml.Value) *tml.App {
	switch name {
	case "[]":
		if len(args) != 3 {
			return nil
		}
		v, ok := args[0].(*tml.Var)
		if !ok || v != c.rowVar {
			return nil
		}
		idx, ok := c.scalarArg(args[1])
		if !ok || idx.reg != regConst || idx.c.Kind != store.ValInt {
			return nil
		}
		col := int(idx.c.Int)
		if col < 0 {
			return nil // would throw via the dynamic handler stack
		}
		c.ncols = max(c.ncols, col+1) // and so would a row narrower than this
		k, ok := cont1(args[2])
		if !ok {
			return nil
		}
		dst := c.newReg()
		if dst < 0 {
			return nil
		}
		c.binds[k.Params[0]] = varg{reg: dst}
		blk.ops = append(blk.ops, vop{kind: vLoad, op: "[]", col: col, dst: dst})
		return k.Body
	case "<", ">", "<=", ">=":
		if len(args) != 4 {
			return nil
		}
		a, okA := c.scalarArg(args[0])
		b, okB := c.scalarArg(args[1])
		kt, okT := cont0(args[2])
		kf, okF := cont0(args[3])
		if !okA || !okB || !okT || !okF {
			return nil
		}
		t := c.block(kt.Body)
		f := c.block(kf.Body)
		if t == nil || f == nil {
			return nil
		}
		blk.ops = append(blk.ops, vop{kind: vCmp, op: name, a: a, b: b, t: t, f: f, cmp: prim.IntOps[name].Cmp})
		return appDone
	case "==":
		// Only the one-tag two-branch form (match / else); wider case
		// analyses fall back.
		if len(args) != 4 {
			return nil
		}
		a, okA := c.scalarArg(args[0])
		b, okB := c.scalarArg(args[1])
		kt, okT := cont0(args[2])
		kf, okF := cont0(args[3])
		if !okA || !okB || !okT || !okF {
			return nil
		}
		t := c.block(kt.Body)
		f := c.block(kf.Body)
		if t == nil || f == nil {
			return nil
		}
		blk.ops = append(blk.ops, vop{kind: vEqV, op: name, a: a, b: b, t: t, f: f})
		return appDone
	case "+", "-", "*", "/", "%":
		if len(args) != 4 {
			return nil
		}
		a, okA := c.scalarArg(args[0])
		b, okB := c.scalarArg(args[1])
		if !okA || !okB {
			return nil
		}
		// The exception continuation must be the predicate's own ce so a
		// fault surfaces exactly as the row path's nested exception does.
		ceArg, ok := args[2].(*tml.Var)
		if !ok || ceArg != c.ceVar {
			return nil
		}
		k, ok := cont1(args[3])
		if !ok {
			return nil
		}
		dst := c.newReg()
		if dst < 0 {
			return nil
		}
		c.binds[k.Params[0]] = varg{reg: dst}
		blk.ops = append(blk.ops, vop{kind: vArith, op: name, a: a, b: b, dst: dst, arith: prim.IntOps[name].Arith})
		return k.Body
	case "and", "or":
		if len(args) != 3 {
			return nil
		}
		a, okA := c.scalarArg(args[0])
		b, okB := c.scalarArg(args[1])
		k, okK := cont1(args[2])
		if !okA || !okB || !okK {
			return nil
		}
		dst := c.newReg()
		if dst < 0 {
			return nil
		}
		c.binds[k.Params[0]] = varg{reg: dst}
		blk.ops = append(blk.ops, vop{kind: vBoolOp, op: name, a: a, b: b, dst: dst})
		return k.Body
	case "not":
		if len(args) != 2 {
			return nil
		}
		a, okA := c.scalarArg(args[0])
		k, okK := cont1(args[1])
		if !okA || !okK {
			return nil
		}
		dst := c.newReg()
		if dst < 0 {
			return nil
		}
		c.binds[k.Params[0]] = varg{reg: dst}
		blk.ops = append(blk.ops, vop{kind: vBoolOp, op: name, a: a, dst: dst})
		return k.Body
	case "if":
		if len(args) != 3 {
			return nil
		}
		a, okA := c.scalarArg(args[0])
		kt, okT := cont0(args[1])
		kf, okF := cont0(args[2])
		if !okA || !okT || !okF {
			return nil
		}
		t := c.block(kt.Body)
		f := c.block(kf.Body)
		if t == nil || f == nil {
			return nil
		}
		blk.ops = append(blk.ops, vop{kind: vIfOp, op: name, a: a, t: t, f: f})
		return appDone
	case "vector":
		if len(args) < 1 {
			return nil
		}
		k, ok := cont1(args[len(args)-1])
		if !ok {
			return nil
		}
		elems := make([]varg, 0, len(args)-1)
		for _, ea := range args[:len(args)-1] {
			a, ok := c.scalarArg(ea)
			if !ok {
				return nil
			}
			elems = append(elems, a)
		}
		if len(elems) > c.rowCap {
			c.rowCap = len(elems)
		}
		c.binds[k.Params[0]] = varg{reg: regRow}
		blk.ops = append(blk.ops, vop{kind: vMkRow, op: name, args: elems})
		return k.Body
	default:
		return nil
	}
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

// vevaler is the mutable state for running one vprog over many rows: the
// register file and the project-row buffer, allocated once per scan.
type vevaler struct {
	p    *vprog
	regs []store.Val
	row  []store.Val
	res  vres // eval's result, reused: a vres is too wide to return by value per row
}

// scanConst resolves an operand that holds one value for the whole scan:
// an embedded constant or a captured value.
func (e *vevaler) scanConst(a varg) (store.Val, bool) {
	if a.reg == regConst || (a.reg >= 0 && a.reg < e.p.nfree) {
		return e.val(a), true
	}
	return store.Val{}, false
}

func (e *vevaler) val(a varg) store.Val {
	if a.reg == regConst {
		return a.c
	}
	return e.regs[a.reg]
}

// vres is the outcome of evaluating a vprog on one row: exactly one of
// (ret / retRow / exc / err) describes the result, and steps is the
// abstract step count the interpreter would have charged, including the
// procedure entry and any faulting primitive.
type vres struct {
	ret    store.Val
	retRow bool
	exc    store.Val
	excOK  bool
	steps  int
	err    error
}

func vTypeErr(op, want string, v store.Val) error {
	return &machine.RuntimeError{
		Op:  op,
		Msg: fmt.Sprintf("expected %s, got %s", want, machine.FromStoreVal(v).Show()),
	}
}

// eval runs the program against the concatenation of r1 and r2 (r2 nil
// for single-relation kernels).
func (e *vevaler) eval(r1, r2 []store.Val) *vres {
	blk := e.p.root
	res := &e.res
	*res = vres{steps: 1} // procedure entry
	for {
		branched := false
		for i := range blk.ops {
			op := &blk.ops[i]
			res.steps++ // the interpreter ticks before executing a prim
			switch op.kind {
			case vLoad:
				if op.col < len(r1) {
					e.regs[op.dst] = r1[op.col]
				} else {
					e.regs[op.dst] = r2[op.col-len(r1)]
				}
			case vCmp:
				av := e.val(op.a)
				if av.Kind != store.ValInt {
					res.err = vTypeErr(op.op, "integer", av)
					return res
				}
				bv := e.val(op.b)
				if bv.Kind != store.ValInt {
					res.err = vTypeErr(op.op, "integer", bv)
					return res
				}
				if op.cmp(av.Int, bv.Int) {
					blk = op.t
				} else {
					blk = op.f
				}
				branched = true
			case vEqV:
				if e.val(op.a).Eq(e.val(op.b)) {
					blk = op.t
				} else {
					blk = op.f
				}
				branched = true
			case vArith:
				av := e.val(op.a)
				if av.Kind != store.ValInt {
					res.err = vTypeErr(op.op, "integer", av)
					return res
				}
				bv := e.val(op.b)
				if bv.Kind != store.ValInt {
					res.err = vTypeErr(op.op, "integer", bv)
					return res
				}
				r, ok := op.arith(av.Int, bv.Int)
				if !ok {
					res.exc = store.StrVal(fmt.Sprintf("%s: arithmetic fault on %d, %d", op.op, av.Int, bv.Int))
					res.excOK = true
					return res
				}
				e.regs[op.dst] = store.IntVal(r)
			case vBoolOp:
				av := e.val(op.a)
				if av.Kind != store.ValBool {
					res.err = vTypeErr(op.op, "boolean", av)
					return res
				}
				var out bool
				if op.op == "not" {
					out = !av.Bool
				} else {
					bv := e.val(op.b)
					if bv.Kind != store.ValBool {
						res.err = vTypeErr(op.op, "boolean", bv)
						return res
					}
					if op.op == "and" {
						out = av.Bool && bv.Bool
					} else {
						out = av.Bool || bv.Bool
					}
				}
				e.regs[op.dst] = store.BoolVal(out)
			case vIfOp:
				av := e.val(op.a)
				if av.Kind != store.ValBool {
					res.err = vTypeErr(op.op, "boolean", av)
					return res
				}
				if av.Bool {
					blk = op.t
				} else {
					blk = op.f
				}
				branched = true
			case vMkRow:
				e.row = e.row[:0]
				for _, a := range op.args {
					e.row = append(e.row, e.val(a))
				}
			}
			if branched {
				break
			}
		}
		if branched {
			continue
		}
		switch blk.term.kind {
		case tRetRow:
			res.retRow = true
		case tRaise:
			res.exc = e.val(blk.term.v)
			res.excOK = true
		default:
			res.ret = e.val(blk.term.v)
		}
		return res
	}
}

// showRes renders a non-boolean predicate result for the same error
// message the row path produces.
func (e *vevaler) showRes(r *vres) string {
	if r.retRow {
		elems := make([]machine.Value, len(e.row))
		for i, v := range e.row {
			elems[i] = machine.FromStoreVal(v)
		}
		return (&machine.Vector{Elems: elems}).Show()
	}
	return machine.FromStoreVal(r.ret).Show()
}

// ---------------------------------------------------------------------
// Shape recognizers feeding the typed fast paths and the join planner
// ---------------------------------------------------------------------

// fastCmp is the hot select shape: load one column, compare against an
// integer constant, return constant booleans. Over a typed null-free int
// column vector this runs as a tight Go loop at 3 steps per row.
type fastCmp struct {
	col    int
	op     string // as written, for plan rendering
	rel    byte   // the planner's encoding of col REL k (cmpOpByte)
	k      int64
	tv, fv bool
}

func constBoolTerm(b *vblock) (bool, bool) {
	if len(b.ops) != 0 || b.term.kind != tRet || b.term.v.reg != regConst || b.term.v.c.Kind != store.ValBool {
		return false, false
	}
	return b.term.v.c.Bool, true
}

func (e *vevaler) fastSelCmp() (fastCmp, bool) {
	var fc fastCmp
	p := e.p
	if len(p.root.ops) != 2 {
		return fc, false
	}
	ld, cmp := &p.root.ops[0], &p.root.ops[1]
	if ld.kind != vLoad || cmp.kind != vCmp {
		return fc, false
	}
	kb, okB := e.scanConst(cmp.b)
	ka, okA := e.scanConst(cmp.a)
	switch {
	case cmp.a.reg == ld.dst && okB && kb.Kind == store.ValInt:
		fc = fastCmp{col: ld.col, op: cmp.op, rel: cmpOpByte(cmp.op, false), k: kb.Int}
	case cmp.b.reg == ld.dst && okA && ka.Kind == store.ValInt:
		fc = fastCmp{col: ld.col, op: cmp.op, rel: cmpOpByte(cmp.op, true), k: ka.Int}
	default:
		return fc, false
	}
	tv, okT := constBoolTerm(cmp.t)
	fv, okF := constBoolTerm(cmp.f)
	if !okT || !okF {
		return fc, false
	}
	fc.tv, fc.fv = tv, fv
	return fc, true
}

// keep evaluates the predicate for one column value.
func (fc *fastCmp) keep(v int64) bool {
	var holds bool
	switch fc.rel {
	case '<':
		holds = v < fc.k
	case '>':
		holds = v > fc.k
	case 'l':
		holds = v <= fc.k
	default: // 'g'
		holds = v >= fc.k
	}
	if holds {
		return fc.tv
	}
	return fc.fv
}

// fusedInts returns the comparison and the typed, null-free integer
// column it reads when the scan can run as a tight loop over the
// relation's columnar form (4 steps per row: traversal, entry, load,
// compare); nil otherwise.
func (e *vevaler) fusedInts(rel *store.Relation, rows [][]store.Val) (fastCmp, *store.ColVec) {
	fc, ok := e.fastSelCmp()
	if !ok || rel == nil {
		return fc, nil
	}
	blk := rel.ColumnsRows(rows)
	if blk == nil || fc.col >= len(blk.Cols) {
		return fc, nil
	}
	if cv := &blk.Cols[fc.col]; cv.Ints != nil && cv.Nulls == nil && cv.Vals == nil {
		return fc, cv
	}
	return fc, nil
}

// equiCols recognizes the pure equi-join shape over a concatenated pair:
// load a column from each side, compare for equality, return constant
// true/false. It returns the key columns (left-relative, right-relative)
// and the constant per-pair predicate step count.
func (p *vprog) equiCols(w1 int) (lcol, rcol, steps int, ok bool) {
	if len(p.root.ops) != 3 {
		return 0, 0, 0, false
	}
	l1, l2, eq := &p.root.ops[0], &p.root.ops[1], &p.root.ops[2]
	if l1.kind != vLoad || l2.kind != vLoad || eq.kind != vEqV {
		return 0, 0, 0, false
	}
	regs := map[int]int{l1.dst: l1.col, l2.dst: l2.col}
	ca, haveA := regs[eq.a.reg]
	cb, haveB := regs[eq.b.reg]
	if !haveA || !haveB || eq.a.reg == eq.b.reg {
		return 0, 0, 0, false
	}
	tv, okT := constBoolTerm(eq.t)
	fv, okF := constBoolTerm(eq.f)
	if !okT || !okF || !tv || fv {
		return 0, 0, 0, false // only the plain "equal keeps" form
	}
	switch {
	case ca < w1 && cb >= w1:
		return ca, cb - w1, 4, true // entry + 2 loads + eq
	case cb < w1 && ca >= w1:
		return cb, ca - w1, 4, true
	default:
		return 0, 0, 0, false
	}
}

// ---------------------------------------------------------------------
// From predicate value to evaluator
// ---------------------------------------------------------------------

// vevalFor returns a vectorized evaluator for fn over a scan of n rows
// (n pairs, for a join) of the given width, or nil when the scan must
// run row at a time: the vector kernels are switched off, the
// scan is below compileThreshold, fn is outside the fragment, it loads a
// column the rows do not have (a dynamic throw only the row path
// reproduces), or it captured a non-scalar.
//
// A compiled closure's vprog is kept on its program (Program.BlockMemo),
// failures included, so a pipeline-cache hit brings the vprog with it;
// the captures are read from the closure at hand on every call.
func (mg *Manager) vevalFor(fn machine.Value, width, n int) *vevaler {
	if mg.NoVector {
		return nil
	}
	f, ok := fn.(*machine.TAMClosure)
	if !ok || n < compileThreshold {
		return nil
	}
	p, _ := f.Prog.BlockMemo(f.Blk, func() any {
		// The fragment compiles to moves, primitives and continuation
		// calls only. Anything else cannot vectorize, and screening it
		// out keeps the decompiler — which duplicates shared join
		// points, exponentially in the worst case — to linear work.
		for _, in := range f.Prog.Blocks[f.Blk].Instrs {
			if in.Op != machine.OpMove && in.Op != machine.OpPrim && in.Op != machine.OpCall {
				return (*vprog)(nil)
			}
		}
		abs, fv, err := machine.DecompileBlock(f.Prog, f.Blk, nil)
		if err != nil {
			return (*vprog)(nil)
		}
		return compileVProg(abs, fv)
	}).(*vprog)
	free := f.Free
	if p == nil || p.ncols > width || p.nfree != len(free) {
		return nil
	}
	e := &vevaler{p: p, regs: make([]store.Val, p.nregs), row: make([]store.Val, 0, p.rowCap)}
	for i, v := range free {
		if c, ok := v.(*machine.Cell); ok {
			v = c.V // operand loads see through recursive-binding cells
		}
		sv, err := machine.ToStoreVal(v)
		if err != nil {
			return nil
		}
		e.regs[i] = sv
	}
	return e
}

// relWidth is the row width a scan of (schema, rows) presents to
// predicates: the actual row width when rows exist (transient relations
// may carry rows without a synthesized schema), the schema width
// otherwise.
func relWidth(schema []store.Column, rows [][]store.Val) int {
	if len(rows) > 0 {
		return len(rows[0])
	}
	return len(schema)
}

// rowsRegular reports every row has exactly width columns; the
// vectorized kernels require it (a ragged row changes `[]` semantics to
// a dynamic throw, which only the row path reproduces).
func rowsRegular(rows [][]store.Val, width int) bool {
	for _, r := range rows {
		if len(r) != width {
			return false
		}
	}
	return true
}

// colStatsFor returns live statistics for one column of a scan, or nil
// for transient relations and unavailable columnar forms. Building the
// statistics warms the relation's columnar cache as a side effect.
func colStatsFor(rel *store.Relation, rows [][]store.Val, col int) *store.ColStats {
	if rel == nil {
		return nil
	}
	blk := rel.ColumnsRows(rows)
	if blk == nil || col < 0 || col >= len(blk.Cols) {
		return nil
	}
	st := blk.Cols[col].Stats
	return &st
}

// ---------------------------------------------------------------------
// Join algorithms (vectorized)
// ---------------------------------------------------------------------

// chargeJoin charges the abstract cost of a full equi-join scan — the
// same total the nested-loop row path pays: per pair, one traversal step
// plus the constant predicate cost. Charged in per-outer-row lumps so
// budget enforcement stays responsive.
func chargeJoin(m *machine.Machine, n1, n2, pairSteps int) error {
	per := n2 * (1 + pairSteps)
	for i := 0; i < n1; i++ {
		if err := m.TickN(per); err != nil {
			return err
		}
	}
	return nil
}

// hashJoin probes the left rows in order against postings built on the
// right side, so the output ordering is exactly the nested loop's
// (postings ascend). The build side is always the probe target's
// opposite; the planner's build-side choice only affects the plan
// rendering, not correctness.
func hashJoin(rows1, rows2 [][]store.Val, lc, rc int) []pair {
	var pairs []pair
	// Typed fast path: int keys on both sides.
	allInt := true
	for _, r := range rows2 {
		if r[rc].Kind != store.ValInt {
			allInt = false
			break
		}
	}
	if allInt {
		for _, r := range rows1 {
			if r[lc].Kind != store.ValInt {
				allInt = false
				break
			}
		}
	}
	if allInt {
		ht := make(map[int64][]int32, len(rows2))
		for i, r := range rows2 {
			k := r[rc].Int
			ht[k] = append(ht[k], int32(i))
		}
		for i1, r1 := range rows1 {
			for _, i2 := range ht[r1[lc].Int] {
				pairs = append(pairs, pair{int32(i1), i2})
			}
		}
		return pairs
	}
	// store.Val is comparable and its == coincides with Val.Eq for values
	// built by the constructors, so the generic map join is exact.
	ht := make(map[store.Val][]int32, len(rows2))
	for i, r := range rows2 {
		ht[r[rc]] = append(ht[r[rc]], int32(i))
	}
	for i1, r1 := range rows1 {
		for _, i2 := range ht[r1[lc]] {
			pairs = append(pairs, pair{int32(i1), i2})
		}
	}
	return pairs
}

// intKeys extracts an int64 key column, reporting false on any non-int.
func intKeys(rows [][]store.Val, col int) ([]int64, bool) {
	ks := make([]int64, len(rows))
	for i, r := range rows {
		if r[col].Kind != store.ValInt {
			return nil, false
		}
		ks[i] = r[col].Int
	}
	return ks, true
}

// mergeJoinSorted merges two key columns known to be sorted ascending,
// emitting pairs in (left asc, right asc) order per equal run — exactly
// the nested-loop output order for sorted inputs.
func mergeJoinSorted(k1, k2 []int64) []pair {
	var pairs []pair
	i1, i2 := 0, 0
	for i1 < len(k1) && i2 < len(k2) {
		switch {
		case k1[i1] < k2[i2]:
			i1++
		case k1[i1] > k2[i2]:
			i2++
		default:
			e1 := i1
			for e1 < len(k1) && k1[e1] == k1[i1] {
				e1++
			}
			e2 := i2
			for e2 < len(k2) && k2[e2] == k2[i2] {
				e2++
			}
			for a := i1; a < e1; a++ {
				for b := i2; b < e2; b++ {
					pairs = append(pairs, pair{int32(a), int32(b)})
				}
			}
			i1, i2 = e1, e2
		}
	}
	return pairs
}

// ---------------------------------------------------------------------
// Vectorized kernel drivers
// ---------------------------------------------------------------------

// cmpOpByte maps a comparison primitive (possibly with the constant on
// the left) to the planner's op encoding for col OP k.
func cmpOpByte(op string, flipped bool) byte {
	if flipped {
		switch op {
		case "<":
			return '>'
		case ">":
			return '<'
		case "<=":
			return 'g'
		default: // ">="
			return 'l'
		}
	}
	switch op {
	case "<":
		return '<'
	case ">":
		return '>'
	case "<=":
		return 'l'
	default:
		return 'g'
	}
}

// vecSelect runs a compiled predicate over the scan. The fused path —
// integer comparison against a typed null-free column vector — is a
// tight Go loop; everything else in the fragment runs the general vprog
// evaluator, still without per-row boxing or machine re-entry.
func (mg *Manager) vecSelect(m *machine.Machine, ev *vevaler, out *Rel, rows [][]store.Val, rel *store.Relation) (machine.Outcome, error) {
	n := len(rows)
	m.AddVecRows(n)
	if fc, cv := ev.fusedInts(rel, rows); cv != nil {
		for base := 0; base < n; base += vecBatch {
			c := min(vecBatch, n-base)
			if err := m.TickN(c * 4); err != nil {
				return machine.Outcome{}, err
			}
			for i := base; i < base+c; i++ {
				if fc.keep(cv.Ints[i]) {
					out.Rows = append(out.Rows, rows[i])
				}
			}
		}
		if mg.explaining() {
			mg.plan(m, &qopt.PlanNode{
				Op: "select", Algo: "vector-fused", Table: tableName(rel),
				InRows:  int64(n),
				EstRows: qopt.EstCmpMatches(&cv.Stats, n, fc.rel, fc.k),
				ActRows: int64(len(out.Rows)),
				Detail:  fmt.Sprintf("col=%d %s %d", fc.col, fc.op, fc.k),
			})
		}
		return ok1(out), nil
	}
	// Traversal is charged in batchSize lumps — the same lump positions as
	// the row path, so an exception aborts both modes at the same total.
	for base := 0; base < n; base += batchSize {
		c := min(batchSize, n-base)
		if err := m.TickN(c); err != nil {
			return machine.Outcome{}, err
		}
		acc := 0
		for i := base; i < base+c; i++ {
			r := ev.eval(rows[i], nil)
			acc += r.steps
			if r.err != nil {
				m.TickN(acc)
				return machine.Outcome{}, r.err
			}
			if r.excOK {
				if err := m.TickN(acc); err != nil {
					return machine.Outcome{}, err
				}
				return machine.Outcome{Branch: 0, Results: []machine.Value{machine.FromStoreVal(r.exc)}}, nil
			}
			if r.retRow || r.ret.Kind != store.ValBool {
				m.TickN(acc)
				return machine.Outcome{}, fmt.Errorf("relalg: select predicate returned %s, want boolean", ev.showRes(r))
			}
			if r.ret.Bool {
				out.Rows = append(out.Rows, rows[i])
			}
		}
		if err := m.TickN(acc); err != nil {
			return machine.Outcome{}, err
		}
	}
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "select", Algo: "vector", Table: tableName(rel),
			InRows: int64(n), EstRows: -1, ActRows: int64(len(out.Rows)),
		})
	}
	return ok1(out), nil
}

// vecProject runs a compiled target function over the scan, emitting the
// constructed tuples into one slab. A straight-line target over typed
// integer columns runs column at a time (fusedProject); everything else
// in the fragment runs the general evaluator row by row.
func (mg *Manager) vecProject(m *machine.Machine, ev *vevaler, out *Rel, rows [][]store.Val, rel *store.Relation) (machine.Outcome, error) {
	n := len(rows)
	m.AddVecRows(n)
	fp := ev.fusedProject(rel, rows)
	var slab rowSlab
	for lo := 0; lo < n; lo += vecBatch {
		hi := min(lo+vecBatch, n)
		if fp != nil {
			if ok, err := fp.run(m, out, &slab, rows, lo, hi); err != nil {
				return machine.Outcome{}, err
			} else if ok {
				continue
			}
			// A row of this batch faults: the general evaluator reproduces
			// the exception and its step count exactly.
		}
		if exc, err := projectRows(m, ev, out, &slab, rows, lo, hi); exc != nil || err != nil {
			if err != nil {
				return machine.Outcome{}, err
			}
			return machine.Outcome{Branch: 0, Results: []machine.Value{machine.FromStoreVal(*exc)}}, nil
		}
	}
	synthSchema(out)
	if mg.explaining() {
		algo := "vector"
		if fp != nil {
			algo = "vector-fused"
		}
		mg.plan(m, &qopt.PlanNode{
			Op: "project", Algo: algo, Table: tableName(rel),
			InRows: int64(n), EstRows: float64(n), ActRows: int64(len(out.Rows)),
		})
	}
	return ok1(out), nil
}

// projectRows runs the general evaluator over rows[lo:hi], charging
// traversal in batchSize lumps at the row path's lump positions so an
// exception aborts every mode at the same total. It returns the raised
// value when the target raised.
func projectRows(m *machine.Machine, ev *vevaler, out *Rel, slab *rowSlab, rows [][]store.Val, lo, hi int) (*store.Val, error) {
	for base := lo; base < hi; base += batchSize {
		c := min(batchSize, hi-base)
		if err := m.TickN(c); err != nil {
			return nil, err
		}
		acc := 0
		for i := base; i < base+c; i++ {
			r := ev.eval(rows[i], nil)
			acc += r.steps
			if r.err != nil {
				m.TickN(acc)
				return nil, r.err
			}
			if r.excOK {
				return &r.exc, m.TickN(acc)
			}
			if !r.retRow {
				m.TickN(acc)
				return nil, fmt.Errorf("relalg: project target returned %s, want tuple", ev.showRes(r))
			}
			row := slab.row(len(ev.row), len(rows)-i)
			copy(row, ev.row)
			out.Rows = append(out.Rows, row)
		}
		if err := m.TickN(acc); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// fusedProj is a project target in column-at-a-time form: the target's
// integer arithmetic as whole-column loops, and its tuple as one source
// per output column.
type fusedProj struct {
	steps int // evaluator steps per row: procedure entry plus one per vop
	ops   []fusedArith
	out   []fusedCell
}

// fusedInts is an integer operand: a typed column, indexed by absolute
// row, or a batch buffer (an arithmetic result, or a constant repeated),
// indexed from the batch's first row.
type fusedInts struct {
	v   []int64
	abs bool
}

func (o fusedInts) batch(lo, hi int) []int64 {
	if o.abs {
		return o.v[lo:hi]
	}
	return o.v[:hi-lo]
}

type fusedArith struct {
	arith func(a, b int64) (int64, bool)
	a, b  fusedInts
	dst   []int64
}

// fusedCell is the source of one output column: an arithmetic result, a
// loaded column copied from its row, or a constant.
type fusedCell struct {
	tmp []int64
	col int // loaded column, when tmp is nil and col >= 0
	c   store.Val
}

// fusedProject recognizes a straight-line target — column loads, integer
// arithmetic over registers and constants, one tuple, (cc row) — whose
// arithmetic reads only typed, null-free integer columns, and compiles it
// for this scan; nil when the target or the relation does not qualify.
func (e *vevaler) fusedProject(rel *store.Relation, rows [][]store.Val) *fusedProj {
	root := e.p.root
	if root.term.kind != tRetRow {
		return nil
	}
	size := min(len(rows), vecBatch)
	var cols *store.ColBlock
	loaded := make([]int, e.p.nregs) // register → column loaded into it, or -1
	for i := range loaded {
		loaded[i] = -1
	}
	tmps := make([][]int64, e.p.nregs) // register → arithmetic result
	ints := func(a varg) (fusedInts, bool) {
		if k, ok := e.scanConst(a); ok {
			if k.Kind != store.ValInt {
				return fusedInts{}, false
			}
			v := make([]int64, size)
			for i := range v {
				v[i] = k.Int
			}
			return fusedInts{v: v}, true
		}
		if t := tmps[a.reg]; t != nil {
			return fusedInts{v: t}, true
		}
		col := loaded[a.reg]
		if col < 0 || rel == nil {
			return fusedInts{}, false
		}
		if cols == nil {
			if cols = rel.ColumnsRows(rows); cols == nil {
				return fusedInts{}, false
			}
		}
		if col >= len(cols.Cols) {
			return fusedInts{}, false
		}
		cv := &cols.Cols[col]
		if cv.Ints == nil || cv.Nulls != nil || cv.Vals != nil || len(cv.Ints) < len(rows) {
			return fusedInts{}, false
		}
		return fusedInts{v: cv.Ints, abs: true}, true
	}
	fp := &fusedProj{steps: 1 + len(root.ops)}
	var tuple []varg
	for i := range root.ops {
		op := &root.ops[i]
		switch op.kind {
		case vLoad:
			loaded[op.dst] = op.col
		case vArith:
			a, okA := ints(op.a)
			b, okB := ints(op.b)
			if !okA || !okB {
				return nil
			}
			tmps[op.dst] = make([]int64, size)
			fp.ops = append(fp.ops, fusedArith{arith: op.arith, a: a, b: b, dst: tmps[op.dst]})
		case vMkRow:
			tuple = op.args
		default:
			return nil
		}
	}
	for _, a := range tuple {
		switch k, ok := e.scanConst(a); {
		case ok:
			fp.out = append(fp.out, fusedCell{col: -1, c: k})
		case tmps[a.reg] != nil:
			fp.out = append(fp.out, fusedCell{tmp: tmps[a.reg]})
		case loaded[a.reg] >= 0:
			fp.out = append(fp.out, fusedCell{col: loaded[a.reg]})
		default:
			return nil
		}
	}
	return fp
}

// run projects rows[lo:hi]: the arithmetic a column at a time, then the
// tuples into the slab a column at a time. It reports false, having
// charged and emitted nothing, when any row of the batch faults. The
// charge is the general evaluator's, lump for lump.
func (fp *fusedProj) run(m *machine.Machine, out *Rel, slab *rowSlab, rows [][]store.Val, lo, hi int) (bool, error) {
	for i := range fp.ops {
		op := &fp.ops[i]
		dst, a, b := op.dst[:hi-lo], op.a.batch(lo, hi), op.b.batch(lo, hi)
		for j := range dst {
			r, ok := op.arith(a[j], b[j])
			if !ok {
				return false, nil
			}
			dst[j] = r
		}
	}
	first := len(out.Rows)
	for i := lo; i < hi; i++ {
		out.Rows = append(out.Rows, slab.row(len(fp.out), len(rows)-i))
	}
	batch := out.Rows[first:]
	for q := range fp.out {
		switch cell := &fp.out[q]; {
		case cell.tmp != nil:
			for j, row := range batch {
				row[q] = store.IntVal(cell.tmp[j])
			}
		case cell.col >= 0:
			for j, row := range batch {
				row[q] = rows[lo+j][cell.col]
			}
		default:
			for _, row := range batch {
				row[q] = cell.c
			}
		}
	}
	for base := lo; base < hi; base += batchSize {
		c := min(batchSize, hi-base)
		if err := m.TickN(c); err != nil {
			return true, err
		}
		if err := m.TickN(c * fp.steps); err != nil {
			return true, err
		}
	}
	return true, nil
}

// vecExists runs a compiled predicate with early exit, charging exactly
// the rows it visits (one traversal step plus the predicate's steps per
// row, like the row path).
func (mg *Manager) vecExists(m *machine.Machine, ev *vevaler, rows [][]store.Val, rel *store.Relation) (machine.Outcome, error) {
	n, found, visited, acc := len(rows), false, 0, 0
	flush := func() error {
		if acc == 0 {
			return nil
		}
		err := m.TickN(acc)
		acc = 0
		return err
	}
	if fc, cv := ev.fusedInts(rel, rows); cv != nil {
		for !found && visited < n {
			start, end := visited, min(visited+vecBatch, n)
			for !found && visited < end {
				found = fc.keep(cv.Ints[visited])
				visited++
			}
			if err := m.TickN(4 * (visited - start)); err != nil {
				return machine.Outcome{}, err
			}
		}
		rows = nil // nothing left for the general evaluator
	}
	for _, row := range rows {
		r := ev.eval(row, nil)
		acc += 1 + r.steps
		visited++
		if r.err != nil {
			flush()
			return machine.Outcome{}, r.err
		}
		if r.excOK {
			if err := flush(); err != nil {
				return machine.Outcome{}, err
			}
			return machine.Outcome{Branch: 0, Results: []machine.Value{machine.FromStoreVal(r.exc)}}, nil
		}
		if r.retRow || r.ret.Kind != store.ValBool {
			flush()
			return machine.Outcome{}, fmt.Errorf("relalg: exists predicate returned %s, want boolean", ev.showRes(r))
		}
		if found = r.ret.Bool; found {
			break
		}
		if acc >= 4*vecBatch {
			if err := flush(); err != nil {
				return machine.Outcome{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return machine.Outcome{}, err
	}
	m.AddVecRows(visited)
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "exists", Algo: "vector", Table: tableName(rel),
			InRows: int64(n), EstRows: -1, ActRows: int64(visited),
		})
	}
	return ok1(machine.Bool(found)), nil
}

// vecJoin plans and runs a join whose predicate compiled to a vprog over
// the concatenated pair. Pure equi-joins go through the cost-based
// planner (hash / merge / nested on live statistics, or the ForceJoin
// knob); every other predicate in the fragment runs a vectorized nested
// loop. All algorithms charge the identical abstract cost of the full
// cross-product scan, so plan choice is invisible to step accounting.
func (mg *Manager) vecJoin(m *machine.Machine, ev *vevaler, out *Rel, rows1, rows2 [][]store.Val, w1 int, rel1, rel2 *store.Relation) (machine.Outcome, error) {
	n1, n2 := len(rows1), len(rows2)
	m.AddVecRows(n1 + n2)
	if lc, rc, psteps, isEqui := ev.p.equiCols(w1); isEqui {
		ls := colStatsFor(rel1, rows1, lc)
		rs := colStatsFor(rel2, rows2, rc)
		algo, buildLeft := qopt.ChooseJoinAlgo(ls, rs, n1, n2)
		if mg.ForceJoin != "" {
			algo = mg.ForceJoin
		}
		ran := false
		if algo == qopt.JoinMerge {
			k1, okL := intKeys(rows1, lc)
			k2, okR := intKeys(rows2, rc)
			if okL && okR && ls != nil && ls.Sorted && rs != nil && rs.Sorted {
				if err := chargeJoin(m, n1, n2, psteps); err != nil {
					return machine.Outcome{}, err
				}
				joinRows(out, rows1, rows2, mergeJoinSorted(k1, k2))
				ran = true
			} else {
				algo = qopt.JoinHash // merge runs only on sorted integer keys
			}
		}
		if !ran && algo == qopt.JoinHash {
			if err := chargeJoin(m, n1, n2, psteps); err != nil {
				return machine.Outcome{}, err
			}
			joinRows(out, rows1, rows2, hashJoin(rows1, rows2, lc, rc))
			ran = true
		}
		if ran {
			if mg.explaining() {
				side := "right"
				if buildLeft {
					side = "left"
				}
				mg.plan(m, &qopt.PlanNode{
					Op: "join", Algo: algo,
					Table:   tableName(rel1) + "," + tableName(rel2),
					InRows:  int64(n1) * int64(n2),
					EstRows: qopt.EstJoinMatches(ls, rs, n1, n2),
					ActRows: int64(len(out.Rows)),
					Detail:  fmt.Sprintf("keys=%d,%d build=%s", lc, rc, side),
				})
			}
			return ok1(out), nil
		}
		// algo == nested: fall through to the vectorized nested loop.
	}
	var kept []pair
	for i1, r1 := range rows1 {
		for base := 0; base < n2; base += batchSize {
			c := min(batchSize, n2-base)
			if err := m.TickN(c); err != nil {
				return machine.Outcome{}, err
			}
			acc := 0
			for i2 := base; i2 < base+c; i2++ {
				r := ev.eval(r1, rows2[i2])
				acc += r.steps
				if r.err != nil {
					m.TickN(acc)
					return machine.Outcome{}, r.err
				}
				if r.excOK {
					if err := m.TickN(acc); err != nil {
						return machine.Outcome{}, err
					}
					return machine.Outcome{Branch: 0, Results: []machine.Value{machine.FromStoreVal(r.exc)}}, nil
				}
				if r.retRow || r.ret.Kind != store.ValBool {
					m.TickN(acc)
					return machine.Outcome{}, fmt.Errorf("relalg: join predicate returned %s, want boolean", ev.showRes(r))
				}
				if r.ret.Bool {
					kept = append(kept, pair{int32(i1), int32(i2)})
				}
			}
			if err := m.TickN(acc); err != nil {
				return machine.Outcome{}, err
			}
		}
	}
	joinRows(out, rows1, rows2, kept)
	if mg.explaining() {
		mg.plan(m, &qopt.PlanNode{
			Op: "join", Algo: qopt.JoinNested,
			Table:  tableName(rel1) + "," + tableName(rel2),
			InRows: int64(n1) * int64(n2), EstRows: -1, ActRows: int64(len(out.Rows)),
		})
	}
	return ok1(out), nil
}
