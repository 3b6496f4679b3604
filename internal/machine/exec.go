package machine

import (
	"fmt"
	"math"

	"tycoon/internal/prim"
	"tycoon/internal/store"
)

// This file implements the runtime executors for the standard primitive
// set of paper Fig. 2. Each executor is the runtime counterpart of the
// descriptor registered in package prim; by definition every primitive
// calls exactly one of its continuation arguments tail-recursively
// (paper §2.3), which the Outcome value expresses.

// stdExecs maps primitive names to executors. The table is populated at
// init and never mutated afterwards, so concurrent machines may share it.
var stdExecs = map[string]ExecFunc{}

// throw transfers control to the topmost dynamic exception handler; with
// an empty handler stack the program aborts.
func (m *Machine) throw(op string, v Value) (Outcome, error) {
	if h, ok := m.PopHandler(); ok {
		return Outcome{Tail: &TailCall{Fn: h, Args: []Value{v}}}, nil
	}
	return Outcome{}, &Exception{Value: v}
}

func wantInt(op string, v Value) (int64, error) {
	i, ok := v.(Int)
	if !ok {
		return 0, rtErr(op, "expected integer, got %s", v.Show())
	}
	return int64(i), nil
}

func wantReal(op string, v Value) (float64, error) {
	r, ok := v.(Real)
	if !ok {
		return 0, rtErr(op, "expected real, got %s", v.Show())
	}
	return float64(r), nil
}

func wantBool(op string, v Value) (bool, error) {
	b, ok := v.(Bool)
	if !ok {
		return false, rtErr(op, "expected boolean, got %s", v.Show())
	}
	return bool(b), nil
}

func wantStr(op string, v Value) (string, error) {
	s, ok := v.(Str)
	if !ok {
		return "", rtErr(op, "expected string, got %s", v.Show())
	}
	return string(s), nil
}

func init() {
	registerIntExecs()
	registerConvExecs()
	registerArrayExecs()
	registerCaseExecs()
	registerControlExecs()
	registerRealExecs()
	registerBoolExecs()
	registerStringExecs()
	registerIOExecs()
}

// The boolean connectives are defined once, here: the generic executors
// below and the fused executors of fastexec.go are both built from these
// definitions. The integer primitives are defined once for the whole
// system, in prim.IntOps, which the optimizer's constant folding shares.
var boolOps = map[string]func(a, b bool) bool{
	"and": func(a, b bool) bool { return a && b },
	"or":  func(a, b bool) bool { return a || b },
}

// boolNot is the not connective.
func boolNot(a bool) bool { return !a }

func registerIntExecs() {
	for name, op := range prim.IntOps {
		switch {
		case op.Arith != nil:
			stdExecs[name] = intArithExec(name, op.Arith)
		case op.Neg != nil:
			stdExecs[name] = intNegExec(op.Neg)
		case op.Cmp != nil:
			stdExecs[name] = intCmpExec(name, op.Cmp)
		case op.Bits != nil:
			stdExecs[name] = intBitsExec(name, op.Bits)
		}
	}
}

// intArithExec executes (p a b ce cc): conts[0] is the exception
// continuation, conts[1] the normal continuation.
func intArithExec(name string, eval func(a, b int64) (int64, bool)) ExecFunc {
	return func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantInt(name, vals[0])
		if err != nil {
			return Outcome{}, err
		}
		b, err := wantInt(name, vals[1])
		if err != nil {
			return Outcome{}, err
		}
		r, ok := eval(a, b)
		if !ok {
			return m.one(0, Str(fmt.Sprintf("%s: arithmetic fault on %d, %d", name, a, b))), nil
		}
		return m.one(1, IntValue(r)), nil
	}
}

func intNegExec(eval func(a int64) (int64, bool)) ExecFunc {
	return func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantInt("neg", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		r, ok := eval(a)
		if !ok {
			return m.one(0, Str("neg: overflow")), nil
		}
		return m.one(1, IntValue(r)), nil
	}
}

func intCmpExec(name string, eval func(a, b int64) bool) ExecFunc {
	return func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantInt(name, vals[0])
		if err != nil {
			return Outcome{}, err
		}
		b, err := wantInt(name, vals[1])
		if err != nil {
			return Outcome{}, err
		}
		if eval(a, b) {
			return Outcome{Branch: 0}, nil
		}
		return Outcome{Branch: 1}, nil
	}
}

func intBitsExec(name string, eval func(a, b int64) int64) ExecFunc {
	return func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantInt(name, vals[0])
		if err != nil {
			return Outcome{}, err
		}
		b, err := wantInt(name, vals[1])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, IntValue(eval(a, b))), nil
	}
}

func registerConvExecs() {
	stdExecs["char2int"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		c, ok := vals[0].(Char)
		if !ok {
			return Outcome{}, rtErr("char2int", "expected char, got %s", vals[0].Show())
		}
		return m.one(0, IntValue(int64(c))), nil
	}
	stdExecs["int2char"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		i, err := wantInt("int2char", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, CharValue(byte(i))), nil
	}
	stdExecs["int2real"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		i, err := wantInt("int2real", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, Real(float64(i))), nil
	}
	stdExecs["real2int"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		r, err := wantReal("real2int", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		if math.IsNaN(r) || r > math.MaxInt64 || r < math.MinInt64 {
			return m.one(0, Str("real2int: out of range")), nil
		}
		return m.one(1, IntValue(int64(r))), nil
	}
}

func registerArrayExecs() {
	stdExecs["array"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		return m.one(0, &Array{Elems: append([]Value(nil), vals...)}), nil
	}
	stdExecs["vector"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		return m.one(0, &Vector{Elems: append([]Value(nil), vals...)}), nil
	}
	// (anew n init c): object array of n slots, all init. Negative sizes
	// clamp to zero so that allocation can never fail, which keeps the
	// optimizer's dead-call elimination of pure allocations sound.
	stdExecs["anew"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		n, err := wantInt("anew", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		if n < 0 {
			n = 0
		}
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = vals[1]
		}
		return m.one(0, &Array{Elems: elems}), nil
	}
	// (new n b c): byte array of n bytes initialized with b.
	stdExecs["new"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		n, err := wantInt("new", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		b, err := wantInt("new", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		if n < 0 {
			n = 0
		}
		bytes := make([]byte, n)
		for i := range bytes {
			bytes[i] = byte(b)
		}
		return m.one(0, &Bytes{B: bytes}), nil
	}
	stdExecs["[]"] = execIndexLoad
	stdExecs["[:=]"] = execIndexStore
	stdExecs["b[]"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		i, err := wantInt("b[]", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		switch a := vals[0].(type) {
		case *Bytes:
			if i < 0 || i >= int64(len(a.B)) {
				return m.throw("b[]", Str(fmt.Sprintf("index %d out of range [0,%d)", i, len(a.B))))
			}
			return m.one(0, CharValue(a.B[i])), nil
		case Ref:
			obj, err := m.fetch("b[]", a)
			if err != nil {
				return Outcome{}, err
			}
			ba, ok := obj.(*store.ByteArray)
			if !ok {
				return Outcome{}, rtErr("b[]", "object is %s, want bytearray", obj.Kind())
			}
			if i < 0 || i >= int64(len(ba.Bytes)) {
				return m.throw("b[]", Str("index out of range"))
			}
			return m.one(0, CharValue(ba.Bytes[i])), nil
		default:
			return Outcome{}, rtErr("b[]", "expected byte array, got %s", vals[0].Show())
		}
	}
	stdExecs["b[:=]"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		i, err := wantInt("b[:=]", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		ch, ok := vals[2].(Char)
		if !ok {
			return Outcome{}, rtErr("b[:=]", "expected char, got %s", vals[2].Show())
		}
		switch a := vals[0].(type) {
		case *Bytes:
			if i < 0 || i >= int64(len(a.B)) {
				return m.throw("b[:=]", Str("index out of range"))
			}
			a.B[i] = byte(ch)
			return m.one(0, unitVal), nil
		case Ref:
			tx, err := m.writer("b[:=]")
			if err != nil {
				return Outcome{}, err
			}
			obj, err := m.fetch("b[:=]", a)
			if err != nil {
				return Outcome{}, err
			}
			ba, ok := obj.(*store.ByteArray)
			if !ok {
				return Outcome{}, rtErr("b[:=]", "object is %s, want bytearray", obj.Kind())
			}
			if i < 0 || i >= int64(len(ba.Bytes)) {
				return m.throw("b[:=]", Str("index out of range"))
			}
			ba.Bytes[i] = byte(ch)
			tx.MarkDirty(a.OID)
			return m.one(0, unitVal), nil
		default:
			return Outcome{}, rtErr("b[:=]", "expected byte array, got %s", vals[0].Show())
		}
	}
	stdExecs["size"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		switch a := vals[0].(type) {
		case *Array:
			return m.one(0, IntValue(int64(len(a.Elems)))), nil
		case *Vector:
			return m.one(0, IntValue(int64(len(a.Elems)))), nil
		case *Bytes:
			return m.one(0, IntValue(int64(len(a.B)))), nil
		case Str:
			return m.one(0, IntValue(int64(len(a)))), nil
		case Ref:
			obj, err := m.fetch("size", a)
			if err != nil {
				return Outcome{}, err
			}
			switch o := obj.(type) {
			case *store.Array:
				return m.one(0, IntValue(int64(len(o.Elems)))), nil
			case *store.Tuple:
				return m.one(0, IntValue(int64(len(o.Fields)))), nil
			case *store.ByteArray:
				return m.one(0, IntValue(int64(len(o.Bytes)))), nil
			case *store.Relation:
				return m.one(0, IntValue(int64(o.NumRows()))), nil
			default:
				return Outcome{}, rtErr("size", "object is %s", obj.Kind())
			}
		default:
			return Outcome{}, rtErr("size", "expected aggregate, got %s", vals[0].Show())
		}
	}
	stdExecs["move"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		src, ok := vals[0].(*Array)
		if !ok {
			return Outcome{}, rtErr("move", "source is %s", vals[0].Show())
		}
		dst, ok := vals[2].(*Array)
		if !ok {
			return Outcome{}, rtErr("move", "destination is %s", vals[2].Show())
		}
		soff, err := wantInt("move", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		doff, err := wantInt("move", vals[3])
		if err != nil {
			return Outcome{}, err
		}
		n, err := wantInt("move", vals[4])
		if err != nil {
			return Outcome{}, err
		}
		if soff < 0 || doff < 0 || n < 0 ||
			soff+n > int64(len(src.Elems)) || doff+n > int64(len(dst.Elems)) {
			return m.throw("move", Str("range out of bounds"))
		}
		copy(dst.Elems[doff:doff+n], src.Elems[soff:soff+n])
		return m.one(0, unitVal), nil
	}
	stdExecs["bmove"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		src, ok := vals[0].(*Bytes)
		if !ok {
			return Outcome{}, rtErr("bmove", "source is %s", vals[0].Show())
		}
		dst, ok := vals[2].(*Bytes)
		if !ok {
			return Outcome{}, rtErr("bmove", "destination is %s", vals[2].Show())
		}
		soff, err := wantInt("bmove", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		doff, err := wantInt("bmove", vals[3])
		if err != nil {
			return Outcome{}, err
		}
		n, err := wantInt("bmove", vals[4])
		if err != nil {
			return Outcome{}, err
		}
		if soff < 0 || doff < 0 || n < 0 ||
			soff+n > int64(len(src.B)) || doff+n > int64(len(dst.B)) {
			return m.throw("bmove", Str("range out of bounds"))
		}
		copy(dst.B[doff:doff+n], src.B[soff:soff+n])
		return m.one(0, unitVal), nil
	}
}

func execIndexLoad(m *Machine, vals, conts []Value) (Outcome, error) {
	i, err := wantInt("[]", vals[1])
	if err != nil {
		return Outcome{}, err
	}
	switch a := vals[0].(type) {
	case *Array:
		if i < 0 || i >= int64(len(a.Elems)) {
			return m.throw("[]", Str(fmt.Sprintf("index %d out of range [0,%d)", i, len(a.Elems))))
		}
		return m.one(0, a.Elems[i]), nil
	case *Vector:
		if i < 0 || i >= int64(len(a.Elems)) {
			return m.throw("[]", Str(fmt.Sprintf("index %d out of range [0,%d)", i, len(a.Elems))))
		}
		return m.one(0, a.Elems[i]), nil
	case Ref:
		obj, err := m.fetch("[]", a)
		if err != nil {
			return Outcome{}, err
		}
		switch o := obj.(type) {
		case *store.Array:
			if i < 0 || i >= int64(len(o.Elems)) {
				return m.throw("[]", Str("index out of range"))
			}
			return m.one(0, FromStoreVal(o.Elems[i])), nil
		case *store.Tuple:
			if i < 0 || i >= int64(len(o.Fields)) {
				return m.throw("[]", Str("index out of range"))
			}
			return m.one(0, FromStoreVal(o.Fields[i])), nil
		case *store.Module:
			// Module member fetch by export index: the abstraction-barrier
			// access the reflective optimizer folds away (paper §4.1).
			if i < 0 || i >= int64(len(o.Exports)) {
				return m.throw("[]", Str("module export index out of range"))
			}
			v := FromStoreVal(o.Exports[i].Val)
			m.memoMember(a.OID, i, v)
			return m.one(0, v), nil
		default:
			return Outcome{}, rtErr("[]", "object is %s, want array, tuple or module", obj.Kind())
		}
	default:
		return Outcome{}, rtErr("[]", "expected array, got %s", vals[0].Show())
	}
}

func execIndexStore(m *Machine, vals, conts []Value) (Outcome, error) {
	i, err := wantInt("[:=]", vals[1])
	if err != nil {
		return Outcome{}, err
	}
	switch a := vals[0].(type) {
	case *Array:
		if i < 0 || i >= int64(len(a.Elems)) {
			return m.throw("[:=]", Str(fmt.Sprintf("index %d out of range [0,%d)", i, len(a.Elems))))
		}
		a.Elems[i] = vals[2]
		return m.one(0, unitVal), nil
	case Ref:
		tx, err := m.writer("[:=]")
		if err != nil {
			return Outcome{}, err
		}
		obj, err := m.fetch("[:=]", a)
		if err != nil {
			return Outcome{}, err
		}
		arr, ok := obj.(*store.Array)
		if !ok {
			return Outcome{}, rtErr("[:=]", "object is %s, want array", obj.Kind())
		}
		if i < 0 || i >= int64(len(arr.Elems)) {
			return m.throw("[:=]", Str("index out of range"))
		}
		sv, err := ToStoreVal(vals[2])
		if err != nil {
			return Outcome{}, err
		}
		arr.Elems[i] = sv
		tx.MarkDirty(a.OID)
		return m.one(0, unitVal), nil
	default:
		return Outcome{}, rtErr("[:=]", "expected mutable array, got %s", vals[0].Show())
	}
}

func registerCaseExecs() {
	// (== v t₁…tₙ c₁…cₙ [cElse]): case analysis based on object identity.
	stdExecs["=="] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		if len(vals) == 0 {
			return Outcome{}, rtErr("==", "missing scrutinee")
		}
		v := vals[0]
		tags := vals[1:]
		hasElse := len(conts) == len(tags)+1
		if !hasElse && len(conts) != len(tags) {
			return Outcome{}, rtErr("==", "%d tags with %d branches", len(tags), len(conts))
		}
		for i, tag := range tags {
			if Eq(v, tag) {
				return Outcome{Branch: i}, nil
			}
		}
		if hasElse {
			return Outcome{Branch: len(conts) - 1}, nil
		}
		return m.throw("==", Str("case fell through without else branch"))
	}
}

func registerControlExecs() {
	stdExecs["pushHandler"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		if len(conts) != 2 {
			return Outcome{}, rtErr("pushHandler", "expected handler and continuation")
		}
		m.PushHandler(conts[0])
		return Outcome{Branch: 1}, nil
	}
	stdExecs["popHandler"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		if _, ok := m.PopHandler(); !ok {
			return Outcome{}, rtErr("popHandler", "handler stack is empty")
		}
		return Outcome{Branch: 0}, nil
	}
	stdExecs["raise"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		return m.throw("raise", vals[0])
	}
	stdExecs["ccall"] = execCCall
}

// hostCalls simulates the paper's C language function call primitive with
// a table of host functions (the mathematical routines the Tycoon runtime
// links against).
var hostCalls = map[string]func(args []float64) (float64, bool){
	"sqrt":  func(a []float64) (float64, bool) { return math.Sqrt(a[0]), len(a) == 1 && a[0] >= 0 },
	"sin":   func(a []float64) (float64, bool) { return math.Sin(a[0]), len(a) == 1 },
	"cos":   func(a []float64) (float64, bool) { return math.Cos(a[0]), len(a) == 1 },
	"atan":  func(a []float64) (float64, bool) { return math.Atan(a[0]), len(a) == 1 },
	"exp":   func(a []float64) (float64, bool) { return math.Exp(a[0]), len(a) == 1 },
	"log":   func(a []float64) (float64, bool) { return math.Log(a[0]), len(a) == 1 && a[0] > 0 },
	"floor": func(a []float64) (float64, bool) { return math.Floor(a[0]), len(a) == 1 },
	"pow":   func(a []float64) (float64, bool) { return math.Pow(a[0], a[1]), len(a) == 2 },
}

func execCCall(m *Machine, vals, conts []Value) (Outcome, error) {
	if len(vals) == 0 {
		return Outcome{}, rtErr("ccall", "missing function name")
	}
	name, err := wantStr("ccall", vals[0])
	if err != nil {
		return Outcome{}, err
	}
	fn, ok := hostCalls[name]
	if !ok {
		return Outcome{}, rtErr("ccall", "unknown host function %q", name)
	}
	args := make([]float64, len(vals)-1)
	for i, v := range vals[1:] {
		r, err := wantReal("ccall "+name, v)
		if err != nil {
			return Outcome{}, err
		}
		args[i] = r
	}
	r, ok := fn(args)
	if !ok {
		return m.one(0, Str(fmt.Sprintf("ccall %s: domain fault", name))), nil
	}
	return m.one(1, Real(r)), nil
}

func registerRealExecs() {
	type realOp struct {
		name string
		eval func(a, b float64) float64
	}
	ops := []realOp{
		{"r+", func(a, b float64) float64 { return a + b }},
		{"r-", func(a, b float64) float64 { return a - b }},
		{"r*", func(a, b float64) float64 { return a * b }},
		{"r/", func(a, b float64) float64 { return a / b }},
	}
	for _, op := range ops {
		stdExecs[op.name] = func(m *Machine, vals, conts []Value) (Outcome, error) {
			a, err := wantReal(op.name, vals[0])
			if err != nil {
				return Outcome{}, err
			}
			b, err := wantReal(op.name, vals[1])
			if err != nil {
				return Outcome{}, err
			}
			r := op.eval(a, b)
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return m.one(0, Str(op.name+": arithmetic fault")), nil
			}
			return m.one(1, Real(r)), nil
		}
	}
	cmps := map[string]func(a, b float64) bool{
		"r<":  func(a, b float64) bool { return a < b },
		"r>":  func(a, b float64) bool { return a > b },
		"r<=": func(a, b float64) bool { return a <= b },
		"r>=": func(a, b float64) bool { return a >= b },
	}
	for name, eval := range cmps {
		stdExecs[name] = func(m *Machine, vals, conts []Value) (Outcome, error) {
			a, err := wantReal(name, vals[0])
			if err != nil {
				return Outcome{}, err
			}
			b, err := wantReal(name, vals[1])
			if err != nil {
				return Outcome{}, err
			}
			if eval(a, b) {
				return Outcome{Branch: 0}, nil
			}
			return Outcome{Branch: 1}, nil
		}
	}
	stdExecs["rneg"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantReal("rneg", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, Real(-a)), nil
	}
}

func registerBoolExecs() {
	for name, eval := range boolOps {
		stdExecs[name] = func(m *Machine, vals, conts []Value) (Outcome, error) {
			a, err := wantBool(name, vals[0])
			if err != nil {
				return Outcome{}, err
			}
			b, err := wantBool(name, vals[1])
			if err != nil {
				return Outcome{}, err
			}
			return m.one(0, BoolValue(eval(a, b))), nil
		}
	}
	stdExecs["not"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantBool("not", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, BoolValue(boolNot(a))), nil
	}
	stdExecs["if"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantBool("if", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		if a {
			return Outcome{Branch: 0}, nil
		}
		return Outcome{Branch: 1}, nil
	}
}

func registerStringExecs() {
	stdExecs["s+"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantStr("s+", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		b, err := wantStr("s+", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, Str(a+b)), nil
	}
	stdExecs["s="] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantStr("s=", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		b, err := wantStr("s=", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		if a == b {
			return Outcome{Branch: 0}, nil
		}
		return Outcome{Branch: 1}, nil
	}
	stdExecs["s<"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantStr("s<", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		b, err := wantStr("s<", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		if a < b {
			return Outcome{Branch: 0}, nil
		}
		return Outcome{Branch: 1}, nil
	}
	stdExecs["slen"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantStr("slen", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, IntValue(int64(len(a)))), nil
	}
	stdExecs["s[]"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		a, err := wantStr("s[]", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		i, err := wantInt("s[]", vals[1])
		if err != nil {
			return Outcome{}, err
		}
		if i < 0 || i >= int64(len(a)) {
			return m.one(0, Str("s[]: index out of range")), nil
		}
		return m.one(1, CharValue(a[i])), nil
	}
	stdExecs["int2str"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		i, err := wantInt("int2str", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, Str(fmt.Sprintf("%d", i))), nil
	}
	stdExecs["real2str"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		r, err := wantReal("real2str", vals[0])
		if err != nil {
			return Outcome{}, err
		}
		return m.one(0, Str(Real(r).Show())), nil
	}
}

func registerIOExecs() {
	stdExecs["print"] = func(m *Machine, vals, conts []Value) (Outcome, error) {
		if m.Out != nil {
			fmt.Fprintln(m.Out, vals[0].Show())
		}
		return m.one(0, unitVal), nil
	}
}
