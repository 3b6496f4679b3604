package machine

import (
	"slices"

	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

// This file is the reference evaluator: a direct interpreter of TML
// trees, kept as a test oracle for the TAM code generator and virtual
// machine. One step executes one application. CPS has no implicit
// returns — every transfer of control is an application, a generalized
// goto with parameter passing — so evaluation is a flat loop and never
// grows the Go stack, no matter how deep the source recursion.
//
// It runs pure TML only. It applies its own closures and the top-level
// halts, and nothing else: no compiled closure, continuation record or
// object reference, so a guard that compares it with TAM code compares
// two independent engines. It shares the machine's primitive executors,
// handler stack and step and transfer counters with compiled code, and
// charges steps by the same rule (see stepInterp).

// Closure is an interpreted procedure or continuation: a TML abstraction
// together with its defining environment.
type Closure struct {
	Abs *tml.Abs
	Env *Env
	// Name is the source-level name, if known (diagnostics only).
	Name string
}

func (*Closure) value() {}

// Show renders the closure.
func (v *Closure) Show() string {
	if v.Name != "" {
		return "proc " + v.Name
	}
	return "proc"
}

// Env is a chain of binding frames. Frames are small (procedure parameter
// lists), so lookup is a linear scan by binder pointer.
type Env struct {
	prev *Env
	vars []*tml.Var
	vals []Value
}

// Extend pushes a frame binding vars to vals.
func (e *Env) Extend(vars []*tml.Var, vals []Value) *Env {
	return &Env{prev: e, vars: vars, vals: vals}
}

// Lookup resolves a variable to its value.
func (e *Env) Lookup(v *tml.Var) (Value, bool) {
	for f := e; f != nil; f = f.prev {
		for i, w := range f.vars {
			if w == v {
				return f.vals[i], true
			}
		}
	}
	return nil, false
}

// set assigns a bound variable in place.
func (e *Env) set(v *tml.Var, val Value) bool {
	for f := e; f != nil; f = f.prev {
		for i, w := range f.vars {
			if w == v {
				f.vals[i] = val
				return true
			}
		}
	}
	return false
}

// refState is the reference evaluator's state: the application to
// evaluate next and the environment binding its free variables.
type refState struct {
	app *tml.App
	env *Env
}

// refApply is Apply on the reference evaluator: it applies an
// interpreted procedure to args and fresh top-level continuations.
func (m *Machine) refApply(fn Value, args []Value) (Value, error) {
	all := make([]Value, 0, len(args)+2)
	all = append(all, args...)
	all = append(all, &Halt{Err: true}, &Halt{Err: false})
	var st refState
	return m.refDrive(&st, fn, all)
}

// refRun evaluates an application whose free variables are bound by env.
// The continuation variables among the free variables should be bound to
// Halt values (or closures) by the caller.
func (m *Machine) refRun(app *tml.App, env *Env) (Value, error) {
	return m.refDrive(&refState{app: app, env: env}, nil, nil)
}

// refDrive applies fn to args (unless fn is nil) and evaluates to
// completion, leaving the handler stack no deeper than it found it, as
// drive does for compiled code.
func (m *Machine) refDrive(st *refState, fn Value, args []Value) (Value, error) {
	depth := len(m.handlers)
	var done bool
	var result Value
	var err error
	if fn != nil {
		done, result, err = m.refTransfer(st, fn, args)
	}
	for !done && err == nil {
		done, result, err = m.stepInterp(st)
	}
	if len(m.handlers) > depth {
		clear(m.handlers[depth:])
		m.handlers = m.handlers[:depth]
	}
	return result, err
}

// refTransfer dispatches an application of fn to args, writing the next
// state into st or reporting completion (a Halt continuation) or failure.
func (m *Machine) refTransfer(st *refState, fn Value, args []Value) (bool, Value, error) {
	switch f := fn.(type) {
	case *Closure:
		if len(f.Abs.Params) != len(args) {
			return true, nil, rtErr("apply", "%s expects %d arguments, got %d",
				f.Show(), len(f.Abs.Params), len(args))
		}
		// Procedure entry costs a step; continuation invocation is a jump
		// (compiled code runs join points without any transfer at all).
		if !f.Abs.IsCont() {
			if err := m.tick(); err != nil {
				return true, nil, err
			}
		}
		m.transfers++
		// The environment frame retains the argument slice, but an
		// executor's one-result outcome lives in a machine scratch slot:
		// bind a private copy.
		st.app, st.env = f.Abs.Body, f.Env.Extend(f.Abs.Params, slices.Clone(args))
		return false, nil, nil
	case *Halt:
		var v Value = Unit{}
		if len(args) > 0 {
			v = args[0]
		}
		if f.Err {
			return true, nil, &Exception{Value: v}
		}
		return true, v, nil
	default:
		return true, nil, rtErr("apply", "the reference evaluator cannot apply %T", fn)
	}
}

// stepInterp executes one interpreted application. Steps are charged for
// primitive executions (here) and procedure entries (in refTransfer), never
// for administrative β-redexes or continuation invocations — the same
// cost model compiled code exhibits, where join points are plain jumps.
func (m *Machine) stepInterp(st *refState) (bool, Value, error) {
	app, env := st.app, st.env
	// Primitive application: execute and continue with the selected
	// continuation.
	if p, ok := app.Fn.(*tml.Prim); ok {
		if err := m.tick(); err != nil {
			return true, nil, err
		}
		if p.Name == "Y" {
			next, nextEnv, err := m.tieKnot(app, env)
			if err != nil {
				return true, nil, err
			}
			st.app, st.env = next, nextEnv
			return false, nil, nil
		}
		nodeVals, nodeConts := m.splitPrimArgs(p.Name, app.Args)
		vals, err := m.evalValues(nodeVals, env)
		if err != nil {
			return true, nil, err
		}
		conts, err := m.evalValues(nodeConts, env)
		if err != nil {
			return true, nil, err
		}
		exec, ok := m.exec(p.Name)
		if !ok {
			return true, nil, rtErr(p.Name, "no executor registered")
		}
		out, err := exec(m, vals, conts)
		if err != nil {
			return true, nil, err
		}
		fn, args, err := m.resolveOutcome(p.Name, out, conts)
		if err != nil {
			return true, nil, err
		}
		return m.refTransfer(st, fn, args)
	}

	// Ordinary application.
	fnVal, err := m.evalValue(app.Fn, env)
	if err != nil {
		return true, nil, err
	}
	args, err := m.evalValues(app.Args, env)
	if err != nil {
		return true, nil, err
	}
	return m.refTransfer(st, fnVal, args)
}

// splitPrimArgs divides the syntactic argument list of a primitive
// application into value and continuation positions, using the registered
// signature (variadic primitives fall back to the syntactic trailing-cont
// criterion).
func (m *Machine) splitPrimArgs(name string, args []tml.Value) (vals, conts []tml.Value) {
	if d, ok := prim.Lookup(name); ok && d.NConts >= 0 {
		split := len(args) - d.NConts
		if split < 0 {
			split = 0
		}
		return args[:split], args[split:]
	}
	return tml.SplitArgs(args)
}

// resolveOutcome maps a primitive outcome to the continuation (or direct
// tail target) to invoke.
func (m *Machine) resolveOutcome(name string, out Outcome, conts []Value) (Value, []Value, error) {
	if out.Tail != nil {
		return out.Tail.Fn, out.Tail.Args, nil
	}
	if out.Branch < 0 || out.Branch >= len(conts) {
		return nil, nil, rtErr(name, "selected continuation %d of %d", out.Branch, len(conts))
	}
	return conts[out.Branch], out.Results, nil
}

// evalValue evaluates a TML value node.
func (m *Machine) evalValue(v tml.Value, env *Env) (Value, error) {
	switch v := v.(type) {
	case *tml.Lit, *tml.Oid:
		val, _ := LitValue(v)
		return val, nil
	case *tml.Var:
		val, ok := env.Lookup(v)
		if !ok {
			return nil, rtErr("eval", "unbound variable %s", v)
		}
		return val, nil
	case *tml.Abs:
		return &Closure{Abs: v, Env: env}, nil
	case *tml.Prim:
		return nil, rtErr("eval", "primitive %s is not a first-class value", v.Name)
	default:
		return nil, rtErr("eval", "unexpected node %T", v)
	}
}

func (m *Machine) evalValues(vs []tml.Value, env *Env) ([]Value, error) {
	out := make([]Value, len(vs))
	for i, v := range vs {
		val, err := m.evalValue(v, env)
		if err != nil {
			return nil, err
		}
		out[i] = val
	}
	return out, nil
}

// tieKnot implements the Y primitive (paper §2.3): the abstraction
// argument λ(c₀ v₁…vₙ c) has a knot-tying body (c cont₀ abs₁…absₙ); Y
// binds the n+1 abstractions to c₀, v₁…vₙ — visible within themselves,
// establishing the mutually recursive fixed point — and then invokes the
// entry continuation bound to c₀ tail-recursively.
func (m *Machine) tieKnot(app *tml.App, env *Env) (*tml.App, *Env, error) {
	if len(app.Args) != 1 {
		return nil, nil, rtErr("Y", "expects one abstraction argument")
	}
	yAbs, ok := app.Args[0].(*tml.Abs)
	if !ok {
		return nil, nil, rtErr("Y", "argument must be a literal abstraction")
	}
	if len(yAbs.Params) < 2 {
		return nil, nil, rtErr("Y", "abstraction must take at least c₀ and c")
	}
	knot := yAbs.Body
	cVar, ok := knot.Fn.(*tml.Var)
	if !ok || cVar != yAbs.Params[len(yAbs.Params)-1] {
		return nil, nil, rtErr("Y", "body must invoke the final continuation parameter")
	}
	if len(knot.Args) != len(yAbs.Params)-1 {
		return nil, nil, rtErr("Y", "knot passes %d abstractions for %d bindings",
			len(knot.Args), len(yAbs.Params)-1)
	}
	frameVals := make([]Value, len(yAbs.Params))
	frame := env.Extend(yAbs.Params, frameVals)
	// First pass: abstractions become closures over the knot frame.
	// A knot argument may also be a *variable* referencing one of the
	// other recursive bindings — η-reduction contracts cont()(loop) to
	// loop — which the second pass aliases.
	type aliasRef struct{ from, to int }
	var aliases []aliasRef
	paramIdx := make(map[*tml.Var]int, len(yAbs.Params))
	for i, p := range yAbs.Params {
		paramIdx[p] = i
	}
	for i, arg := range knot.Args {
		switch arg := arg.(type) {
		case *tml.Abs:
			frameVals[i] = &Closure{Abs: arg, Env: frame}
		case *tml.Var:
			j, ok := paramIdx[arg]
			if !ok || j >= len(knot.Args) {
				return nil, nil, rtErr("Y", "knot argument %d references %s outside the knot", i, arg)
			}
			aliases = append(aliases, aliasRef{from: i, to: j})
		default:
			return nil, nil, rtErr("Y", "knot argument %d is %T, want abstraction", i, arg)
		}
	}
	// Second pass: resolve aliases (chains terminate at an abstraction).
	for range aliases {
		for _, a := range aliases {
			if frameVals[a.from] == nil && frameVals[a.to] != nil {
				frameVals[a.from] = frameVals[a.to]
			}
		}
	}
	for i, v := range frameVals[:len(knot.Args)] {
		if v == nil {
			return nil, nil, rtErr("Y", "knot binding %d is part of an alias cycle", i)
		}
	}
	entry, ok := frameVals[0].(*Closure)
	if !ok {
		return nil, nil, rtErr("Y", "entry binding is not a continuation")
	}
	if len(entry.Abs.Params) != 0 {
		return nil, nil, rtErr("Y", "entry continuation must take no parameters")
	}
	return entry.Abs.Body, frame, nil
}
