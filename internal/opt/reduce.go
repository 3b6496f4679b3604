package opt

import (
	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

// This file implements the reduction pass: the core rewrite rules of
// paper §3 applied bottom-up over the tree until a fixpoint is reached.
// Every rule strictly decreases tree size (subst and remove are fused in
// the β-redex handler so their combination decreases size), which is the
// paper's termination argument.

// reduceApp rewrites one application bottom-up, then applies the rules at
// the root until none fires.
func (o *optimizer) reduceApp(app *tml.App) *tml.App {
	fn := o.reduceVal(app.Fn)
	var args []tml.Value
	for i, a := range app.Args {
		b := o.reduceVal(a)
		if b != a && args == nil {
			args = append([]tml.Value(nil), app.Args...)
		}
		if args != nil {
			args[i] = b
		}
	}
	if fn != app.Fn || args != nil {
		if args == nil {
			args = app.Args
		}
		app = &tml.App{Fn: fn, Args: args}
	}
	for {
		next, ok := o.applyRules(app)
		if !ok {
			return app
		}
		o.changed = true
		app = next
	}
}

// reduceVal rewrites a value; only abstractions have structure to reduce.
func (o *optimizer) reduceVal(v tml.Value) tml.Value {
	abs, ok := v.(*tml.Abs)
	if !ok {
		return v
	}
	body := o.reduceApp(abs.Body)
	if body != abs.Body {
		abs = &tml.Abs{Params: abs.Params, Body: body}
	}
	// η-reduce: λ(v₁…vₙ)(val v₁…vₙ) → val  when no vᵢ occurs in val.
	if val, ok := etaReduce(abs); ok {
		o.stats.bump("eta-reduce")
		o.changed = true
		return val
	}
	return abs
}

// etaReduce applies the η-reduce rule of paper §3.
func etaReduce(abs *tml.Abs) (tml.Value, bool) {
	body := abs.Body
	if len(body.Args) != len(abs.Params) {
		return nil, false
	}
	for i, p := range abs.Params {
		if body.Args[i] != tml.Value(p) {
			return nil, false
		}
	}
	// Precondition: ∀i |val|_{vᵢ} = 0.
	for _, p := range abs.Params {
		if tml.Count(body.Fn, p) != 0 {
			return nil, false
		}
	}
	// The η-contracted value must not change the proc/cont shape in a way
	// that breaks the escape rule: a proc abstraction may only contract to
	// a value that is itself proc-like. Contracting to a variable or
	// abstraction of identical parameter shape is always safe because the
	// application supplied exactly the same arguments.
	return body.Fn, true
}

// applyRules tries each root-level rule once; ok reports whether any fired.
func (o *optimizer) applyRules(app *tml.App) (*tml.App, bool) {
	switch fn := app.Fn.(type) {
	case *tml.Abs:
		if next, ok := o.betaRedex(app, fn); ok {
			return next, true
		}
	case *tml.Prim:
		if next, ok := o.primRules(app, fn); ok {
			return next, true
		}
	}
	for _, r := range o.opts.Extra {
		if next, ok := r.Apply(o.ctx, app); ok {
			o.stats.bump(r.Name)
			return next, true
		}
	}
	return nil, false
}

// betaRedex fuses the subst, remove and reduce rules of paper §3 on a
// direct application of an abstraction:
//
//	subst:  a bound value is substituted when it is not an abstraction, or
//	        when the variable is referenced exactly once (the precondition
//	        that keeps TML code from growing);
//	remove: a binding whose variable has no occurrences is struck out
//	        together with its value (sound because argument values cannot
//	        contain side-effecting calls);
//	reduce: an application that binds no variables is replaced by the
//	        abstraction body.
func (o *optimizer) betaRedex(app *tml.App, fn *tml.Abs) (*tml.App, bool) {
	if len(fn.Params) != len(app.Args) {
		return nil, false // ill-formed; leave for the checker
	}
	census := tml.NewCensus(fn.Body)
	subst := make(map[*tml.Var]tml.Value)
	var keepParams []*tml.Var
	var keepArgs []tml.Value
	removed, substituted := 0, 0
	for i, p := range fn.Params {
		arg := app.Args[i]
		uses := census.Uses(p)
		switch {
		case uses == 0:
			removed++
		case substitutable(arg, uses, o.opts.SubstUnrestricted):
			subst[p] = arg
			substituted++
		default:
			keepParams = append(keepParams, p)
			keepArgs = append(keepArgs, arg)
		}
	}
	if removed == 0 && substituted == 0 && len(keepParams) > 0 {
		return nil, false
	}
	body := fn.Body
	if len(subst) > 0 {
		body = tml.SubstMany(body, subst).(*tml.App)
		o.stats.Rules = ensure(o.stats.Rules)
		o.stats.Rules["subst"] += substituted
	}
	if removed > 0 {
		o.stats.Rules = ensure(o.stats.Rules)
		o.stats.Rules["remove"] += removed
	}
	if len(keepParams) == 0 {
		o.stats.bump("reduce")
		return body, true
	}
	return tml.NewApp(&tml.Abs{Params: keepParams, Body: body}, keepArgs...), true
}

func ensure(m map[string]int) map[string]int {
	if m == nil {
		return make(map[string]int)
	}
	return m
}

// substitutable implements the subst precondition
// (val ∉ Abs ∨ |app|_v = 1).
func substitutable(val tml.Value, uses int, unrestricted bool) bool {
	if _, isAbs := val.(*tml.Abs); isAbs {
		return uses == 1 || unrestricted
	}
	return true
}

// primRules applies fold, the dead-call rule, case-subst and the two Y
// rules to an application of a primitive.
func (o *optimizer) primRules(app *tml.App, fn *tml.Prim) (*tml.App, bool) {
	desc, ok := prim.Lookup(fn.Name)
	if !ok {
		return nil, false
	}

	// fold: per-primitive meta-evaluation (paper §2.3 item 2, rule fold).
	if desc.Fold != nil && !desc.NoFold && !o.opts.NoFold {
		if next, ok := desc.Fold(app.Args); ok {
			o.stats.bump("fold")
			return next, true
		}
	}

	// Dead-call elimination: (p vals… cont(t₁…tₙ) body) → body when the
	// primitive is pure (cannot fail, observe or alter the store) and the
	// continuation ignores every result. This is the dead code elimination
	// the paper attributes to the meta-evaluation machinery; effect
	// classes (paper §2.3 item 4) justify it generically.
	if desc.Effect == prim.Pure && desc.NConts == 1 {
		if cont, ok := app.Args[len(app.Args)-1].(*tml.Abs); ok {
			dead := true
			for _, p := range cont.Params {
				if tml.Count(cont.Body, p) != 0 {
					dead = false
					break
				}
			}
			if dead {
				o.stats.bump("dead-call")
				return cont.Body, true
			}
		}
	}

	switch fn.Name {
	case "==":
		if next, ok := o.caseSubst(app); ok {
			return next, true
		}
	case "Y":
		if next, ok := o.yRules(app); ok {
			return next, true
		}
	}
	return nil, false
}

// caseSubst implements the case-subst rule of paper §3: inside the branch
// continuation selected by tag valᵢ, the scrutinee variable is known to be
// identical to valᵢ and may be replaced by it.
func (o *optimizer) caseSubst(app *tml.App) (*tml.App, bool) {
	vals, conts := tml.SplitArgs(app.Args)
	if len(vals) < 2 || len(conts) < len(vals)-1 {
		return nil, false
	}
	v, ok := vals[0].(*tml.Var)
	if !ok {
		return nil, false
	}
	tags := vals[1:]
	changed := false
	newConts := append([]tml.Value(nil), conts...)
	for i, tag := range tags {
		branch, ok := conts[i].(*tml.Abs)
		if !ok {
			continue
		}
		if tml.Count(branch.Body, v) == 0 {
			continue
		}
		// Replacing v by an abstraction tag would duplicate binders; tags
		// are constants or variables in practice.
		if _, isAbs := tag.(*tml.Abs); isAbs {
			continue
		}
		body := tml.SubstApp(branch.Body, v, tag)
		newConts[i] = &tml.Abs{Params: branch.Params, Body: body}
		changed = true
	}
	if !changed {
		return nil, false
	}
	o.stats.bump("case-subst")
	args := append(append([]tml.Value(nil), vals...), newConts...)
	return tml.NewApp(app.Fn, args...), true
}

// yRules implements Y-remove and Y-reduce (paper §3) on
// (Y λ(c₀ v₁…vₙ c)(c cont()app abs₁…absₙ)).
func (o *optimizer) yRules(app *tml.App) (*tml.App, bool) {
	if len(app.Args) != 1 {
		return nil, false
	}
	yAbs, ok := app.Args[0].(*tml.Abs)
	if !ok || len(yAbs.Params) < 2 {
		return nil, false
	}
	c0 := yAbs.Params[0]
	c := yAbs.Params[len(yAbs.Params)-1]
	vs := yAbs.Params[1 : len(yAbs.Params)-1]
	knot := yAbs.Body
	// The knot-tying call must be (c cont₀ abs₁…absₙ).
	fnVar, ok := knot.Fn.(*tml.Var)
	if !ok || fnVar != c || len(knot.Args) != 1+len(vs) {
		return nil, false
	}
	cont0, ok := knot.Args[0].(*tml.Abs)
	if !ok {
		return nil, false
	}
	recs := knot.Args[1:]

	// Y-reduce: no recursive bindings and c₀ unreferenced → the entry
	// continuation's body replaces the whole Y application.
	if len(vs) == 0 && tml.Count(cont0.Body, c0) == 0 && len(cont0.Params) == 0 {
		o.stats.bump("Y-reduce")
		return cont0.Body, true
	}

	// Y-remove: strike out any recursive binding vᵢ not referenced from
	// the entry body nor from the other recursive abstractions
	// (|app|_{vᵢ} = 0 ∧ ∀ j≠i |absⱼ|_{vᵢ} = 0).
	keepParams := []*tml.Var{c0}
	keepRecs := []tml.Value{}
	removed := 0
	for i, v := range vs {
		dead := tml.Count(cont0.Body, v) == 0
		if dead {
			for j, r := range recs {
				if j != i && tml.Count(r, v) != 0 {
					dead = false
					break
				}
			}
		}
		if dead {
			removed++
			continue
		}
		keepParams = append(keepParams, v)
		keepRecs = append(keepRecs, recs[i])
	}
	if removed == 0 {
		return nil, false
	}
	o.stats.Rules = ensure(o.stats.Rules)
	o.stats.Rules["Y-remove"] += removed
	keepParams = append(keepParams, c)
	newKnot := tml.NewApp(c, append([]tml.Value{cont0}, keepRecs...)...)
	newY := &tml.Abs{Params: keepParams, Body: newKnot}
	return tml.NewApp(app.Fn, newY), true
}
