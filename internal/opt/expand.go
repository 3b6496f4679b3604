package opt

import "tycoon/internal/tml"

// This file implements the expansion pass of paper §3: substituting bound
// λ-abstractions at their application sites — procedure inlining in
// compiler terms, view expansion in database terms. The decision whether
// to substitute a given use is based on a heuristic cost model similar to
// Appel's: the estimated body cost, discounted by savings expected from
// manifest arguments, must stay under a threshold that shrinks as the
// accumulated penalty grows.
//
// Unlike the reduction pass, expansion can grow the tree, so every inline
// adds to the penalty that eventually stops the reduction/expansion loop.

// callOverhead is the assumed cost of a closure call on the idealized
// abstract machine; it is credited as savings when a call is inlined.
const callOverhead = 4

// manifestArgBonus is the per-argument savings assumed when an argument is
// a constant or an abstraction, since such arguments typically enable
// folds and further reductions after inlining.
const manifestArgBonus = 3

// expandApp walks the tree collecting λ-bindings (β-redexes and Y knots)
// and replaces calls of bound variables with α-converted copies of the
// bound abstraction when the cost model approves. The reduction pass that
// follows turns the introduced β-redexes into actual substitutions.
func (o *optimizer) expandApp(app *tml.App, env map[*tml.Var]*tml.Abs, round int) *tml.App {
	// Collect bindings visible at this node.
	switch fn := app.Fn.(type) {
	case *tml.Abs:
		if len(fn.Params) == len(app.Args) {
			for i, p := range fn.Params {
				if abs, ok := app.Args[i].(*tml.Abs); ok {
					env[p] = abs
				}
			}
		}
	case *tml.Prim:
		if fn.Name == "Y" && len(app.Args) == 1 {
			if yAbs, ok := app.Args[0].(*tml.Abs); ok && len(yAbs.Params) >= 2 {
				c := yAbs.Params[len(yAbs.Params)-1]
				if fnVar, ok := yAbs.Body.Fn.(*tml.Var); ok && fnVar == c &&
					len(yAbs.Body.Args) == len(yAbs.Params)-1 {
					if cont0, ok := yAbs.Body.Args[0].(*tml.Abs); ok {
						env[yAbs.Params[0]] = cont0
					}
					for i, v := range yAbs.Params[1 : len(yAbs.Params)-1] {
						if abs, ok := yAbs.Body.Args[i+1].(*tml.Abs); ok {
							env[v] = abs
						}
					}
				}
			}
		}
	}

	// Inline at the root if the callee is a bound variable.
	if v, ok := app.Fn.(*tml.Var); ok {
		if abs, bound := env[v]; bound && len(abs.Params) == len(app.Args) {
			if o.shouldInline(v, abs, app.Args, round) {
				o.stats.bump("expand")
				o.changed = true
				o.penalty++
				o.perBinder[v]++
				inlined := tml.FreshenAbs(abs, o.gen)
				// The copy becomes a β-redex; recurse into the arguments
				// only — recursing into the freshly inlined body could
				// re-inline recursive binders without bound within this
				// pass.
				args := make([]tml.Value, len(app.Args))
				for i, a := range app.Args {
					args[i] = o.expandVal(a, env, round)
				}
				return tml.NewApp(inlined, args...)
			}
		}
	}

	fn := o.expandVal(app.Fn, env, round)
	args := make([]tml.Value, len(app.Args))
	for i, a := range app.Args {
		args[i] = o.expandVal(a, env, round)
	}
	return tml.NewApp(fn, args...)
}

func (o *optimizer) expandVal(v tml.Value, env map[*tml.Var]*tml.Abs, round int) tml.Value {
	abs, ok := v.(*tml.Abs)
	if !ok {
		return v
	}
	body := o.expandApp(abs.Body, env, round)
	if body == abs.Body {
		return abs
	}
	return &tml.Abs{Params: abs.Params, Body: body}
}

// shouldInline is the heuristic cost model. It approves an inline when the
// estimated body cost, net of call overhead and manifest-argument savings,
// stays below a threshold that shrinks with accumulated penalty, and the
// per-pass and global penalty limits are not exhausted.
func (o *optimizer) shouldInline(v *tml.Var, abs *tml.Abs, args []tml.Value, round int) bool {
	if o.penalty >= o.opts.PenaltyLimit {
		return false
	}
	// One unroll of a given binder per pass keeps recursive procedures
	// (loop unrolling) bounded per round; across rounds, the accumulated
	// penalty is the stop condition (paper §3).
	if o.perBinder[v] >= 1 {
		return false
	}
	bodyCost := Cost(abs.Body)
	savings := callOverhead
	for _, a := range args {
		switch a.(type) {
		case *tml.Lit, *tml.Oid, *tml.Abs, *tml.Prim:
			savings += manifestArgBonus
		}
	}
	// The effective threshold shrinks as penalty accumulates, so early
	// rounds inline aggressively and later rounds only accept very small
	// bodies — the accumulated-penalty regime of paper §3.
	threshold := DefaultInlineBudget * (o.opts.PenaltyLimit - o.penalty) / o.opts.PenaltyLimit
	return bodyCost-savings <= threshold
}
