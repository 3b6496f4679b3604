package tml

// This file implements variable substitution E[val/v] and α-conversion
// (freshening), following the inductive definition of paper §3.
//
// Substitution never captures: the unique binding rule guarantees that no
// binder in E can shadow v, so a plain structural replacement is sound.
// When the substituted value is an abstraction, its binders occur
// temporarily at two places in the tree; callers (the subst rewrite rule)
// immediately remove the original occurrence, restoring unique binding
// (paper §3).

// Subst returns n with every use occurrence of v replaced by val,
// implementing E[val/v]. Unchanged subtrees are shared between input and
// output; nodes on the path to a replacement are rebuilt, so the input
// tree is never mutated.
func Subst(n Node, v *Var, val Value) Node {
	switch n := n.(type) {
	case *Var:
		if n == v {
			return val
		}
		return n
	case *Lit, *Oid, *Prim:
		return n
	case *Abs:
		body := Subst(n.Body, v, val).(*App)
		if body == n.Body {
			return n
		}
		return &Abs{Params: n.Params, Body: body}
	case *App:
		return SubstApp(n, v, val)
	default:
		return n
	}
}

// SubstApp is Subst specialised to application nodes; it preserves the
// static *App type required for abstraction bodies.
func SubstApp(app *App, v *Var, val Value) *App {
	fn := Subst(app.Fn, v, val).(Value)
	var args []Value // copy-on-write: allocated on first changed argument
	for i, a := range app.Args {
		b := Subst(a, v, val).(Value)
		if b != a && args == nil {
			args = append([]Value(nil), app.Args...)
		}
		if args != nil {
			args[i] = b
		}
	}
	if fn == app.Fn && args == nil {
		return app
	}
	if args == nil {
		args = app.Args
	}
	return &App{Fn: fn, Args: args}
}

// SubstMany applies a parallel substitution: every use of a key variable is
// replaced by its mapped value in a single traversal. Parallel (rather than
// sequential) substitution is what the case-subst rule and the reflective
// optimizer's binding re-establishment require.
func SubstMany(n Node, m map[*Var]Value) Node {
	if len(m) == 0 {
		return n
	}
	switch n := n.(type) {
	case *Var:
		if val, ok := m[n]; ok {
			return val
		}
		return n
	case *Lit, *Oid, *Prim:
		return n
	case *Abs:
		body := SubstMany(n.Body, m).(*App)
		if body == n.Body {
			return n
		}
		return &Abs{Params: n.Params, Body: body}
	case *App:
		fn := SubstMany(n.Fn, m).(Value)
		var args []Value
		for i, a := range n.Args {
			b := SubstMany(a, m).(Value)
			if b != a && args == nil {
				args = append([]Value(nil), n.Args...)
			}
			if args != nil {
				args[i] = b
			}
		}
		if fn == n.Fn && args == nil {
			return n
		}
		if args == nil {
			args = n.Args
		}
		return &App{Fn: fn, Args: args}
	default:
		return n
	}
}

// Freshen returns a deep copy of val in which every binder introduced
// inside val is replaced by a fresh variable from g (α-conversion).
// References to variables bound outside val are shared with the original.
// Freshen is the prerequisite for the expansion pass: inlining an
// abstraction at several call sites would otherwise violate the unique
// binding rule.
func Freshen(val Value, g *VarGen) Value {
	return freshenVal(val, g, make(map[*Var]*Var))
}

// FreshenAbs is Freshen specialised to abstractions.
func FreshenAbs(a *Abs, g *VarGen) *Abs {
	return freshenVal(a, g, make(map[*Var]*Var)).(*Abs)
}

func freshenVal(v Value, g *VarGen, ren map[*Var]*Var) Value {
	switch v := v.(type) {
	case *Var:
		if w, ok := ren[v]; ok {
			return w
		}
		return v
	case *Lit, *Oid, *Prim:
		return v
	case *Abs:
		params := make([]*Var, len(v.Params))
		for i, p := range v.Params {
			q := g.Like(p)
			ren[p] = q
			params[i] = q
		}
		return &Abs{Params: params, Body: freshenApp(v.Body, g, ren)}
	default:
		return v
	}
}

func freshenApp(app *App, g *VarGen, ren map[*Var]*Var) *App {
	fn := freshenVal(app.Fn, g, ren)
	args := make([]Value, len(app.Args))
	for i, a := range app.Args {
		args[i] = freshenVal(a, g, ren)
	}
	return &App{Fn: fn, Args: args}
}

// CopyApp returns a deep copy of app with all internal binders freshened.
func CopyApp(app *App, g *VarGen) *App {
	return freshenApp(app, g, make(map[*Var]*Var))
}
