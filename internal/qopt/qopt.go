// Package qopt implements the algebraic query rewrite rules of paper
// §4.2 as ordinary TML rewrite rules plugged into the shared optimizer:
//
//	merge-select     σ_p(σ_q(R)) ⇒ σ_{q∧p}(R)
//	trivial-exists   (∃x∈R : p), x∉FV(p) ⇒ p ∧ R≠∅
//	identity-project π_id(R) ⇒ R
//	index-scan       σ_{x.i=k}(R) ⇒ indexscan(R,i,k) when the runtime
//	                 binding of R shows an index on column i
//
// The first three are purely algebraic; the index rule consults the
// store — the "knowledge about index structures" available only at
// runtime, which is why query optimization is delayed until then
// (paper §4.2). Because the rules run inside the same optimizer as the
// program rewrites, program and query optimization interleave freely
// (Fig. 4): inlining a user-defined predicate can expose an indexable
// comparison, which the index rule then picks up.
package qopt

import (
	"tycoon/internal/opt"
	"tycoon/internal/pipeline"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// StaticRules returns the rules that need no runtime bindings.
func StaticRules() []opt.Rule {
	return []opt.Rule{
		{Name: "identity-project", Apply: identityProject},
		{Name: "merge-select", Apply: mergeSelect},
		{Name: "trivial-exists", Apply: trivialExists},
	}
}

// RuntimeRules returns the full rule set, including the rules that
// consult the store's runtime bindings.
func RuntimeRules(st *store.Store) []opt.Rule {
	rules := StaticRules()
	ix := &indexRule{st: st}
	rules = append(rules, opt.Rule{Name: "index-scan", Apply: ix.apply})
	return rules
}

// StaticPack packages the purely algebraic rules for the compilation
// pipeline (compile-time query optimization).
func StaticPack() pipeline.RulePack {
	return pipeline.RulePack{Name: "qopt-static", Rules: StaticRules()}
}

// RuntimePack packages the full rule set — including the index rule that
// consults runtime binding knowledge — for the pipeline's reflective
// jobs (paper §4.2: query optimization delayed until bindings exist).
func RuntimePack(st *store.Store) pipeline.RulePack {
	return pipeline.RulePack{Name: "qopt-runtime", Rules: RuntimeRules(st)}
}

// isPrim reports whether app applies the named primitive.
func isPrim(app *tml.App, name string) bool {
	p, ok := app.Fn.(*tml.Prim)
	return ok && p.Name == name
}

// identityProject rewrites (project proc(x ce cc)(cc x) R ce k) → (k R).
func identityProject(ctx *opt.Ctx, app *tml.App) (*tml.App, bool) {
	if !isPrim(app, "project") || len(app.Args) != 4 {
		return nil, false
	}
	fn, ok := app.Args[0].(*tml.Abs)
	if !ok || len(fn.Params) != 3 {
		return nil, false
	}
	x, cc := fn.Params[0], fn.Params[2]
	body := fn.Body
	if bf, ok := body.Fn.(*tml.Var); !ok || bf != cc {
		return nil, false
	}
	if len(body.Args) != 1 || body.Args[0] != tml.Value(x) {
		return nil, false
	}
	return tml.NewApp(app.Args[3], app.Args[1]), true
}

// mergeSelect rewrites the paper's σ_p(σ_q(R)) ⇒ σ_{q∧p}(R):
//
//	(select q R ce cont(t) (select p t ce k))   [ |…|_t = 1 ]
//	⇒ (select proc(x ce cc)(q x ce cont(b)
//	     (if b cont()(p x ce cc) cont()(cc false))) R ce k)
//
// The merged predicate short-circuits, preserving q-then-p evaluation
// order (and therefore side-effect and exception order).
func mergeSelect(ctx *opt.Ctx, app *tml.App) (*tml.App, bool) {
	if !isPrim(app, "select") || len(app.Args) != 4 {
		return nil, false
	}
	q := app.Args[0]
	outerCont, ok := app.Args[3].(*tml.Abs)
	if !ok || len(outerCont.Params) != 1 {
		return nil, false
	}
	t := outerCont.Params[0]
	inner := outerCont.Body
	if !isPrim(inner, "select") || len(inner.Args) != 4 {
		return nil, false
	}
	p := inner.Args[0]
	if inner.Args[1] != tml.Value(t) {
		return nil, false
	}
	// Precondition: the temporary relation flows only into the inner
	// select ( |inner|_t = 1 over the whole continuation body).
	if tml.Count(inner, t) != 1 {
		return nil, false
	}
	// The predicates may not capture t.
	if tml.Count(p, t) != 0 || tml.Count(q, t) != 0 {
		return nil, false
	}

	g := ctx.Gen
	x := g.Fresh("x")
	ce := g.FreshCont("ce")
	cc := g.FreshCont("cc")
	b := g.Fresh("b")
	// Predicates may be abstraction literals (freshened to preserve
	// unique binding) or variables/OIDs denoting predicate procedures.
	qv := tml.Freshen(q, g)
	pv := tml.Freshen(p, g)
	thenB := tml.NewApp(pv, x, ce, cc)
	elseB := tml.NewApp(cc, tml.Bool(false))
	test := tml.NewApp(tml.NewPrim("if"), b,
		&tml.Abs{Body: thenB}, &tml.Abs{Body: elseB})
	qCall := tml.NewApp(qv, x, ce, &tml.Abs{Params: []*tml.Var{b}, Body: test})
	merged := &tml.Abs{Params: []*tml.Var{x, ce, cc}, Body: qCall}
	return tml.NewApp(tml.NewPrim("select"), merged, app.Args[1], app.Args[2], inner.Args[3]), true
}

// trivialExists implements the paper's scoping-restricted rule: if the
// bound variable x does not appear in the predicate p, then
// (∃x∈R : p) ≡ p ∧ (R ≠ ∅):
//
//	(exists proc(x ce cc)(P…) R ce' k)   [ |P|_x = 0 ]
//	⇒ (P[ok/x-call] once, then (empty R …), combined with and)
func trivialExists(ctx *opt.Ctx, app *tml.App) (*tml.App, bool) {
	if !isPrim(app, "exists") || len(app.Args) != 4 {
		return nil, false
	}
	pred, ok := app.Args[0].(*tml.Abs)
	if !ok || len(pred.Params) != 3 {
		return nil, false
	}
	x := pred.Params[0]
	if tml.Count(pred.Body, x) != 0 {
		return nil, false
	}
	rel, ce, k := app.Args[1], app.Args[2], app.Args[3]

	g := ctx.Gen
	pv := g.Fresh("p")
	emp := g.Fresh("emp")
	nemp := g.Fresh("nemp")
	r := g.Fresh("r")
	predCopy := tml.FreshenAbs(pred, g)

	// (pred ok ce cont(p)
	//   (empty R ce cont(emp)
	//     (not emp cont(nemp)
	//       (and p nemp cont(r) (k r)))))
	final := tml.NewApp(k, r)
	andApp := tml.NewApp(tml.NewPrim("and"), pv, nemp,
		&tml.Abs{Params: []*tml.Var{r}, Body: final})
	notApp := tml.NewApp(tml.NewPrim("not"), emp,
		&tml.Abs{Params: []*tml.Var{nemp}, Body: andApp})
	emptyApp := tml.NewApp(tml.NewPrim("empty"), rel, ce,
		&tml.Abs{Params: []*tml.Var{emp}, Body: notApp})
	return tml.NewApp(predCopy, tml.Unit(), ce,
		&tml.Abs{Params: []*tml.Var{pv}, Body: emptyApp}), true
}

// indexRule substitutes an index scan for a selection whose predicate is
// a simple equality between an indexed column of the (runtime-bound)
// relation and a row-independent key.
type indexRule struct {
	st *store.Store
}

func (ir *indexRule) apply(ctx *opt.Ctx, app *tml.App) (*tml.App, bool) {
	if !isPrim(app, "select") || len(app.Args) != 4 {
		return nil, false
	}
	relOid, ok := app.Args[1].(*tml.Oid)
	if !ok {
		return nil, false
	}
	pred, ok := app.Args[0].(*tml.Abs)
	if !ok || len(pred.Params) != 3 {
		return nil, false
	}
	col, key, ok := matchEqPredicate(pred)
	if !ok {
		return nil, false
	}
	// Runtime binding knowledge: only rewrite when the store object is a
	// relation with a declared index on the column.
	obj, err := ir.st.Get(store.OID(relOid.Ref))
	if err != nil {
		return nil, false
	}
	rel, isRel := obj.(*store.Relation)
	if !isRel || !rel.HasIndexOn(col) {
		return nil, false
	}
	// Cost gate over live statistics: rewrite only when the estimated
	// match set plus the probe overhead undercuts the full scan. A cold
	// column (no stats yet) defaults to the probe, as before.
	nrows := rel.NumRows()
	var cst *store.ColStats
	if sts := rel.ColumnStats(nrows); col < len(sts) {
		cst = &sts[col]
	}
	if !UseIndex(cst, nrows) {
		return nil, false
	}
	return tml.NewApp(tml.NewPrim("indexscan"),
		relOid, tml.Int(int64(col)), key, app.Args[2], app.Args[3]), true
}

// matchEqPredicate recognises proc(x ce cc) bodies of the shape
//
//	([] x I cont(t) (== t K cont()(cc true) cont()(cc false)))
//
// (and the K-t flipped variant) where I is an integer literal and K is a
// literal, OID or variable other than x — i.e. a row-independent key.
func matchEqPredicate(pred *tml.Abs) (col int, key tml.Value, ok bool) {
	x, cc := pred.Params[0], pred.Params[2]
	body := pred.Body
	if !isPrim(body, "[]") || len(body.Args) != 3 {
		return 0, nil, false
	}
	if body.Args[0] != tml.Value(x) {
		return 0, nil, false
	}
	idxLit, ok2 := body.Args[1].(*tml.Lit)
	if !ok2 || idxLit.Kind != tml.LitInt {
		return 0, nil, false
	}
	cont, ok2 := body.Args[2].(*tml.Abs)
	if !ok2 || len(cont.Params) != 1 {
		return 0, nil, false
	}
	t := cont.Params[0]
	eq := cont.Body
	if !isPrim(eq, "==") || len(eq.Args) != 4 {
		return 0, nil, false
	}
	a, b := eq.Args[0], eq.Args[1]
	switch {
	case a == tml.Value(t):
		key = b
	case b == tml.Value(t):
		key = a
	default:
		return 0, nil, false
	}
	// The key must not depend on the row.
	if key == tml.Value(x) || key == tml.Value(t) {
		return 0, nil, false
	}
	if v, isVar := key.(*tml.Var); isVar && (v == x || v == t) {
		return 0, nil, false
	}
	if !branchIsBool(eq.Args[2], cc, true) || !branchIsBool(eq.Args[3], cc, false) {
		return 0, nil, false
	}
	return int(idxLit.Int), key, true
}

// branchIsBool matches cont()(cc LIT).
func branchIsBool(v tml.Value, cc *tml.Var, want bool) bool {
	abs, ok := v.(*tml.Abs)
	if !ok || len(abs.Params) != 0 {
		return false
	}
	fn, ok := abs.Body.Fn.(*tml.Var)
	if !ok || fn != cc || len(abs.Body.Args) != 1 {
		return false
	}
	lit, ok := abs.Body.Args[0].(*tml.Lit)
	return ok && lit.Kind == tml.LitBool && lit.Bool == want
}
