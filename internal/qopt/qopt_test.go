package qopt_test

import (
	"strings"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/opt"
	"tycoon/internal/prim"
	"tycoon/internal/qopt"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

var popts = tml.ParseOpts{IsPrim: prim.IsPrim}

func parse(t *testing.T, src string) *tml.App {
	t.Helper()
	app, err := tml.ParseApp(src, popts)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return app
}

func optimizeWith(t *testing.T, app *tml.App, rules []opt.Rule) (*tml.App, *opt.Stats) {
	t.Helper()
	out, stats, err := opt.Optimize(app, opt.Options{Extra: rules, NoExpansion: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return out, stats
}

func TestIdentityProject(t *testing.T) {
	src := `(project proc(x !ce !cc) (cc x) R e k)`
	out, stats := optimizeWith(t, parse(t, src), qopt.StaticRules())
	if stats.Rules["identity-project"] != 1 {
		t.Fatalf("identity-project did not fire: %v", stats.Rules)
	}
	if strings.Contains(out.String(), "project") {
		t.Errorf("project survived: %s", out)
	}
	// Non-identity target must not fire.
	src2 := `(project proc(x !ce !cc) ([] x 0 cont(t) (cc t)) R e k)`
	_, stats2 := optimizeWith(t, parse(t, src2), qopt.StaticRules())
	if stats2.Rules["identity-project"] != 0 {
		t.Error("identity-project fired on a real projection")
	}
}

func TestMergeSelect(t *testing.T) {
	// σ_p(σ_q(R)): the merged plan applies one select with q∧p.
	src := `
(select proc(x1 !ce1 !cc1) (q x1 ce1 cc1)
        R e
        cont(t) (select proc(x2 !ce2 !cc2) (p x2 ce2 cc2) t e k))`
	out, stats := optimizeWith(t, parse(t, src), qopt.StaticRules())
	if stats.Rules["merge-select"] != 1 {
		t.Fatalf("merge-select did not fire: %v\n%s", stats.Rules, tml.Print(out))
	}
	s := out.String()
	if strings.Count(s, "(select") != 1 {
		t.Errorf("expected exactly one select after merge:\n%s", tml.Print(out))
	}
	// The temp relation may be used only once.
	src2 := `
(select proc(x1 !ce1 !cc1) (q x1 ce1 cc1)
        R e
        cont(t) (select proc(x2 !ce2 !cc2) (p x2 ce2 cc2) t e
                  cont(u) (pair t u e k)))`
	_, stats2 := optimizeWith(t, parse(t, src2), qopt.StaticRules())
	if stats2.Rules["merge-select"] != 0 {
		t.Error("merge-select fired although the temporary escapes")
	}
}

func TestTrivialExists(t *testing.T) {
	// The predicate ignores its row variable: rewrite to p ∧ R ≠ ∅.
	src := `(exists proc(x !ce !cc) (p ok ce cc) R e k)`
	out, stats := optimizeWith(t, parse(t, src), qopt.StaticRules())
	if stats.Rules["trivial-exists"] != 1 {
		t.Fatalf("trivial-exists did not fire: %v", stats.Rules)
	}
	s := out.String()
	if strings.Contains(s, "exists") {
		t.Errorf("exists survived:\n%s", tml.Print(out))
	}
	if !strings.Contains(s, "empty") || !strings.Contains(s, "and") {
		t.Errorf("rewrite should test p ∧ R≠∅:\n%s", tml.Print(out))
	}
	// A predicate that uses the row variable must not be rewritten.
	src2 := `(exists proc(x !ce !cc) (p x ce cc) R e k)`
	_, stats2 := optimizeWith(t, parse(t, src2), qopt.StaticRules())
	if stats2.Rules["trivial-exists"] != 0 {
		t.Error("trivial-exists fired although the predicate depends on the row")
	}
}

// setupRel creates a store with an indexed relation of n rows
// (id = 0…n-1 indexed, val = id*10 unindexed).
func setupRel(t *testing.T, n int) (*store.Store, *relalg.Manager, store.OID) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mg := relalg.NewManager(st)
	oid, err := mg.CreateRelation("t", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "val", Type: store.ColInt},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := mg.InsertRow(oid, []store.Val{store.IntVal(int64(i)), store.IntVal(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	return st, mg, oid
}

func TestIndexScanRewrite(t *testing.T) {
	st, _, oid := setupRel(t, 100)
	src := `
(select proc(x !ce !cc)
          ([] x 0 cont(t) (== t 42 cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
	out, stats := optimizeWith(t, parse(t, src), qopt.RuntimeRules(st))
	if stats.Rules["index-scan"] != 1 {
		t.Fatalf("index-scan did not fire: %v\n%s", stats.Rules, tml.Print(out))
	}
	if !strings.Contains(out.String(), "indexscan") {
		t.Errorf("no indexscan in plan:\n%s", tml.Print(out))
	}

	// Column 1 has no index: no rewrite.
	src2 := `
(select proc(x !ce !cc)
          ([] x 1 cont(t) (== t 420 cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
	_, stats2 := optimizeWith(t, parse(t, src2), qopt.RuntimeRules(st))
	if stats2.Rules["index-scan"] != 0 {
		t.Error("index-scan fired without an index")
	}

	// Row-dependent key: no rewrite.
	src3 := `
(select proc(x !ce !cc)
          ([] x 0 cont(t) (== t x cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
	_, stats3 := optimizeWith(t, parse(t, src3), qopt.RuntimeRules(st))
	if stats3.Rules["index-scan"] != 0 {
		t.Error("index-scan fired on a row-dependent key")
	}
}

// TestIndexRuleCostGate checks the cost gate over live statistics: an
// index on a column whose every value is identical would return the whole
// relation, so the planner must keep the sequential scan; a selective
// column keeps the rewrite (TestIndexScanRewrite covers that side).
func TestIndexRuleCostGate(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mg := relalg.NewManager(st)
	oid, err := mg.CreateRelation("dup", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "val", Type: store.ColInt},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := mg.InsertRow(oid, []store.Val{store.IntVal(7), store.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	src := `
(select proc(x !ce !cc)
          ([] x 0 cont(t) (== t 7 cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
	out, stats := optimizeWith(t, parse(t, src), qopt.RuntimeRules(st))
	if stats.Rules["index-scan"] != 0 {
		t.Errorf("index-scan fired on a column with one distinct value:\n%s", tml.Print(out))
	}
}

// runQuery executes a query term whose free variables are e (exception)
// and k (result) against a machine with the query executors.
func runQuery(t *testing.T, st *store.Store, mg *relalg.Manager, app *tml.App) machine.Value {
	t.Helper()
	m := machine.New(st)
	mg.Register(m)
	free := tml.FreeVars(app)
	vals := make([]machine.Value, len(free))
	for i, v := range free {
		switch v.Name {
		case "k":
			vals[i] = &machine.Halt{}
		case "e":
			vals[i] = &machine.Halt{Err: true}
		default:
			t.Fatalf("unexpected free variable %s", v)
		}
	}
	env := (*machine.Env)(nil).Extend(free, vals)
	res, err := m.RunApp(app, env)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func rowCount(t *testing.T, v machine.Value) int {
	t.Helper()
	rel, ok := v.(*relalg.Rel)
	if !ok {
		t.Fatalf("result is %s, want relation", v.Show())
	}
	return len(rel.Rows)
}

func TestMergeSelectPreservesSemantics(t *testing.T) {
	st, mg, oid := setupRel(t, 50)
	src := `
(select proc(x1 !ce1 !cc1)
          ([] x1 0 cont(a) (< a 30 cont() (cc1 true) cont() (cc1 false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e
        cont(t) (select proc(x2 !ce2 !cc2)
                   ([] x2 0 cont(b) (> b 9 cont() (cc2 true) cont() (cc2 false)))
                 t e k))`
	app := parse(t, src)
	before := rowCount(t, runQuery(t, st, mg, app))
	optApp, stats := optimizeWith(t, app, qopt.StaticRules())
	if stats.Rules["merge-select"] != 1 {
		t.Fatalf("merge-select did not fire: %v", stats.Rules)
	}
	after := rowCount(t, runQuery(t, st, mg, optApp))
	if before != after || before != 20 { // ids 10…29
		t.Errorf("row counts: before=%d after=%d want 20", before, after)
	}
}

func TestIndexScanPreservesSemantics(t *testing.T) {
	st, mg, oid := setupRel(t, 200)
	src := `
(select proc(x !ce !cc)
          ([] x 0 cont(t) (== t 77 cont() (cc true) cont() (cc false)))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
	app := parse(t, src)
	before := rowCount(t, runQuery(t, st, mg, app))
	optApp, _ := optimizeWith(t, app, qopt.RuntimeRules(st))
	after := rowCount(t, runQuery(t, st, mg, optApp))
	if before != 1 || after != 1 {
		t.Errorf("row counts: before=%d after=%d want 1", before, after)
	}
}

func TestTrivialExistsPreservesSemantics(t *testing.T) {
	st, mg, oid := setupRel(t, 10)
	// Predicate is row-independent: true.
	src := `
(exists proc(x !ce !cc) (== 1 1 cont() (cc true) cont() (cc false))
        ` + tml.NewOid(uint64(oid)).String() + ` e k)`
	app := parse(t, src)
	v1 := runQuery(t, st, mg, app)
	optApp, stats := optimizeWith(t, app, qopt.StaticRules())
	if stats.Rules["trivial-exists"] != 1 {
		t.Fatalf("trivial-exists did not fire: %v", stats.Rules)
	}
	v2 := runQuery(t, st, mg, optApp)
	if !machine.Eq(v1, v2) || v1 != machine.Value(machine.Bool(true)) {
		t.Errorf("results: %v vs %v", v1.Show(), v2.Show())
	}
}
