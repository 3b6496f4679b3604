package opt

import (
	"regexp"
	"strings"
	"testing"

	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

var popts = tml.ParseOpts{IsPrim: prim.IsPrim}

// noIDs strips the _N α-conversion suffixes so tests can compare term
// structure without depending on variable numbering.
func noIDs(s string) string {
	return idSuffix.ReplaceAllString(s, "")
}

var idSuffix = regexp.MustCompile(`_[0-9]+`)

func parse(t *testing.T, src string) *tml.App {
	t.Helper()
	app, err := tml.ParseApp(src, popts)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return app
}

func optimize(t *testing.T, src string, opts Options) (*tml.App, *Stats) {
	t.Helper()
	app := parse(t, src)
	out, stats, err := Optimize(app, opts)
	if err != nil {
		t.Fatalf("Optimize(%q): %v", src, err)
	}
	return out, stats
}

func TestSubstAndFold(t *testing.T) {
	// (cont(x)(+ x 1 e k) 5): substituting 5 for x exposes (+ 5 1 e k),
	// which folds to (k 6) — constant propagation plus constant folding.
	out, stats := optimize(t, "(cont(x) (+ x 1 e k) 5)", Options{})
	if got := noIDs(out.String()); got != "(k 6)" {
		t.Errorf("optimized to %s, want (k 6)", got)
	}
	if stats.Rules["subst"] == 0 || stats.Rules["fold"] == 0 {
		t.Errorf("expected subst and fold applications, got %v", stats.Rules)
	}
}

func TestRemoveDeadBinding(t *testing.T) {
	// y is never used; its binding is struck out by the remove rule and
	// the now-empty abstraction is removed by reduce.
	out, stats := optimize(t, "(cont(y) (k 1) 42)", Options{})
	if got := noIDs(out.String()); got != "(k 1)" {
		t.Errorf("optimized to %s, want (k 1)", got)
	}
	if stats.Rules["remove"] == 0 || stats.Rules["reduce"] == 0 {
		t.Errorf("expected remove and reduce, got %v", stats.Rules)
	}
}

func TestSubstPreconditionAbsUsedOnce(t *testing.T) {
	// An abstraction bound to f and used exactly once is substituted by
	// the reduction pass itself (the paper's subst precondition).
	src := "(cont(f) (f 1 e k) cont(x !e2 !k2) (+ x 1 e2 k2))"
	out, _ := optimize(t, src, Options{NoExpansion: true})
	if got := noIDs(out.String()); got != "(k 2)" {
		t.Errorf("optimized to %s, want (k 2)", got)
	}
}

func TestSubstPreconditionAbsUsedTwice(t *testing.T) {
	// With expansion disabled, an abstraction used twice must NOT be
	// substituted (precondition val ∉ Abs ∨ |app|_v = 1); the binding
	// structure survives reduction.
	src := `(cont(f) (f 1 e cont(a) (f a e k))
	          cont(x !e2 !k2) (+ x 1 e2 k2))`
	out, stats := optimize(t, src, Options{NoExpansion: true})
	if _, isAbs := out.Fn.(*tml.Abs); !isAbs {
		t.Fatalf("binding dissolved: %s", out)
	}
	if stats.Rules["subst"] != 0 {
		t.Errorf("multi-use abstraction was substituted: %v", stats.Rules)
	}
	// With expansion enabled the calls are inlined and everything folds.
	out2, stats2 := optimize(t, src, Options{})
	if got := noIDs(out2.String()); got != "(k 3)" {
		t.Errorf("expansion+reduction gives %s, want (k 3)", got)
	}
	if stats2.Rules["expand"] == 0 {
		t.Errorf("no expansions recorded: %v", stats2.Rules)
	}
}

func TestSubstUnrestrictedAblation(t *testing.T) {
	src := `(cont(f) (f 1 e cont(a) (f a e k))
	          cont(x !e2 !k2) (+ x 1 e2 k2))`
	out, _ := optimize(t, src, Options{NoExpansion: true, SubstUnrestricted: true})
	if got := noIDs(out.String()); got != "(k 3)" {
		t.Errorf("unrestricted subst gives %s, want (k 3)", got)
	}
}

func TestEtaReduce(t *testing.T) {
	// cont(t)(k t) η-reduces to k, turning (+ 1 2 e cont(t)(k t)) into
	// (+ 1 2 e k), which then folds to (k 3).
	out, stats := optimize(t, "(+ 1 2 e cont(t) (k t))", Options{})
	if got := noIDs(out.String()); got != "(k 3)" {
		t.Errorf("optimized to %s, want (k 3)", got)
	}
	if stats.Rules["eta-reduce"] == 0 {
		t.Errorf("eta-reduce did not fire: %v", stats.Rules)
	}
}

func TestEtaReduceRejectsSelfReference(t *testing.T) {
	// λ(x)(x x) must not η-reduce (precondition |val|_v = 0).
	g := tml.NewVarGen()
	x := g.Fresh("x")
	abs := &tml.Abs{Params: []*tml.Var{x}, Body: tml.NewApp(x, x)}
	if _, ok := etaReduce(abs); ok {
		t.Error("η-reduce fired on self-referential abstraction")
	}
}

func TestCaseSubst(t *testing.T) {
	// Inside branch i the scrutinee is identical to the tag, so the body
	// (+ v 1 …) becomes (+ 1 1 …) / (+ 2 1 …), which folds.
	src := `(cont(v) (== v 1 2 cont() (+ v 1 e k) cont() (+ v 2 e k)) w)`
	out, stats := optimize(t, src, Options{NoExpansion: true})
	if stats.Rules["case-subst"] == 0 {
		t.Fatalf("case-subst did not fire: %v\n%s", stats.Rules, out)
	}
	s := noIDs(out.String())
	if !strings.Contains(s, "(k 2)") || !strings.Contains(s, "(k 4)") {
		t.Errorf("branches not folded after case-subst:\n%s", tml.Print(out))
	}
}

func TestFoldCasePicksBranch(t *testing.T) {
	out, _ := optimize(t, "(== 2 1 2 3 cont()(k 1) cont()(k 2) cont()(k 3))", Options{})
	if got := noIDs(out.String()); got != "(k 2)" {
		t.Errorf("optimized to %s, want (k 2)", got)
	}
}

func TestYRemove(t *testing.T) {
	// The recursive binding g is never referenced: Y-remove strikes it out.
	src := `(Y proc(!c0 f g !c)
	          (c cont() (f 1)
	             cont(i) (k i)
	             cont(j) (g j)))`
	out, stats := optimize(t, src, Options{NoExpansion: true})
	if stats.Rules["Y-remove"] == 0 {
		t.Fatalf("Y-remove did not fire: %v\n%s", stats.Rules, tml.Print(out))
	}
	if strings.Contains(out.String(), "g_") {
		t.Errorf("dead recursive binding survived:\n%s", tml.Print(out))
	}
}

func TestYReduce(t *testing.T) {
	// An empty Y application reduces to the body of its entry continuation.
	src := `(Y proc(!c0 !c) (c cont() (k 7)))`
	out, stats := optimize(t, src, Options{NoExpansion: true})
	if got := noIDs(out.String()); got != "(k 7)" {
		t.Errorf("optimized to %s, want (k 7)", got)
	}
	if stats.Rules["Y-reduce"] == 0 {
		t.Errorf("Y-reduce did not fire: %v", stats.Rules)
	}
}

func TestYRemoveKeepsMutualRecursion(t *testing.T) {
	// f and g reference each other; neither may be removed even though g
	// is not referenced from the entry body.
	src := `(Y proc(!c0 f g !c)
	          (c cont() (f 1)
	             cont(i) (g i)
	             cont(j) (f j)))`
	out, _ := optimize(t, src, Options{NoExpansion: true, MaxRounds: 1})
	s := out.String()
	if !strings.Contains(s, "f_") || !strings.Contains(s, "g_") {
		t.Errorf("mutually recursive bindings removed:\n%s", tml.Print(out))
	}
}

func TestDeadCallElimination(t *testing.T) {
	// The pure allocation (vector 1 2 …) whose result is unused is dead.
	out, stats := optimize(t, "(vector 1 2 cont(v) (k 9))", Options{})
	if got := noIDs(out.String()); got != "(k 9)" {
		t.Errorf("optimized to %s, want (k 9)", got)
	}
	if stats.Rules["dead-call"] == 0 {
		t.Errorf("dead-call did not fire: %v", stats.Rules)
	}
	// A writer primitive must survive even if its result is ignored.
	out2, _ := optimize(t, "([:=] a 0 5 cont(u) (k 9))", Options{})
	if !strings.Contains(out2.String(), "[:=]") {
		t.Errorf("side-effecting call eliminated:\n%s", out2)
	}
}

func TestLoopUnrolling(t *testing.T) {
	// A complete constant loop: for i = 1 upto 3 accumulate i. Repeated
	// expansion of the Y-bound loop continuation plus folding evaluates
	// the whole loop at compile time. This is the paper's claim that loop
	// unrolling is a special case of the general transformations.
	src := `(Y proc(!c0 !loop !c)
	          (c cont() (loop 1 0)
	             cont(i acc)
	               (> i 3
	                  cont() (k acc)
	                  cont() (+ acc i e cont(a2)
	                           (+ i 1 e cont(i2) (loop i2 a2))))))`
	out, stats := optimize(t, src, Options{MaxRounds: 12, PenaltyLimit: 64})
	if got := noIDs(out.String()); got != "(k 6)" {
		t.Errorf("loop not fully unrolled: %s (stats %v)", got, stats)
	}
}

func TestPenaltyBoundsExpansion(t *testing.T) {
	// An infinite loop can be unrolled forever; the penalty must stop it.
	src := `(Y proc(!c0 !loop !c)
	          (c cont() (loop 1)
	             cont(i) (+ i 1 e cont(j) (loop j))))`
	out, stats := optimize(t, src, Options{MaxRounds: 6, PenaltyLimit: 10})
	if stats.Penalty > 10+1 {
		t.Errorf("penalty %d exceeded limit", stats.Penalty)
	}
	if out == nil {
		t.Fatal("optimizer returned nil")
	}
}

func TestExtraRules(t *testing.T) {
	// A custom rewrite rule (standing in for the query rules of §4.2)
	// rewrites (ccall "answer" e k) to (k 42).
	rule := Rule{
		Name: "answer",
		Apply: func(ctx *Ctx, app *tml.App) (*tml.App, bool) {
			p, ok := app.Fn.(*tml.Prim)
			if !ok || p.Name != "ccall" || len(app.Args) != 3 {
				return nil, false
			}
			lit, ok := app.Args[0].(*tml.Lit)
			if !ok || lit.Str != "answer" {
				return nil, false
			}
			return tml.NewApp(app.Args[2], tml.Int(42)), true
		},
	}
	out, stats := optimize(t, `(ccall "answer" e k)`, Options{Extra: []Rule{rule}})
	if got := noIDs(out.String()); got != "(k 42)" {
		t.Errorf("optimized to %s, want (k 42)", got)
	}
	if stats.Rules["answer"] != 1 {
		t.Errorf("extra rule count = %v", stats.Rules)
	}
}

func TestNoFoldAblation(t *testing.T) {
	out, stats := optimize(t, "(+ 1 2 e k)", Options{NoFold: true})
	if got := noIDs(out.String()); got != "(+ 1 2 e k)" {
		t.Errorf("NoFold still folded: %s", out)
	}
	if stats.Rules["fold"] != 0 {
		t.Errorf("fold fired under NoFold: %v", stats.Rules)
	}
}

func TestStatsString(t *testing.T) {
	_, stats := optimize(t, "(cont(x) (+ x 1 e k) 5)", Options{})
	s := stats.String()
	for _, want := range []string{"rounds=", "size", "cost", "subst=", "fold="} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() = %q missing %q", s, want)
		}
	}
}

func TestCost(t *testing.T) {
	plus := parse(t, "(+ 1 2 e k)")
	if c := Cost(plus, nil); c != 1+4 { // prim cost 1 + 4 args
		t.Errorf("Cost(+ app) = %d, want 5", c)
	}
	call := parse(t, "(f 1 e k)")
	if c := Cost(call, nil); c != callOverhead+3 {
		t.Errorf("Cost(call) = %d, want %d", c, callOverhead+3)
	}
	if c := Cost(tml.Int(1), nil); c != 0 {
		t.Errorf("Cost(lit) = %d, want 0", c)
	}
	// Abstraction arguments contribute their body cost.
	nested := parse(t, "(f 1 e cont(t) (+ t 1 e2 k))")
	if c := Cost(nested, nil); c <= callOverhead+3 {
		t.Errorf("Cost(nested) = %d, should include continuation body", c)
	}
}

func TestOptimizeIsPure(t *testing.T) {
	app := parse(t, "(cont(x) (+ x 1 e k) 5)")
	before := tml.Print(app)
	if _, _, err := Optimize(app, Options{}); err != nil {
		t.Fatal(err)
	}
	if tml.Print(app) != before {
		t.Error("Optimize mutated its input tree")
	}
}

func TestOptimizePreservesWellFormedness(t *testing.T) {
	srcs := []string{
		"(cont(x) (+ x 1 e k) 5)",
		`(cont(f) (f 1 e cont(a) (f a e k)) cont(x !e2 !k2) (+ x 1 e2 k2))`,
		`(Y proc(!c0 !loop !c)
		   (c cont() (loop 1 0)
		      cont(i acc)
		        (> i 3
		           cont() (k acc)
		           cont() (+ acc i e cont(a2)
		                    (+ i 1 e cont(i2) (loop i2 a2))))))`,
		"(== x 1 2 cont()(k 1) cont()(k 2) cont()(k 0))",
	}
	for _, src := range srcs {
		app := parse(t, src)
		out, _, err := Optimize(app, Options{})
		if err != nil {
			t.Errorf("Optimize(%q): %v", src, err)
			continue
		}
		free := tml.FreeVars(out)
		if err := tml.Check(out, tml.CheckOpts{Signatures: prim.Signatures, AllowFree: free}); err != nil {
			t.Errorf("output of Optimize(%q) ill-formed: %v", src, err)
		}
	}
}
