package relalg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/qopt"
	"tycoon/internal/store"
)

func joinSrc(l, r store.OID) string {
	return `(join proc(x !ce !cc)
	        ([] x 0 cont(a) ([] x 2 cont(b) (== a b cont()(cc true) cont()(cc false))))
	      ` + oidStr(l) + ` ` + oidStr(r) + ` e k)`
}

// fillRel creates a two-column persistent relation whose key column holds
// the given values (second column is the insertion position).
func fillRel(t *testing.T, mg *Manager, name string, keys []store.Val) store.OID {
	t.Helper()
	oid, err := mg.CreateRelation(name, []store.Column{
		{Name: "k", Type: store.ColInt},
		{Name: "pos", Type: store.ColInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := mg.InsertRow(oid, []store.Val{k, store.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return oid
}

func intKeysOf(vals ...int64) []store.Val {
	ks := make([]store.Val, len(vals))
	for i, v := range vals {
		ks[i] = store.IntVal(v)
	}
	return ks
}

func findNode(plan []*qopt.PlanNode, op string) *qopt.PlanNode {
	for _, n := range plan {
		if n.Op == op {
			return n
		}
	}
	return nil
}

// TestPlannerSwitchesJoinAlgoOnLiveStats is the acceptance test for the
// cost-based planner: the same query over the same schema switches join
// algorithm purely because the live column statistics changed.
func TestPlannerSwitchesJoinAlgoOnLiveStats(t *testing.T) {
	_, mg, m, left := world(t, 64)
	var asc []store.Val
	for i := 0; i < 64; i++ {
		asc = append(asc, store.IntVal(int64(i)))
	}
	right := fillRel(t, mg, "s", asc)
	src := joinSrc(left, right)

	// Both key columns ascending: the planner merges pre-sorted inputs.
	mg.CaptureExplain(m)
	v, err := run(t, m, src)
	if err != nil {
		t.Fatal(err)
	}
	jn := findNode(mg.TakeExplain(m), "join")
	if jn == nil {
		t.Fatal("no join node in plan")
	}
	if jn.Algo != qopt.JoinMerge {
		t.Errorf("sorted inputs: algo = %s, want merge (%s)", jn.Algo, jn)
	}
	if got := int64(len(v.(*Rel).Rows)); got != 64 || jn.ActRows != got {
		t.Errorf("rows=%d, plan act=%d, want 64", got, jn.ActRows)
	}
	if jn.EstRows != 64 {
		t.Errorf("est=%v, want 64 (uniform containment over 64 distinct keys)", jn.EstRows)
	}

	// One out-of-order insert breaks the right key's sortedness: nothing
	// else changes, and the planner flips to a hash join.
	if err := mg.InsertRow(right, []store.Val{store.IntVal(0), store.IntVal(64)}); err != nil {
		t.Fatal(err)
	}
	mg.CaptureExplain(m)
	v, err = run(t, m, src)
	if err != nil {
		t.Fatal(err)
	}
	jn = findNode(mg.TakeExplain(m), "join")
	if jn == nil || jn.Algo != qopt.JoinHash {
		t.Errorf("unsorted input: algo = %v, want hash", jn)
	}
	if got := len(v.(*Rel).Rows); got != 65 {
		t.Errorf("rows after duplicate key = %d, want 65", got)
	}

	// Inputs too small for setup costs: nested loop.
	tinyL := fillRel(t, mg, "tl", intKeysOf(1, 2))
	tinyR := fillRel(t, mg, "tr", intKeysOf(2, 3))
	mg.CaptureExplain(m)
	if _, err := run(t, m, joinSrc(tinyL, tinyR)); err != nil {
		t.Fatal(err)
	}
	jn = findNode(mg.TakeExplain(m), "join")
	if jn == nil || jn.Algo != qopt.JoinNested {
		t.Errorf("tiny inputs: algo = %v, want nested", jn)
	}
}

// TestExplainCapture checks the per-machine plan capture surface: nodes
// arrive only between CaptureExplain and TakeExplain, render as EXPLAIN
// text, and report estimated against actual cardinalities.
func TestExplainCapture(t *testing.T) {
	_, mg, m, oid := world(t, 300)
	src := `(select proc(x !ce !cc)
	          ([] x 1 cont(a) (< a 5 cont()(cc true) cont()(cc false))) ` + oidStr(oid) + ` e k)`

	// No capture: no plan, and TakeExplain on a machine never captured is nil.
	if _, err := run(t, m, src); err != nil {
		t.Fatal(err)
	}
	if p := mg.TakeExplain(m); p != nil {
		t.Fatalf("uncaptured plan = %v", p)
	}

	mg.CaptureExplain(m)
	v, err := run(t, m, src)
	if err != nil {
		t.Fatal(err)
	}
	plan := mg.TakeExplain(m)
	sel := findNode(plan, "select")
	if sel == nil {
		t.Fatalf("no select node: %v", plan)
	}
	if sel.Algo != "vector-fused" {
		t.Errorf("algo = %s, want vector-fused", sel.Algo)
	}
	if sel.ActRows != int64(len(v.(*Rel).Rows)) {
		t.Errorf("act=%d, rows=%d", sel.ActRows, len(v.(*Rel).Rows))
	}
	if sel.EstRows < 0 {
		t.Errorf("fused select should carry a range estimate: %s", sel)
	}
	text := qopt.RenderPlan(plan)
	if !strings.Contains(text, "select algo=vector-fused") || !strings.Contains(text, "act=") {
		t.Errorf("RenderPlan:\n%s", text)
	}
	// Capture is one-shot: a second take returns nil.
	if p := mg.TakeExplain(m); p != nil {
		t.Errorf("second take = %v", p)
	}
}

// TestExplainIndexScan checks the access-path node: a warm index probe
// reports algo=index with the equality estimate, and the fallback scan
// (no index on the column) reports algo=scan.
func TestExplainIndexScan(t *testing.T) {
	_, mg, m, oid := world(t, 200)
	mg.CaptureExplain(m)
	if _, err := run(t, m, "(indexscan "+oidStr(oid)+" 0 123 e k)"); err != nil {
		t.Fatal(err)
	}
	n := findNode(mg.TakeExplain(m), "indexscan")
	if n == nil || n.Algo != "index" {
		t.Fatalf("probe node = %v, want algo=index", n)
	}
	if n.ActRows != 1 {
		t.Errorf("act=%d, want 1", n.ActRows)
	}
	mg.CaptureExplain(m)
	if _, err := run(t, m, "(indexscan "+oidStr(oid)+" 1 3 e k)"); err != nil {
		t.Fatal(err)
	}
	n = findNode(mg.TakeExplain(m), "indexscan")
	if n == nil || n.Algo != "scan" {
		t.Fatalf("fallback node = %v, want algo=scan", n)
	}
}

// joinModes are the execution strategies the property test drives; every
// one must agree with the row-at-a-time oracle on result set AND abstract
// step count.
var joinModes = []struct {
	name string
	set  func(mg *Manager)
}{
	{"oracle", func(mg *Manager) { mg.NoBatch = true }},
	{"batch", func(mg *Manager) { mg.NoVector = true }},
	{"planner", func(mg *Manager) {}},
	{"force-hash", func(mg *Manager) { mg.ForceJoin = qopt.JoinHash }},
	{"force-merge", func(mg *Manager) { mg.ForceJoin = qopt.JoinMerge }},
	{"force-nested", func(mg *Manager) { mg.ForceJoin = qopt.JoinNested }},
}

// canonRows renders a result's rows as a sorted multiset, so plans that
// legitimately reorder output would still be caught — output order is
// part of the contract, so the unsorted rendering is compared too.
func renderRows(v *Rel) (ordered string, canon string) {
	lines := make([]string, len(v.Rows))
	for i, r := range v.Rows {
		lines[i] = fmt.Sprintf("%v", r)
	}
	ordered = strings.Join(lines, "\n")
	sort.Strings(lines)
	return ordered, strings.Join(lines, "\n")
}

// shape is one key column of the zoo the plan property tests run over.
type shape struct {
	keys []store.Val
	// ragged, when positive, splices a zero-width row in after that many
	// rows, behind the manager's back: the vector kernels must refuse the
	// scan and `[]` on that row throws, on every path at the same step.
	ragged int
}

// shapeZoo covers empty, sorted, unsorted, skewed and all-null columns
// below compileThreshold (where a compiled predicate must stay on the
// batched path) and, above it, seeded random ints, a random mix of kinds,
// all nulls and a ragged relation.
func shapeZoo() (map[string]shape, []string) {
	rnd := rand.New(rand.NewSource(12))
	random, mixed := make([]store.Val, 48), make([]store.Val, 40)
	for i := range random {
		random[i] = store.IntVal(rnd.Int63n(16))
	}
	for i := range mixed {
		switch rnd.Intn(4) {
		case 0:
			mixed[i] = store.StrVal(fmt.Sprint("s", rnd.Intn(4)))
		case 1:
			mixed[i] = store.NilVal()
		default:
			mixed[i] = store.IntVal(rnd.Int63n(8))
		}
	}
	mixed[0] = store.IntVal(3) // the type fault comes mid-scan, not at row 0
	zoo := map[string]shape{
		"empty":    {},
		"sorted":   {keys: intKeysOf(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)},
		"unsorted": {keys: intKeysOf(5, 2, 9, 0, 11, 3, 1, 8, 10, 4, 7, 6)},
		"skewed":   {keys: intKeysOf(7, 7, 7, 7, 7, 7, 7, 7, 1, 7, 7, 2)},
		"allnull":  {keys: make([]store.Val, 6)},
		"random":   {keys: random},
		"mixed":    {keys: mixed},
		"nulls":    {keys: make([]store.Val, 40)},
		"ragged":   {keys: random[:40], ragged: 20},
	}
	names := make([]string, 0, len(zoo))
	for name := range zoo {
		names = append(names, name)
	}
	sort.Strings(names)
	return zoo, names
}

// fillShape is fillRel for a zoo shape.
func fillShape(t *testing.T, st *store.Store, mg *Manager, name string, sh shape) store.OID {
	t.Helper()
	if sh.ragged == 0 {
		return fillRel(t, mg, name, sh.keys)
	}
	oid := fillRel(t, mg, name, sh.keys[:sh.ragged])
	rel := st.MustGet(oid).(*store.Relation)
	rel.Rows = append(rel.Rows, []store.Val{})
	for i, k := range sh.keys[sh.ragged:] {
		if err := mg.InsertRow(oid, []store.Val{k, store.IntVal(int64(sh.ragged + i))}); err != nil {
			t.Fatal(err)
		}
	}
	return oid
}

// TestJoinPlansMatchOracle is the property test over plan choices: for
// every pair of zoo shapes, every plan the planner can choose (and every
// forced algorithm) must produce exactly the oracle's rows, in the
// oracle's order, for the oracle's step count and with the oracle's
// error — whether the predicate arrives interpreted or TAM-compiled — and
// the planner must choose the same algorithm for both.
func TestJoinPlansMatchOracle(t *testing.T) {
	zoo, names := shapeZoo()
	for _, ln := range names {
		for _, rn := range names {
			t.Run(ln+"/"+rn, func(t *testing.T) {
				type outcome struct {
					ordered, canon, errS string
					steps                int64
				}
				chosen := make(map[string]string)
				for _, source := range sources {
					results := make(map[string]outcome)
					for _, mode := range joinModes {
						st, err := store.Open("")
						if err != nil {
							t.Fatal(err)
						}
						mg := NewManager(st)
						mode.set(mg)
						l := fillShape(t, st, mg, "l", zoo[ln])
						r := fillShape(t, st, mg, "r", zoo[rn])
						m := machine.New(st)
						mg.Register(m)
						m.ResetSteps()
						mg.CaptureExplain(m)
						v, err := source.run(t, m, joinSrc(l, r))
						if jn := findNode(mg.TakeExplain(m), "join"); jn != nil && mode.name == "planner" {
							chosen[source.name] = jn.Algo
						}
						st.Close()
						o := outcome{steps: m.Steps()}
						if err != nil {
							o.errS = err.Error()
						} else {
							o.ordered, o.canon = renderRows(v.(*Rel))
						}
						results[mode.name] = o
					}
					want := results["oracle"]
					for _, mode := range joinModes {
						got := results[mode.name]
						if got.canon != want.canon {
							t.Errorf("%s/%s: row multiset differs from oracle\ngot:\n%s\nwant:\n%s",
								source.name, mode.name, got.canon, want.canon)
						}
						if got.ordered != want.ordered {
							t.Errorf("%s/%s: row order differs from oracle", source.name, mode.name)
						}
						if got.steps != want.steps || got.errS != want.errS {
							t.Errorf("%s/%s: %d steps, error %q; oracle %d steps, error %q",
								source.name, mode.name, got.steps, got.errS, want.steps, want.errS)
						}
					}
				}
				if chosen["interpreted"] != chosen["compiled"] {
					t.Errorf("planner chose %q for the interpreted predicate, %q for the compiled one",
						chosen["interpreted"], chosen["compiled"])
				}
			})
		}
	}
}

// TestSelectPlansMatchOracle extends the property to the select access
// paths (fused column kernel, general vectorized, batched, row) over the
// same shape zoo and both predicate sources, including the type-error
// behaviour on null and mixed-kind keys. A compiled predicate must reach
// the vector kernels exactly when the scan is compileThreshold rows long.
func TestSelectPlansMatchOracle(t *testing.T) {
	zoo, names := shapeZoo()
	modes := []struct {
		name string
		set  func(mg *Manager)
	}{
		{"oracle", func(mg *Manager) { mg.NoBatch = true }},
		{"batch", func(mg *Manager) { mg.NoVector = true }},
		{"vector", func(mg *Manager) {}},
	}
	for _, name := range names {
		for _, source := range sources {
			t.Run(name+"/"+source.name, func(t *testing.T) {
				type outcome struct {
					rows  string
					errS  string
					steps int64
				}
				results := make(map[string]outcome)
				for _, mode := range modes {
					st, err := store.Open("")
					if err != nil {
						t.Fatal(err)
					}
					mg := NewManager(st)
					mode.set(mg)
					oid := fillShape(t, st, mg, "t", zoo[name])
					m := machine.New(st)
					mg.Register(m)
					m.ResetProfile()
					src := `(select proc(x !ce !cc)
					  ([] x 0 cont(a) (< a 6 cont()(cc true) cont()(cc false))) ` + oidStr(oid) + ` e k)`
					v, err := source.run(t, m, src)
					st.Close()
					o := outcome{steps: m.Steps()}
					if err != nil {
						o.errS = err.Error()
					} else {
						o.rows, _ = renderRows(v.(*Rel))
					}
					results[mode.name] = o
					if mode.name == "vector" {
						n := len(zoo[name].keys)
						wantVec := zoo[name].ragged == 0 && (source.name == "interpreted" || n >= compileThreshold)
						if p := m.Profile(); (p.VecRows > 0) != (wantVec && n > 0) {
							t.Errorf("%d rows: profile %+v, want vector kernels: %v", n, p, wantVec)
						}
					}
				}
				want := results["oracle"]
				for _, mode := range modes {
					if got := results[mode.name]; got != want {
						t.Errorf("%s: %+v, oracle %+v", mode.name, got, want)
					}
				}
			})
		}
	}
}

// projectZoo are the project targets the plan property test runs: two
// that take the fused column path over typed integer columns (one mixing
// a copied column and a constant into a wider tuple), one that needs the
// general evaluator (branches build tuples of two widths), and two that
// fault mid-batch — a division by zero at row 20 (over the always-typed
// position column) and an overflow once the key reaches 8.
var projectZoo = map[string]struct {
	target string
	fused  bool // straight-line: served column at a time when its columns are typed
	keyed  bool // its arithmetic reads the key column, typed only for int shapes
}{
	"fused": {`([] x 0 cont(a) (+ a 1 ce cont(b) (vector b cont(row) (cc row))))`, true, true},
	"fused-wide": {`([] x 0 cont(a) ([] x 1 cont(i) (* a 3 ce cont(b) (- b i ce cont(c)
		(vector c i 7 cont(row) (cc row))))))`, true, true},
	"general": {`([] x 0 cont(a) (< a 4
		cont() (vector a cont(row) (cc row))
		cont() (vector 0 a cont(row) (cc row))))`, false, true},
	"div-fault": {`([] x 1 cont(i) (- 20 i ce cont(d) (/ 100 d ce cont(q) (vector q cont(row) (cc row)))))`, true, false},
	"add-fault": {`([] x 0 cont(a) (+ a 9223372036854775800 ce cont(b) (vector b cont(row) (cc row))))`, true, true},
}

// TestProjectPlansMatchOracle is TestSelectPlansMatchOracle for project:
// every target of the zoo over every shape, interpreted and compiled,
// must produce the oracle's rows, step count and error (exception value
// included) on the batched kernels, the general vector evaluator and the
// fused column path — and the fused path must serve exactly the targets
// and shapes it is meant to.
func TestProjectPlansMatchOracle(t *testing.T) {
	zoo, names := shapeZoo()
	modes := []struct {
		name string
		set  func(mg *Manager)
	}{
		{"oracle", func(mg *Manager) { mg.NoBatch = true }},
		{"batch", func(mg *Manager) { mg.NoVector = true }},
		{"vector", func(mg *Manager) {}},
	}
	for tname, target := range projectZoo {
		for _, name := range names {
			for _, source := range sources {
				t.Run(tname+"/"+name+"/"+source.name, func(t *testing.T) {
					type outcome struct {
						rows  string
						errS  string
						steps int64
					}
					results := make(map[string]outcome)
					for _, mode := range modes {
						st, err := store.Open("")
						if err != nil {
							t.Fatal(err)
						}
						mg := NewManager(st)
						mode.set(mg)
						oid := fillShape(t, st, mg, "t", zoo[name])
						m := machine.New(st)
						mg.Register(m)
						m.ResetSteps()
						mg.CaptureExplain(m)
						v, err := source.run(t, m, `(project proc(x !ce !cc) `+target.target+` `+oidStr(oid)+` e k)`)
						plan := findNode(mg.TakeExplain(m), "project")
						st.Close()
						o := outcome{steps: m.Steps()}
						if err != nil {
							o.errS = err.Error()
						} else {
							o.rows, _ = renderRows(v.(*Rel))
						}
						results[mode.name] = o
						if mode.name == "vector" && err == nil {
							sh := zoo[name]
							typed := !target.keyed || (name != "mixed" && name != "nulls" && name != "allnull")
							vec := sh.ragged == 0 && (source.name == "interpreted" || len(sh.keys) >= compileThreshold)
							want := "batch"
							if vec {
								want = "vector"
								if target.fused && typed && len(sh.keys) > 0 {
									want = "vector-fused"
								}
							}
							if plan == nil || plan.Algo != want {
								t.Errorf("plan %+v, want algo %s", plan, want)
							}
						}
					}
					want := results["oracle"]
					for _, mode := range modes {
						if got := results[mode.name]; got != want {
							t.Errorf("%s: %+v, oracle %+v", mode.name, got, want)
						}
					}
				})
			}
		}
	}
}

// TestFusedProjectFaultInLaterBatch: a fault in the second fused batch
// must leave the first batch's rows emitted and charged, then re-run the
// faulting batch through the general evaluator — so every mode raises
// the same exception value after the same number of steps.
func TestFusedProjectFaultInLaterBatch(t *testing.T) {
	src := func(oid store.OID) string {
		return `(project proc(x !ce !cc)
			([] x 0 cont(i) (- 1500 i ce cont(d) (/ 7 d ce cont(q) (vector q i cont(row) (cc row)))))
			` + oidStr(oid) + ` e k)`
	}
	for _, source := range sources {
		type outcome struct {
			steps int64
			errS  string
		}
		results := make(map[string]outcome)
		for _, mode := range []string{"oracle", "batch", "vector"} {
			_, mg, m, oid := world(t, 2600)
			mg.NoBatch, mg.NoVector = mode == "oracle", mode == "batch"
			m.ResetSteps()
			_, err := source.run(t, m, src(oid))
			if err == nil {
				t.Fatalf("%s %s: expected the division fault", source.name, mode)
			}
			results[mode] = outcome{m.Steps(), err.Error()}
		}
		if results["batch"] != results["oracle"] || results["vector"] != results["oracle"] {
			t.Errorf("%s: %+v", source.name, results)
		}
	}
}
