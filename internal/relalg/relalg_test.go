package relalg

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/prim"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// world builds a store with relation r(id, val) of n rows, id indexed.
func world(t *testing.T, n int) (*store.Store, *Manager, *machine.Machine, store.OID) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mg := NewManager(st)
	oid, err := mg.CreateRelation("r", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "val", Type: store.ColInt},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := mg.InsertRow(oid, []store.Val{store.IntVal(int64(i)), store.IntVal(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	m := machine.New(st)
	mg.Register(m)
	return st, mg, m, oid
}

// run evaluates a TML query term with e/k bound to halt continuations.
func run(t *testing.T, m *machine.Machine, src string) (machine.Value, error) {
	t.Helper()
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	free := tml.FreeVars(app)
	vals := make([]machine.Value, len(free))
	for i, v := range free {
		if v.Name == "k" {
			vals[i] = &machine.Halt{}
		} else {
			vals[i] = &machine.Halt{Err: true}
		}
	}
	return m.RunApp(app, (*machine.Env)(nil).Extend(free, vals))
}

// compileQuery compiles a query term the way tycd compiles a SUBMIT:
// closed over its e/k continuations and run through the pipeline to TAM
// code, so every predicate reaches the operators as a
// *machine.TAMClosure. Free variables named in params become leading
// value parameters of the compiled procedure.
func compileQuery(t *testing.T, src string, params ...string) *machine.TAMClosure {
	t.Helper()
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ps := make([]*tml.Var, len(params)+2)
	for _, v := range tml.FreeVars(app) {
		switch i := slices.Index(params, v.Name); {
		case i >= 0:
			ps[i] = v
		case v.Name == "k":
			v.Cont, ps[len(params)+1] = true, v
		default:
			v.Cont, ps[len(params)] = true, v
		}
	}
	if slices.Contains(ps, nil) {
		t.Fatalf("query term must mention e, k and %v: %s", params, src)
	}
	res, err := pipeline.New(nil, pipeline.Config{}).Run(pipeline.Job{
		Name:         t.Name(),
		Source:       func(*tml.VarGen) (*tml.Abs, error) { return &tml.Abs{Params: ps, Body: app}, nil },
		SkipOptimize: true, Codegen: true, RequireClosed: true,
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return res.Closure
}

// runCompiled is run for the compiled form of the term. It costs one more
// abstract step than run: entering the compiled procedure.
func runCompiled(t *testing.T, m *machine.Machine, src string) (machine.Value, error) {
	t.Helper()
	return m.Apply(compileQuery(t, src), nil)
}

// sources are the two forms a predicate reaches the operators in; every
// differential test runs both.
var sources = []struct {
	name string
	run  func(*testing.T, *machine.Machine, string) (machine.Value, error)
}{
	{"interpreted", run},
	{"compiled", runCompiled},
}

func oidStr(oid store.OID) string { return tml.NewOid(uint64(oid)).String() }

func TestSelectFilters(t *testing.T) {
	_, _, m, oid := world(t, 100)
	v, err := run(t, m, `
(select proc(x !ce !cc) ([] x 1 cont(a) (== a 3 cont()(cc true) cont()(cc false)))
        `+oidStr(oid)+` e k)`)
	if err != nil {
		t.Fatal(err)
	}
	rel := v.(*Rel)
	if len(rel.Rows) != 10 {
		t.Errorf("select matched %d rows, want 10", len(rel.Rows))
	}
	for _, row := range rel.Rows {
		if row[1].Int != 3 {
			t.Errorf("row %v should have val=3", row)
		}
	}
	// The schema travels with the result.
	if len(rel.Schema) != 2 || rel.Schema[0].Name != "id" {
		t.Errorf("schema lost: %v", rel.Schema)
	}
}

func TestProjectComputes(t *testing.T) {
	_, _, m, oid := world(t, 5)
	v, err := run(t, m, `
(project proc(x !ce !cc)
           ([] x 0 cont(a) (+ a 100 ce cont(b) (vector b cont(row) (cc row))))
         `+oidStr(oid)+` e k)`)
	if err != nil {
		t.Fatal(err)
	}
	rel := v.(*Rel)
	if len(rel.Rows) != 5 || len(rel.Rows[0]) != 1 {
		t.Fatalf("project result %v", rel.Rows)
	}
	for i, row := range rel.Rows {
		if row[0].Int != int64(i+100) {
			t.Errorf("row %d = %v", i, row)
		}
	}
}

func TestJoin(t *testing.T) {
	st, mg, m, left := world(t, 4)
	right, err := mg.CreateRelation("s", []store.Column{{Name: "k", Type: store.ColInt}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := mg.InsertRow(right, []store.Val{store.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	_ = st
	// Equi-join on left.id = right.k: concatenated row is (id, val, k).
	v, err := run(t, m, `
(join proc(x !ce !cc)
        ([] x 0 cont(a) ([] x 2 cont(b) (== a b cont()(cc true) cont()(cc false))))
      `+oidStr(left)+` `+oidStr(right)+` e k)`)
	if err != nil {
		t.Fatal(err)
	}
	rel := v.(*Rel)
	if len(rel.Rows) != 3 {
		t.Errorf("join produced %d rows, want 3", len(rel.Rows))
	}
	if len(rel.Schema) != 3 {
		t.Errorf("join schema %v", rel.Schema)
	}
}

func TestExistsEarlyExit(t *testing.T) {
	_, _, m, oid := world(t, 1000)
	m.ResetSteps()
	v, err := run(t, m, `
(exists proc(x !ce !cc) ([] x 0 cont(a) (== a 2 cont()(cc true) cont()(cc false)))
        `+oidStr(oid)+` e k)`)
	if err != nil || v != machine.Value(machine.Bool(true)) {
		t.Fatalf("exists = %v, %v", v, err)
	}
	// Early exit: only the first three rows should have been visited.
	if m.Steps() > 100 {
		t.Errorf("exists visited too much: %d steps", m.Steps())
	}
}

func TestCountAndEmpty(t *testing.T) {
	_, mg, m, oid := world(t, 7)
	v, err := run(t, m, "(count "+oidStr(oid)+" e k)")
	if err != nil || v != machine.Value(machine.Int(7)) {
		t.Fatalf("count = %v, %v", v, err)
	}
	v, err = run(t, m, "(empty "+oidStr(oid)+" e k)")
	if err != nil || v != machine.Value(machine.Bool(false)) {
		t.Fatalf("empty = %v, %v", v, err)
	}
	emptyRel, err := mg.CreateRelation("none", []store.Column{{Name: "x", Type: store.ColInt}})
	if err != nil {
		t.Fatal(err)
	}
	v, err = run(t, m, "(empty "+oidStr(emptyRel)+" e k)")
	if err != nil || v != machine.Value(machine.Bool(true)) {
		t.Fatalf("empty(∅) = %v, %v", v, err)
	}
}

func TestInsertPersistentAndTransient(t *testing.T) {
	st, _, m, oid := world(t, 2)
	_, err := run(t, m, `
(vector 99 5 cont(row) (rinsert `+oidStr(oid)+` row e cont(u) (k u)))`)
	if err != nil {
		t.Fatal(err)
	}
	rel := st.MustGet(oid).(*store.Relation)
	if len(rel.Rows) != 3 || rel.Rows[2][0].Int != 99 {
		t.Errorf("persistent insert failed: %v", rel.Rows)
	}
	// Insert into a transient select result does not touch the source.
	_, err = run(t, m, `
(select proc(x !ce !cc) (cc true) `+oidStr(oid)+` e
  cont(tmp) (vector 1 1 cont(row) (rinsert tmp row e cont(u) (count tmp e k))))`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.MustGet(oid).(*store.Relation).Rows); got != 3 {
		t.Errorf("transient insert leaked into source: %d rows", got)
	}
}

func TestIndexScanUsesAndMaintainsIndex(t *testing.T) {
	_, mg, m, oid := world(t, 500)
	m.ResetSteps()
	v, err := run(t, m, "(indexscan "+oidStr(oid)+" 0 123 e k)")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 1 {
		t.Fatalf("indexscan matched %d rows", got)
	}
	probeSteps := m.Steps()
	if probeSteps > 20 {
		t.Errorf("index probe cost %d steps; the scan would cost ~500", probeSteps)
	}
	// Index maintenance on insert (the index was built above).
	if err := mg.InsertRow(oid, []store.Val{store.IntVal(123), store.IntVal(0)}); err != nil {
		t.Fatal(err)
	}
	v, err = run(t, m, "(indexscan "+oidStr(oid)+" 0 123 e k)")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 2 {
		t.Errorf("after insert, indexscan matched %d rows, want 2", got)
	}
	// No index on column 1: falls back to a scan with the same answer.
	v, err = run(t, m, "(indexscan "+oidStr(oid)+" 1 3 e k)")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(v.(*Rel).Rows); got != 50 {
		t.Errorf("fallback scan matched %d rows, want 50", got)
	}
}

func TestPredicateExceptionPropagates(t *testing.T) {
	_, _, m, oid := world(t, 10)
	// The predicate raises on id 5; the select must invoke ITS exception
	// continuation (here the top-level error halt).
	_, err := run(t, m, `
(select proc(x !ce !cc)
          ([] x 0 cont(a) (== a 5 cont()(ce "boom") cont()(cc true)))
        `+oidStr(oid)+` e k)`)
	if !errors.Is(err, machine.ErrUnhandled) {
		t.Fatalf("err = %v, want unhandled exception", err)
	}
	var ex *machine.Exception
	if errors.As(err, &ex) && ex.Value.Show() != "boom" {
		t.Errorf("exception value %s", ex.Value.Show())
	}
}

func TestTypeErrors(t *testing.T) {
	_, _, m, oid := world(t, 3)
	cases := []string{
		"(count 42 e k)", // not a relation
		"(select proc(x !ce !cc) (cc 7) " + oidStr(oid) + " e k)",  // non-bool predicate
		"(project proc(x !ce !cc) (cc 7) " + oidStr(oid) + " e k)", // non-tuple target
		"(rinsert " + oidStr(oid) + " 42 e k)",                     // non-tuple row
		"(indexscan " + oidStr(oid) + ` "x" 1 e k)`,                // bad column
	}
	for _, src := range cases {
		if _, err := run(t, m, src); err == nil {
			t.Errorf("no error for %s", src)
		}
	}
}

func TestInsertRowValidation(t *testing.T) {
	st, mg, _, oid := world(t, 1)
	if err := mg.InsertRow(oid, []store.Val{store.IntVal(1)}); err == nil {
		t.Error("width mismatch accepted")
	}
	blob := st.Alloc(&store.Blob{})
	if err := mg.InsertRow(blob, []store.Val{store.IntVal(1)}); err == nil {
		t.Error("insert into non-relation accepted")
	}
	if _, err := mg.CreateRelation("bad", []store.Column{{Name: "x", Type: store.ColInt}}, 5); err == nil {
		t.Error("out-of-range index column accepted")
	}
}

func TestRelShow(t *testing.T) {
	r := &Rel{Rows: [][]store.Val{{store.IntVal(1)}}}
	if !strings.Contains(r.Show(), "1 row") {
		t.Errorf("Show = %q", r.Show())
	}
}
