package reflectopt_test

import (
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// TestViewExpansion exercises the paper's database reading of the
// expansion pass (§3: "this CPS transformation performs procedure
// inlining in terms of traditional compiler optimization or view
// expansion in database terminology"): a function returning a query
// result is a view; a query over the view is optimized by expanding the
// view definition and then merging the stacked selections into one scan.
func TestViewExpansion(t *testing.T) {
	w := setup(t)
	w.write(t, func(tx *store.Txn) {
		relOID, err := relalg.CreateRelation(tx, "emp", []store.Column{
			{Name: "id", Type: store.ColInt},
			{Name: "sal", Type: store.ColInt},
			{Name: "dept", Type: store.ColInt},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 300; i++ {
			err := relalg.InsertRow(tx, relOID, []store.Val{
				store.IntVal(i), store.IntVal(i * 11 % 9000), store.IntVal(i % 5),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	// highPaid is a view: a stored query definition.
	w.install(t, `
module views export highPaid
rel emp : Rel(id : Int, sal : Int, dept : Int)
let highPaid() : Rel(id : Int, sal : Int, dept : Int) =
  select e from e in emp where e.sal > 4000 end
end`)
	// The consumer queries the view.
	qmod := w.install(t, `
module q export inDept
let inDept(d : Int) : Int =
  count(select e from e in views.highPaid() where e.dept = d end)
end`)

	baseline, err := w.m.CallExport(qmod, "inDept", []machine.Value{machine.Int(2)})
	if err != nil {
		t.Fatal(err)
	}

	oid := w.exportOID(t, qmod, "inDept")
	res, err := w.ro.OptimizeAndInstall(w.m.Code, oid)
	if err != nil {
		t.Fatal(err)
	}
	// View expansion (link-inline of the view body) followed by
	// merge-select: a single scan remains.
	if res.Stats.Rules["link-inline"] == 0 {
		t.Errorf("view was not expanded: %v", res.Stats.Rules)
	}
	if res.Stats.Rules["merge-select"] == 0 {
		t.Errorf("stacked selections were not merged: %v\n%s",
			res.Stats.Rules, tml.Print(res.Abs))
	}
	optimized, err := w.m.CallExport(qmod, "inDept", []machine.Value{machine.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !machine.Eq(baseline, optimized) {
		t.Errorf("view expansion changed the answer: %s vs %s", baseline.Show(), optimized.Show())
	}
}
