package server

import (
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// TestExplainReleasedOnPanic: a SUBMIT with EXPLAIN whose execution
// panics after a query ran must still release its capture. The front end
// recovers the panic and drops the session; a capture left behind would
// make every later query on every session build plan nodes, and would
// keep the panicked machine reachable. That machine is not lent again.
func TestExplainReleasedOnPanic(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	oid, err := relalg.CreateRelation(tx, "t", []store.Column{{Name: "id", Type: store.ColInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := relalg.InsertRow(tx, oid, []store.Val{store.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tx)
	// Leave one idle machine, whose count panics, for the submit to borrow.
	var m *machine.Machine
	srv.core.Run(nil, func(lent *machine.Machine) error {
		m = lent
		return nil
	})
	m.RegisterExec("count", func(*machine.Machine, []machine.Value, []machine.Value) (machine.Outcome, error) {
		panic("count failed")
	})
	app, err := tml.ParseApp(`(select proc(x !ce !cc) (cc true) r e cont(s) (count s e k))`,
		tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ptml.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	body, err := (&ship.Submit{
		Name:    "explain-panic",
		PTML:    data,
		Binds:   []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}},
		Explain: true,
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("submit did not panic")
			}
		}()
		newSession(srv, nil).handleSubmit(body)
	}()
	if plan := srv.core.Rel.TakeExplain(m); plan != nil {
		t.Fatalf("capture left armed after the panic, holding %d plan nodes", len(plan))
	}
	for _, idle := range srv.core.Idle() {
		if idle == m {
			t.Fatal("the machine whose run panicked is idle again")
		}
	}
}
