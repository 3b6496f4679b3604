package server

import (
	"testing"

	"tycoon/internal/ship"
	"tycoon/internal/store"
)

func digestMap(d *ship.DigestOK) map[string]string {
	out := make(map[string]string, len(d.Roots))
	for _, r := range d.Roots {
		out[r.Name] = r.Digest
	}
	return out
}

func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// commit commits tx or fails the test.
func commit(t *testing.T, tx *store.Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDigestOIDAndOrderIndependent: two stores that hold the same
// logical contents under different OID allocations and different row
// orders must produce identical digests — that is what lets a repaired
// replica (whose replay allocated fresh OIDs and committed in different
// batches) prove it converged.
func TestDigestOIDAndOrderIndependent(t *testing.T) {
	build := func(shiftOIDs bool, rowsReversed bool) *store.Store {
		st := newTestStore(t)
		tx := st.Begin()
		if shiftOIDs {
			// Burn allocations so every subsequent OID differs.
			for i := 0; i < 7; i++ {
				tx.Alloc(&store.Blob{Bytes: []byte{byte(i)}})
			}
		}
		rows := [][]store.Val{
			{store.IntVal(1), store.StrVal("a")},
			{store.IntVal(2), store.StrVal("b")},
			{store.IntVal(3), store.StrVal("c")},
		}
		if rowsReversed {
			for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
		rel := &store.Relation{
			Name:   "t",
			Schema: []store.Column{{Name: "id", Type: store.ColInt}, {Name: "s", Type: store.ColStr}},
			Rows:   rows,
		}
		relOID := tx.Alloc(rel)
		tx.SetRoot("rows", relOID)
		tup := tx.Alloc(&store.Tuple{Fields: []store.Val{store.IntVal(9), {Kind: store.ValRef, Ref: relOID}}})
		tx.SetRoot("pair", tup)
		commit(t, tx)
		return st
	}

	a := digestMap(StoreDigests(build(false, false), ""))
	b := digestMap(StoreDigests(build(true, true), ""))
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("digest maps: %v vs %v", a, b)
	}
	for name, da := range a {
		if b[name] != da {
			t.Errorf("root %q: %s vs %s — digests must be OID- and row-order-independent", name, da, b[name])
		}
	}

	// A lost row must show.
	st := build(false, false)
	oid, _ := st.Root("rows")
	tx := st.Begin()
	tx.MustGet(oid).(*store.Relation).AppendRow([]store.Val{store.IntVal(4), store.StrVal("d")})
	tx.MarkDirty(oid)
	commit(t, tx)
	c := digestMap(StoreDigests(st, ""))
	if c["rows"] == a["rows"] {
		t.Error("extra row did not change the rows digest")
	}
	if c["pair"] == a["pair"] {
		t.Error("extra row did not change the digest of the root referencing the relation")
	}
}

// TestDigestIgnoresCodeAndOptimizerAttrs: replicas legitimately diverge
// in TAM code bytes and derived cost attributes (each derives them from
// the PTML under its own settings), so those must not enter the digest —
// while the PTML content must.
func TestDigestIgnoresCodeAndOptimizerAttrs(t *testing.T) {
	build := func(code []byte, cost int32, ptmlBytes []byte) *store.Store {
		st := newTestStore(t)
		tx := st.Begin()
		codeOID := tx.Alloc(&store.Blob{Bytes: code})
		ptmlOID := tx.Alloc(&store.Blob{Bytes: ptmlBytes})
		cl := tx.Alloc(&store.Closure{
			Name: "q", Code: codeOID, PTML: ptmlOID, Cost: cost,
			Bindings: []store.Binding{{Name: "x", Val: store.IntVal(5)}},
		})
		tx.SetRoot(ship.SavedRoot+"q", cl)
		commit(t, tx)
		return st
	}
	base := digestMap(StoreDigests(build([]byte("code-v1"), 10, []byte("ptml-1")), ""))
	reopt := digestMap(StoreDigests(build([]byte("code-v2-longer"), 99, []byte("ptml-1")), ""))
	if base[ship.SavedRoot+"q"] != reopt[ship.SavedRoot+"q"] {
		t.Error("TAM code / cost divergence changed the closure digest")
	}
	other := digestMap(StoreDigests(build([]byte("code-v1"), 10, []byte("ptml-2")), ""))
	if base[ship.SavedRoot+"q"] == other[ship.SavedRoot+"q"] {
		t.Error("different PTML content digested equal")
	}
}

func TestDigestPrefix(t *testing.T) {
	st := newTestStore(t)
	tx := st.Begin()
	tx.SetRoot("rows", tx.Alloc(&store.Blob{Bytes: []byte("r")}))
	tx.SetRoot(ship.SavedRoot+"a", tx.Alloc(&store.Blob{Bytes: []byte("a")}))
	tx.SetRoot(ship.SavedRoot+"b", tx.Alloc(&store.Blob{Bytes: []byte("b")}))
	commit(t, tx)

	all := StoreDigests(st, "")
	if len(all.Roots) != 3 {
		t.Fatalf("all roots: %v", all.Roots)
	}
	saved := StoreDigests(st, ship.SavedRoot)
	if len(saved.Roots) != 2 {
		t.Fatalf("srv: roots: %v", saved.Roots)
	}
	for _, r := range saved.Roots {
		if r.Name != ship.SavedRoot+"a" && r.Name != ship.SavedRoot+"b" {
			t.Errorf("prefix filter leaked %q", r.Name)
		}
	}
	// Root list arrives sorted, so coordinator-side comparison by index
	// is stable; and the digest travels intact through the wire codec.
	if saved.Roots[0].Name > saved.Roots[1].Name {
		t.Errorf("roots not sorted: %v", saved.Roots)
	}
	dec, err := ship.DecodeDigestOK(all.Encode())
	if err != nil || len(dec.Roots) != 3 {
		t.Fatalf("digest-ok round trip: %v, %v", dec, err)
	}
}
