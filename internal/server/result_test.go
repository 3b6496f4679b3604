package server

import (
	"reflect"
	"slices"
	"testing"

	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// TestRelToWireRowsCapped: the server lowers a relation into one cell
// slab, so every wire row must be capacity-capped — appending to row i
// leaves row i+1 alone — and carry exactly the relation's cells, ragged
// rows included.
func TestRelToWireRowsCapped(t *testing.T) {
	rel := &relalg.Rel{
		Schema: []store.Column{{Name: "a"}, {Name: "b"}},
		Rows: [][]store.Val{
			{store.IntVal(1), store.StrVal("x")},
			{store.NilVal()},
			{store.BoolVal(true), store.RefVal(7)},
			{store.RealVal(2.5), store.CharVal('c')},
		},
	}
	tbl := relToWire(rel)
	if !reflect.DeepEqual(tbl.Cols, []string{"a", "b"}) || len(tbl.Rows) != len(rel.Rows) {
		t.Fatalf("table %+v", tbl)
	}
	for i, row := range tbl.Rows {
		if cap(row) != len(row) || len(row) != len(rel.Rows[i]) {
			t.Fatalf("row %d has len %d cap %d, relation row width %d", i, len(row), cap(row), len(rel.Rows[i]))
		}
		for j, f := range rel.Rows[i] {
			if row[j] != storeValToWire(f) {
				t.Errorf("cell %d,%d = %s, want %s", i, j, row[j].Show(), storeValToWire(f).Show())
			}
		}
		if i+1 < len(tbl.Rows) {
			next := slices.Clone(tbl.Rows[i+1])
			_ = append(row, ship.WVal{Kind: ship.WStr, Str: "clobber"})
			if !slices.Equal(tbl.Rows[i+1], next) {
				t.Fatalf("appending to row %d changed row %d", i, i+1)
			}
		}
	}
}
