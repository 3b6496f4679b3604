package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// write runs f in one transaction and commits it.
func write(t testing.TB, s *Store, f func(tx *Txn)) {
	t.Helper()
	tx := s.Begin()
	f(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// alloc commits obj under a fresh OID in a transaction of its own.
func alloc(t testing.TB, s *Store, obj Object) OID {
	t.Helper()
	var oid OID
	write(t, s, func(tx *Txn) { oid = tx.Alloc(obj) })
	return oid
}

// appendRow commits one row appended to relation oid.
func appendRow(t testing.TB, s *Store, oid OID, row []Val) {
	t.Helper()
	write(t, s, func(tx *Txn) {
		tx.MustGet(oid).(*Relation).AppendRow(row)
		tx.MarkDirty(oid)
	})
}

func TestInMemoryBasics(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	oid := alloc(t, s, &Tuple{Fields: []Val{IntVal(1), StrVal("x")}})
	if oid == Nil {
		t.Fatal("Alloc returned Nil")
	}
	obj, err := s.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	tup, ok := obj.(*Tuple)
	if !ok || len(tup.Fields) != 2 || tup.Fields[0].Int != 1 {
		t.Errorf("Get = %#v", obj)
	}
	if _, err := s.Get(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	write(t, s, func(tx *Txn) {
		if err := tx.Update(oid, &Tuple{Fields: []Val{IntVal(2)}}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(888, tup); !errors.Is(err, ErrNotFound) {
			t.Errorf("Update(unknown) = %v, want ErrNotFound", err)
		}
	})
	tup = s.MustGet(oid).(*Tuple)
	if tup.Fields[0].Int != 2 {
		t.Error("Update did not take effect")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestRoots(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	var a, b OID
	write(t, s, func(tx *Txn) {
		a = tx.Alloc(&Blob{Bytes: []byte("a")})
		b = tx.Alloc(&Blob{Bytes: []byte("b")})
		tx.SetRoot("modules", a)
		tx.SetRoot("bench", b)
	})
	if oid, ok := s.Root("modules"); !ok || oid != a {
		t.Errorf("Root(modules) = %v, %v", oid, ok)
	}
	if _, ok := s.Root("nope"); ok {
		t.Error("Root(nope) resolved")
	}
	roots := s.Roots()
	if len(roots) != 2 || roots[0] != "bench" || roots[1] != "modules" {
		t.Errorf("Roots() = %v", roots)
	}
}

// allKinds builds one object of every kind for round-trip tests.
func allKinds() []Object {
	return []Object{
		&Tuple{Fields: []Val{IntVal(-3), RealVal(2.5), BoolVal(true), CharVal('x'), StrVal("s"), RefVal(7), NilVal()}},
		&Array{Elems: []Val{IntVal(1), IntVal(2)}},
		&ByteArray{Bytes: []byte{0, 1, 2, 255}},
		&Module{Name: "complex", Exports: []Export{{Name: "new", Val: RefVal(3)}, {Name: "pi", Val: RealVal(3.14)}}},
		&Closure{Name: "abs", Code: 11, PTML: 12, Cost: 42, Savings: 7,
			Bindings: []Binding{{Name: "complex", Val: RefVal(5)}, {Name: "limit", Val: IntVal(10)}}},
		&Relation{
			Name:    "emp",
			Schema:  []Column{{Name: "id", Type: ColInt}, {Name: "name", Type: ColStr}},
			Rows:    [][]Val{{IntVal(1), StrVal("a")}, {IntVal(2), StrVal("b")}},
			Indexes: []IndexSpec{{Column: 0}},
		},
		&Blob{Bytes: []byte("ptml")},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, obj := range allKinds() {
		payload := encodeObject(obj)
		back, err := decodeObject(obj.Kind(), payload)
		if err != nil {
			t.Errorf("%s: decode: %v", obj.Kind(), err)
			continue
		}
		if !objectsEqual(obj, back) {
			t.Errorf("%s: round trip mismatch:\n%#v\nvs\n%#v", obj.Kind(), obj, back)
		}
	}
}

func objectsEqual(a, b Object) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case *Tuple:
		return valsEqual(x.Fields, b.(*Tuple).Fields)
	case *Array:
		return valsEqual(x.Elems, b.(*Array).Elems)
	case *ByteArray:
		return string(x.Bytes) == string(b.(*ByteArray).Bytes)
	case *Module:
		y := b.(*Module)
		if x.Name != y.Name || len(x.Exports) != len(y.Exports) {
			return false
		}
		for i := range x.Exports {
			if x.Exports[i].Name != y.Exports[i].Name || !x.Exports[i].Val.Eq(y.Exports[i].Val) {
				return false
			}
		}
		return true
	case *Closure:
		y := b.(*Closure)
		if x.Name != y.Name || x.Code != y.Code || x.PTML != y.PTML ||
			x.Cost != y.Cost || x.Savings != y.Savings || len(x.Bindings) != len(y.Bindings) {
			return false
		}
		for i := range x.Bindings {
			if x.Bindings[i].Name != y.Bindings[i].Name || !x.Bindings[i].Val.Eq(y.Bindings[i].Val) {
				return false
			}
		}
		return true
	case *Relation:
		y := b.(*Relation)
		if x.Name != y.Name || len(x.Schema) != len(y.Schema) ||
			len(x.Rows) != len(y.Rows) || len(x.Indexes) != len(y.Indexes) {
			return false
		}
		for i := range x.Schema {
			if x.Schema[i] != y.Schema[i] {
				return false
			}
		}
		for i := range x.Indexes {
			if x.Indexes[i] != y.Indexes[i] {
				return false
			}
		}
		for i := range x.Rows {
			if !valsEqual(x.Rows[i], y.Rows[i]) {
				return false
			}
		}
		return true
	case *Blob:
		return string(x.Bytes) == string(b.(*Blob).Bytes)
	}
	return false
}

func valsEqual(a, b []Val) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Eq(b[i]) {
			return false
		}
	}
	return true
}

func TestPersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.tyst")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var oids []OID
	write(t, s, func(tx *Txn) {
		for _, obj := range allKinds() {
			oids = append(oids, tx.Alloc(obj))
		}
		tx.SetRoot("first", oids[0])
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(oids) {
		t.Fatalf("reopened store has %d objects, want %d", s2.Len(), len(oids))
	}
	for i, obj := range allKinds() {
		back, err := s2.Get(oids[i])
		if err != nil {
			t.Fatalf("Get(%v): %v", oids[i], err)
		}
		if !objectsEqual(obj, back) {
			t.Errorf("object %d mismatch after reopen", i)
		}
	}
	if oid, ok := s2.Root("first"); !ok || oid != oids[0] {
		t.Errorf("root lost: %v %v", oid, ok)
	}
	// Fresh allocations must not collide with replayed OIDs.
	tx := s2.Begin()
	defer tx.Abort()
	fresh := tx.Alloc(&Blob{Bytes: nil})
	for _, old := range oids {
		if fresh == old {
			t.Fatal("OID reuse after reopen")
		}
	}
}

func TestLastWriterWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lww.tyst")
	s, _ := Open(path)
	oid := alloc(t, s, &Blob{Bytes: []byte("v1")})
	write(t, s, func(tx *Txn) {
		if err := tx.Update(oid, &Blob{Bytes: []byte("v2")}); err != nil {
			t.Fatal(err)
		}
	})
	s.Close()

	s2, _ := Open(path)
	defer s2.Close()
	if got := s2.MustGet(oid).(*Blob).Bytes; string(got) != "v2" {
		t.Errorf("replayed %q, want v2", got)
	}
}

func TestTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.tyst")
	s, _ := Open(path)
	oid := alloc(t, s, &Blob{Bytes: []byte("good")})
	s.Close()

	// Append garbage that looks like the start of a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 9, 9}) // recObject tag + truncated oid
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer s2.Close()
	if got := s2.MustGet(oid).(*Blob).Bytes; string(got) != "good" {
		t.Errorf("lost committed object: %q", got)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign")
	os.WriteFile(path, []byte("this is not a store, definitely"), 0o644)
	if _, err := Open(path); err == nil {
		t.Error("foreign file accepted")
	}
}

func TestMarkDirtyPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dirty.tyst")
	s, _ := Open(path)
	oid := alloc(t, s, &Array{Elems: []Val{IntVal(1)}})
	// In-place mutation of the transaction's copy + MarkDirty.
	write(t, s, func(tx *Txn) {
		tx.MustGet(oid).(*Array).Elems[0] = IntVal(99)
		tx.MarkDirty(oid)
	})
	s.Close()

	s2, _ := Open(path)
	defer s2.Close()
	if got := s2.MustGet(oid).(*Array).Elems[0].Int; got != 99 {
		t.Errorf("in-place mutation lost: %d", got)
	}
}

func TestValString(t *testing.T) {
	cases := map[string]Val{
		"nil":  NilVal(),
		"3":    IntVal(3),
		"2.5":  RealVal(2.5),
		"true": BoolVal(true),
		`'a'`:  CharVal('a'),
		`"s"`:  StrVal("s"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("Val%v.String() = %q, want %q", v.Kind, got, want)
		}
	}
	if got := RefVal(0x2a).String(); got != "<oid 0x0000002a>" {
		t.Errorf("RefVal.String() = %q", got)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindTuple, KindArray, KindByteArray, KindModule, KindClosure, KindRelation, KindBlob}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestRelationHelpers(t *testing.T) {
	r := &Relation{
		Schema:  []Column{{Name: "id", Type: ColInt}, {Name: "name", Type: ColStr}},
		Indexes: []IndexSpec{{Column: 0}},
	}
	if r.ColIndex("name") != 1 || r.ColIndex("zzz") != -1 {
		t.Error("ColIndex broken")
	}
	if !r.HasIndexOn(0) || r.HasIndexOn(1) {
		t.Error("HasIndexOn broken")
	}
}

func TestModuleLookup(t *testing.T) {
	m := &Module{Name: "int", Exports: []Export{{Name: "add", Val: RefVal(1)}}}
	if v, ok := m.Lookup("add"); !ok || v.Ref != 1 {
		t.Error("Lookup(add) failed")
	}
	if _, ok := m.Lookup("sub"); ok {
		t.Error("Lookup(sub) should fail")
	}
}

func TestQuickValRoundTrip(t *testing.T) {
	f := func(i int64, r float64, b bool, c byte, s string, ref uint64) bool {
		vals := []Val{IntVal(i), RealVal(r), BoolVal(b), CharVal(c), StrVal(s), RefVal(OID(ref)), NilVal()}
		var e encoder
		e.vals(vals)
		d := &decoder{b: e.buf.Bytes()}
		back := d.vals()
		if d.err != nil {
			return false
		}
		return valsEqual(vals, back)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		var fields []Val
		for _, v := range ints {
			fields = append(fields, IntVal(v))
		}
		for _, s := range strs {
			fields = append(fields, StrVal(s))
		}
		obj := &Tuple{Fields: fields}
		back, err := decodeObject(KindTuple, encodeObject(obj))
		return err == nil && objectsEqual(obj, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotIsolation: the copy a transaction takes of a mutable
// object is isolated from the original, for every kind.
func TestSnapshotIsolation(t *testing.T) {
	live := &Array{Elems: []Val{IntVal(1)}}
	snap := live.clone().(*Array)
	live.Elems[0] = IntVal(99)
	if snap.Elems[0].Int != 1 {
		t.Error("copy not isolated from mutation")
	}
	// Every kind copies without aliasing its slices.
	for _, obj := range allKinds() {
		cp := obj.clone()
		if !objectsEqual(obj, cp) {
			t.Errorf("%s: copy differs", obj.Kind())
		}
	}
}
