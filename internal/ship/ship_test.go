package ship_test

import (
	"errors"
	"testing"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/reflectopt"
	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tml"
	"tycoon/internal/tyclib"
)

// node is one "machine" in the shipping scenario: its own store, machine
// and compiler.
type node struct {
	st   *store.Store
	m    *machine.Machine
	mg   *relalg.Manager
	comp *tl.Compiler
	lk   *linker.Linker
}

func newNode(t *testing.T) *node {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	lk := linker.New(linker.Config{})
	tx := st.Begin()
	comp, err := tyclib.Install(machine.New(tx), tx, lk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	m := machine.New(st)
	mg := relalg.NewManager(st)
	mg.Register(m)
	return &node{st: st, m: m, mg: mg, comp: comp, lk: lk}
}

// export bundles the closure of an exported function of n's store.
func (n *node) export(module, fn string) ([]byte, error) {
	oid, err := linker.Function(n.st, module, fn)
	if err != nil {
		return nil, err
	}
	return ship.Export(n.st, oid)
}

func (n *node) install(t *testing.T, src string) {
	t.Helper()
	unit, err := n.comp.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	tx := n.st.Begin()
	if _, err := n.lk.InstallModuleOn(machine.New(tx), tx, unit); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// importBundle imports bundle into n's store in one transaction: it
// commits when the import succeeds and aborts when it fails.
func (n *node) importBundle(bundle []byte) (store.OID, error) {
	tx := n.st.Begin()
	defer tx.Abort()
	oid, err := ship.Import(tx, bundle)
	if err != nil {
		return store.Nil, err
	}
	return oid, tx.Commit()
}

// relation commits relation name(id), indexed, holding ids 0…rows-1.
func (n *node) relation(t *testing.T, name string, rows int64) {
	t.Helper()
	tx := n.st.Begin()
	oid, err := relalg.CreateRelation(tx, name, []store.Column{{Name: "id", Type: store.ColInt}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < rows; i++ {
		if err := relalg.InsertRow(tx, oid, []store.Val{store.IntVal(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestShipSimpleFunction(t *testing.T) {
	src := newNode(t)
	src.install(t, `
module app export triple
let triple(n : Int) : Int = n * 3
end`)
	bundle, err := src.export("app", "triple")
	if err != nil {
		t.Fatal(err)
	}

	dst := newNode(t)
	oid, err := dst.importBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dst.m.Apply(machine.Ref{OID: oid}, []machine.Value{machine.Int(14)})
	if err != nil || v != machine.Value(machine.Int(42)) {
		t.Fatalf("shipped triple(14) = %v, %v", v, err)
	}
}

func TestShipBindsTargetLibrary(t *testing.T) {
	src := newNode(t)
	src.install(t, `
module app export sq
let sq(n : Int) : Int = n * n
end`)
	bundle, err := src.export("app", "sq")
	if err != nil {
		t.Fatal(err)
	}
	before := src.st.Len()
	_ = before

	dst := newNode(t)
	dstObjects := dst.st.Len()
	oid, err := dst.importBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	// The int module must NOT have been duplicated: only the closure and
	// its two blobs (code + PTML) arrive.
	if grown := dst.st.Len() - dstObjects; grown > 4 {
		t.Errorf("import added %d objects; the stdlib was re-shipped", grown)
	}
	v, err := dst.m.Apply(machine.Ref{OID: oid}, []machine.Value{machine.Int(9)})
	if err != nil || v != machine.Value(machine.Int(81)) {
		t.Fatalf("shipped sq(9) = %v, %v", v, err)
	}
}

func TestShipRecursiveAndSiblings(t *testing.T) {
	src := newNode(t)
	src.install(t, `
module app export f
let helper(a : Int) : Int = a + 100
let f(n : Int) : Int = if n < 1 then 0 else helper(n) + f(n - 1) end
end`)
	bundle, err := src.export("app", "f")
	if err != nil {
		t.Fatal(err)
	}
	dst := newNode(t)
	oid, err := dst.importBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	// f(3) = (101+102+103) = 306 + f(0)=0
	v, err := dst.m.Apply(machine.Ref{OID: oid}, []machine.Value{machine.Int(3)})
	if err != nil || v != machine.Value(machine.Int(306)) {
		t.Fatalf("shipped f(3) = %v, %v", v, err)
	}
}

func TestShipCodeDataStays(t *testing.T) {
	// The query function ships; it binds to the TARGET's relation of the
	// same name, which holds different data — "code shipping", not data
	// shipping.
	src := newNode(t)
	src.relation(t, "emp", 3)
	src.install(t, `
module q export n
rel emp : Rel(id : Int)
let n() : Int = count(emp)
end`)
	v, err := src.m.CallExport(mustRoot(t, src.st, "module:q"), "n", nil)
	if err != nil || v != machine.Value(machine.Int(3)) {
		t.Fatalf("source n() = %v, %v", v, err)
	}

	bundle, err := src.export("q", "n")
	if err != nil {
		t.Fatal(err)
	}

	// Target with a DIFFERENT emp relation (7 rows).
	dst := newNode(t)
	dst.relation(t, "emp", 7)
	oid, err := dst.importBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	v, err = dst.m.Apply(machine.Ref{OID: oid}, nil)
	if err != nil || v != machine.Value(machine.Int(7)) {
		t.Fatalf("shipped n() against target data = %v, %v", v, err)
	}

	// Without the relation in the target, import fails cleanly.
	empty := newNode(t)
	if _, err := empty.importBundle(bundle); !errors.Is(err, ship.ErrUnresolved) {
		t.Errorf("import without relation: %v, want ErrUnresolved", err)
	}
}

func TestShippedCodeIsStillOptimizable(t *testing.T) {
	// PTML travels with the code: the TARGET node can reflectively
	// optimize the imported function against ITS bindings.
	src := newNode(t)
	src.install(t, `
module app export gauss
let gauss(n : Int) : Int =
  begin var s := 0; for i = 1 upto n do s := s + i end; s end
end`)
	bundle, err := src.export("app", "gauss")
	if err != nil {
		t.Fatal(err)
	}
	dst := newNode(t)
	oid, err := dst.importBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	ro := reflectopt.New(dst.st, pipeline.New(dst.st, pipeline.Config{}), reflectopt.Options{})
	res, err := ro.OptimizeAndInstall(dst.m.Code, oid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inlined == 0 {
		t.Error("imported code could not be optimized across barriers")
	}
	v, err := dst.m.Apply(machine.Ref{OID: oid}, []machine.Value{machine.Int(100)})
	if err != nil || v != machine.Value(machine.Int(5050)) {
		t.Fatalf("optimized shipped gauss = %v, %v", v, err)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	dst := newNode(t)
	for _, data := range [][]byte{nil, []byte("XX"), []byte("TYSHIP01")} {
		if _, err := dst.importBundle(data); err == nil {
			t.Errorf("Import(%q) succeeded", data)
		}
	}
}

// exportTriple builds a source node and exports app.triple for the
// corruption tests.
func exportTriple(t *testing.T) []byte {
	t.Helper()
	src := newNode(t)
	src.install(t, `
module app export triple
let triple(n : Int) : Int = n * 3
end`)
	bundle, err := src.export("app", "triple")
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

// TestImportRefusesIllFormedPTML: a bundle whose closure carries a PTML
// tree that violates a §2.2 constraint is refused, although its bytes
// are intact, and the refused import leaves nothing in the target.
func TestImportRefusesIllFormedPTML(t *testing.T) {
	src := newNode(t)
	src.install(t, `
module app export triple
let triple(n : Int) : Int = n * 3
end`)
	obj, err := src.st.Get(mustRoot(t, src.st, "module:app"))
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := obj.(*store.Module).Lookup("triple")
	obj, err = src.st.Get(fn.Ref)
	if err != nil {
		t.Fatal(err)
	}
	clo := obj.(*store.Closure)
	// + applied to one value: a primitive arity violation.
	bad, err := tml.Parse("proc(n !ce !cc) (+ n ce cc)", tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ptml.Encode(bad)
	if err != nil {
		t.Fatal(err)
	}
	tx := src.st.Begin()
	if err := tx.Update(clo.PTML, &store.Blob{Bytes: data}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	bundle, err := ship.Export(src.st, fn.Ref)
	if err != nil {
		t.Fatal(err)
	}
	// The refused import's placeholders die with its transaction.
	dst := newNode(t)
	before := dst.st.Len()
	_, err = dst.importBundle(bundle)
	if !errors.Is(err, ship.ErrBadBundle) || !errors.Is(err, tml.ErrIllFormed) {
		t.Fatalf("import of an ill-formed closure: %v, want ErrBadBundle naming the violation", err)
	}
	if after := dst.st.Len(); after != before {
		t.Errorf("refused import moved the target from %d to %d objects", before, after)
	}
}

func TestImportDetectsTruncation(t *testing.T) {
	bundle := exportTriple(t)
	dst := newNode(t)
	for cut := 0; cut < len(bundle); cut++ {
		_, err := dst.importBundle(bundle[:cut])
		if err == nil {
			t.Fatalf("bundle truncated to %d/%d bytes imported", cut, len(bundle))
		}
		// Once the magic is intact, the v2 envelope attributes the
		// failure to transit damage, typed for the caller.
		if cut >= 8 && !errors.Is(err, ship.ErrCorruptBundle) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptBundle", cut, err)
		}
	}
}

func TestImportDetectsBitFlip(t *testing.T) {
	bundle := exportTriple(t)
	dst := newNode(t)
	for off := 0; off < len(bundle); off++ {
		mut := append([]byte(nil), bundle...)
		mut[off] ^= 0x20
		_, err := dst.importBundle(mut)
		if err == nil {
			t.Fatalf("bundle with bit flipped at offset %d imported", off)
		}
		if off >= 8 && !errors.Is(err, ship.ErrCorruptBundle) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrCorruptBundle", off, err)
		}
		var ce *ship.CorruptBundleError
		if off >= 8 && !errors.As(err, &ce) {
			t.Fatalf("bit flip at offset %d: err is not a *CorruptBundleError: %v", off, err)
		}
	}
}

func TestImportLegacyV1Bundle(t *testing.T) {
	// A v1 bundle is the v2 body without the integrity envelope; the
	// importer must still accept it (stores in the field hold v1 exports).
	bundle := exportTriple(t)
	legacy := append([]byte("TYSHIP01"), bundle[12:len(bundle)-4]...)
	dst := newNode(t)
	oid, err := dst.importBundle(legacy)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dst.m.Apply(machine.Ref{OID: oid}, []machine.Value{machine.Int(14)})
	if err != nil || v != machine.Value(machine.Int(42)) {
		t.Fatalf("legacy bundle triple(14) = %v, %v", v, err)
	}
}

func mustRoot(t *testing.T, st *store.Store, name string) store.OID {
	t.Helper()
	oid, ok := st.Root(name)
	if !ok {
		t.Fatalf("root %s missing", name)
	}
	return oid
}
