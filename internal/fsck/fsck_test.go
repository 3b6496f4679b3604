package fsck

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

var popts = tml.ParseOpts{IsPrim: prim.IsPrim}

// buildStore populates a store with a well-formed closure (TAM code and
// PTML, one captured variable), a module exporting it, a root naming the
// module, and one unreachable garbage blob. It returns the closure OID.
func buildStore(t *testing.T, path string) store.OID {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	defer st.Close()

	n, err := tml.Parse("proc(x !ce !cc) (+ x y ce cc)", popts)
	if err != nil {
		t.Fatal(err)
	}
	abs := n.(*tml.Abs)
	prog, err := machine.CompileProc(abs, "f")
	if err != nil {
		t.Fatal(err)
	}
	code, err := machine.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	pdata, err := ptml.Encode(abs)
	if err != nil {
		t.Fatal(err)
	}
	var bindings []store.Binding
	for _, v := range tml.FreeVars(abs) {
		bindings = append(bindings, store.Binding{Name: v.String(), Val: store.IntVal(1)})
	}
	codeOID := tx.Alloc(&store.Blob{Bytes: code})
	ptmlOID := tx.Alloc(&store.Blob{Bytes: pdata})
	cloOID := tx.Alloc(&store.Closure{Name: "f", Code: codeOID, PTML: ptmlOID, Bindings: bindings})
	modOID := tx.Alloc(&store.Module{Name: "m", Exports: []store.Export{{Name: "f", Val: store.RefVal(cloOID)}}})
	tx.SetRoot("main", modOID)
	tx.Alloc(&store.Blob{Bytes: []byte("garbage")}) // unreachable
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return cloOID
}

func TestCheckCleanStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	buildStore(t, path)
	rep, err := CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store has errors: %v", rep.Findings)
	}
	if rep.Objects != 5 || rep.Reachable != 4 || rep.Unreachable != 1 || rep.Closures != 1 {
		t.Errorf("report: %+v", rep)
	}
	if rep.Warnings() != 1 {
		t.Errorf("want exactly the unreachable-blob warning, got %v", rep.Findings)
	}
	if rep.Log == nil || !rep.Log.Clean() {
		t.Errorf("log report: %+v", rep.Log)
	}
	if len(rep.Hashes) != 1 || rep.Hashes[0].Name != "f" || rep.Hashes[0].Hash.IsZero() {
		t.Errorf("closure hashes: %+v", rep.Hashes)
	}
	// The recorded hash must equal the canonical hash of the stored blob.
	n, err := tml.Parse("proc(x !ce !cc) (+ x y ce cc)", popts)
	if err != nil {
		t.Fatal(err)
	}
	if want := ptml.HashNode(n); rep.Hashes[0].Hash != want {
		t.Errorf("hash %s != canonical %s", rep.Hashes[0].Hash.Short(), want.Short())
	}
}

func TestCheckDanglingRootAndReference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	oid := tx.Alloc(&store.Tuple{Fields: []store.Val{store.RefVal(0x999)}})
	tx.SetRoot("t", oid)
	tx.SetRoot("gone", 0x777)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rep, err := CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 2 {
		t.Fatalf("want dangling-root and dangling-reference errors, got %v", rep.Findings)
	}
}

func TestCheckMissingBinding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	cloOID := buildStore(t, path)
	// Strip the closure's bindings: both the TAM capture list and the
	// PTML free variables must now report errors.
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	c := *tx.MustGet(cloOID).(*store.Closure)
	c.Bindings = nil
	if err := tx.Update(cloOID, &c); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rep, err := CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 2 {
		t.Fatalf("want TAM-capture and PTML-free-variable errors, got %v", rep.Findings)
	}
}

func TestCheckCorruptPTML(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	cloOID := buildStore(t, path)
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	clo := tx.MustGet(cloOID).(*store.Closure)
	if err := tx.Update(clo.PTML, &store.Blob{Bytes: []byte("not ptml")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rep, err := CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("corrupt PTML not reported: %+v", rep)
	}
}

func TestCheckDamagedLogThenSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	buildStore(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The check must not die on a damaged log: it reports the damage.
	rep, err := CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Log.Damage == nil {
		t.Fatalf("damaged log not reported: %+v", rep)
	}
	if !errors.Is(rep.Log.Damage, store.ErrCorrupt) {
		t.Errorf("damage is not an ErrCorrupt: %v", rep.Log.Damage)
	}

	// Salvage, then the store must check out (the flipped batch is
	// quarantined, so findings about the lost objects are acceptable, but
	// the check itself must run).
	if _, err := store.Salvage(path); err != nil {
		t.Fatal(err)
	}
	rep, err = CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Log.Damage != nil {
		t.Errorf("salvaged log still damaged: %+v", rep.Log.Damage)
	}
}

// TestCheckServerSavedRoots: roots in the srv: namespace are written by
// tycd's SUBMIT…SAVE path and must resolve to closures; a well-formed
// closure passes, anything else is an error finding.
func TestCheckServerSavedRoots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	cloOID := buildStore(t, path)
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	tx.SetRoot(ship.SavedRoot+"good", cloOID)
	blobOID := tx.Alloc(&store.Blob{Bytes: []byte("not a closure")})
	tx.SetRoot(ship.SavedRoot+"bad", blobOID)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rep, err := CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 1 {
		t.Fatalf("want exactly the bad srv: root error, got %v", rep.Findings)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Severity == Error && strings.Contains(f.Message, "server-saved root") {
			found = true
		}
	}
	if !found {
		t.Errorf("no server-saved-root finding: %v", rep.Findings)
	}
}
