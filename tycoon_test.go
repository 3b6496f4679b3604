package tycoon

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycoon/internal/store"
)

func TestFacadeLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facade.tyst")
	sys, err := Open(path, Config{LocalOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Install(`module m export sq let sq(n : Int) : Int = n * n end`); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Call("m", "sq", Int(12))
	if err != nil || v != Value(Int(144)) {
		t.Fatalf("sq = %v, %v", v, err)
	}
	if _, ok := sys.Module("m"); !ok {
		t.Error("Module lookup failed")
	}
	if _, ok := sys.Module("zzz"); ok {
		t.Error("phantom module resolved")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: module roots are recovered.
	sys2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	v, err = sys2.Call("m", "sq", Int(5))
	if err != nil || v != Value(Int(25)) {
		t.Fatalf("after reopen sq = %v, %v", v, err)
	}
}

func TestFacadeOptimizeFunction(t *testing.T) {
	sys, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module m export g
	  let g(n : Int) : Int = begin var s := 0; for i = 1 upto n do s := s + i end; s end
	  end`); err != nil {
		t.Fatal(err)
	}
	sys.ResetSteps()
	if _, err := sys.Call("m", "g", Int(500)); err != nil {
		t.Fatal(err)
	}
	before := sys.Steps()
	res, err := sys.OptimizeFunction("m", "g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Inlined == 0 {
		t.Error("no cross-barrier inlining recorded")
	}
	sys.ResetSteps()
	v, err := sys.Call("m", "g", Int(500))
	if err != nil || v != Value(Int(125250)) {
		t.Fatalf("optimized g = %v, %v", v, err)
	}
	if after := sys.Steps(); after*2 > before {
		t.Errorf("optimization did not double speed: %d → %d", before, after)
	}
}

func TestFacadeRelations(t *testing.T) {
	sys, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rel, err := sys.CreateRelation("points", []Column{
		{Name: "x", Type: ColInt},
		{Name: "tag", Type: ColStr},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := sys.InsertRow(rel, IntVal(i), StrVal("p")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Install(`module q export n
	  rel points : Rel(x : Int, tag : String)
	  let n() : Int = count(points)
	  end`); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Call("q", "n")
	if err != nil || v != Value(Int(10)) {
		t.Fatalf("count = %v, %v", v, err)
	}
}

func TestFacadePrintOutput(t *testing.T) {
	var buf bytes.Buffer
	sys, err := Open("", Config{Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module m export hello
	  let hello() : Ok = begin print("hello tycoon"); print(42) end
	  end`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Call("m", "hello"); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "hello tycoon\n42\n" {
		t.Errorf("output %q", got)
	}
}

func TestFacadeErrors(t *testing.T) {
	sys, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Call("nope", "f"); err == nil {
		t.Error("call into missing module succeeded")
	}
	if _, err := sys.Install("module broken let = end"); err == nil {
		t.Error("broken module installed")
	}
	if _, err := sys.FunctionOID("nope", "f"); err == nil {
		t.Error("FunctionOID on missing module succeeded")
	}
	if _, err := sys.OptimizeFunction("nope", "f"); err == nil {
		t.Error("OptimizeFunction on missing module succeeded")
	}
}

func TestFacadeStripPTML(t *testing.T) {
	sys, err := Open("", Config{StripPTML: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module m export f let f(n : Int) : Int = n end`); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Call("m", "f", Int(3))
	if err != nil || v != Value(Int(3)) {
		t.Fatalf("f = %v, %v", v, err)
	}
	if _, err := sys.OptimizeFunction("m", "f"); err == nil {
		t.Error("reflective optimization succeeded without PTML")
	} else if !strings.Contains(err.Error(), "PTML") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestFacadeDirectPrims(t *testing.T) {
	sys, err := Open("", Config{DirectPrims: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module m export f let f(a, b : Int) : Int = a * b + 1 end`); err != nil {
		t.Fatal(err)
	}
	sys.ResetSteps()
	v, err := sys.Call("m", "f", Int(6), Int(7))
	if err != nil || v != Value(Int(43)) {
		t.Fatalf("f = %v, %v", v, err)
	}
	if sys.Steps() > 5 {
		t.Errorf("direct mode took %d steps for two primitives", sys.Steps())
	}
}

// TestReopenAddsNothing: reopening a store that already holds the
// standard library installs nothing. Three Open/Close cycles keep the
// object count and the log size at their first values, and a module
// installed in the first still answers.
func TestReopenAddsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.tyst")
	var objects int
	var size int64
	for i := 0; i < 3; i++ {
		sys, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := sys.Install(`module m export sq let sq(n : Int) : Int = n * n end`); err != nil {
				t.Fatal(err)
			}
		}
		if v, err := sys.Call("m", "sq", Int(7)); err != nil || v != Value(Int(49)) {
			t.Fatalf("open %d: sq = %v, %v", i+1, v, err)
		}
		n := sys.Store.Len()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			objects, size = n, info.Size()
			continue
		}
		if n != objects || info.Size() != size {
			t.Errorf("open %d: %d objects, %d bytes; first open left %d objects, %d bytes",
				i+1, n, info.Size(), objects, size)
		}
	}
}

// failingInstalls are two installs that fail after the compiler has
// accepted them: a's constant faults (its signature still reaches the
// compiler), and b fails linking h, after g was built, because a was
// never installed.
var failingInstalls = []string{
	`module a export f, z
	 let z : Int = 1 / 0
	 let f(n : Int) : Int = n + z
	 end`,
	`module b export g, h
	 let g(n : Int) : Int = n * 2
	 let h(n : Int) : Int = a.f(n)
	 end`,
}

// goodInstall is the install that commits beside the failed ones.
const goodInstall = `module c export k let k(n : Int) : Int = n + 1 end`

// logSize reports the size of the store file at path.
func logSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// installAround opens a System over a new store at path, commits the
// library, tries each failing install, then installs goodInstall and
// closes. It checks that the failures changed neither the object count
// nor the log, and returns how much the good install grew both.
func installAround(t *testing.T, path string, failing []string) (objects int, bytes int64) {
	t.Helper()
	sys, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	objects0, size0 := sys.Store.Len(), logSize(t, path)
	for _, src := range failing {
		if _, err := sys.Install(src); err == nil {
			t.Fatalf("install succeeded:\n%s", src)
		}
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, size := sys.Store.Len(), logSize(t, path); n != objects0 || size != size0 {
		t.Errorf("after the failed installs: %d objects, %d bytes; before them %d, %d", n, size, objects0, size0)
	}
	if _, err := sys.Install(goodInstall); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return sys.Store.Len() - objects0, logSize(t, path) - size0
}

// TestFailedInstallLeavesNothing: installs that fail publish nothing,
// so neither the next commit nor a restart makes any part of them
// durable. A good install committed beside them adds
// exactly what it adds to a store that never saw them.
func TestFailedInstallLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "failed.tyst")
	objects, bytes := installAround(t, path, failingInstalls)
	wantObjects, wantBytes := installAround(t, filepath.Join(dir, "control.tyst"), nil)
	if objects != wantObjects || bytes != wantBytes {
		t.Errorf("good install beside the failures added %d objects, %d bytes; alone it adds %d, %d",
			objects, bytes, wantObjects, wantBytes)
	}

	size := logSize(t, path)
	sys, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Store.Len()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if after := logSize(t, path); after != size {
		t.Errorf("restart moved the log from %d to %d bytes", size, after)
	}
	sys, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Store.Len() != n {
		t.Errorf("restart moved the store from %d to %d objects", n, sys.Store.Len())
	}
	for _, name := range []string{"a", "b"} {
		if _, ok := sys.Module(name); ok {
			t.Errorf("failed module %s is installed after a restart", name)
		}
	}
	if v, err := sys.Call("c", "k", Int(41)); err != nil || v != Value(Int(42)) {
		t.Errorf("c.k(41) = %v, %v", v, err)
	}
}

// TestFacadeWritesVisibleToStore: every facade write is published when
// the call returns — Store and a transaction begun on it see relations,
// rows and modules before any Commit — and is durable only after
// Commit. Install releases the transaction the rows kept open.
func TestFacadeWritesVisibleToStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "visible.tyst")
	sys, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	size := logSize(t, path)
	rel, err := sys.CreateRelation("acct", []Column{{Name: "id", Type: ColInt}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 50
	for i := int64(0); i < rows; i++ {
		if err := sys.InsertRow(rel, IntVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Install(`module q export n
	  rel acct : Rel(id : Int)
	  let n() : Int = count(acct)
	  end`); err != nil {
		t.Fatal(err)
	}
	if open := sys.Store.TxStats().OpenSnapshots; open != 0 {
		t.Errorf("%d snapshots open after Install", open)
	}
	tx := sys.Store.Begin()
	oid, ok := tx.Root("rel:acct")
	if !ok || oid != rel {
		t.Fatalf("a transaction on Store resolves rel:acct to %v, %v; want %v", oid, ok, rel)
	}
	if n := tx.MustGet(rel).(*store.Relation).NumRows(); n != rows {
		t.Errorf("a transaction on Store sees %d rows, want %d", n, rows)
	}
	if _, ok := tx.Root("module:q"); !ok {
		t.Error("a transaction on Store does not see module q")
	}
	tx.Abort()
	if v, err := sys.Call("q", "n"); err != nil || v != Value(Int(rows)) {
		t.Errorf("q.n() = %v, %v; want %d", v, err, rows)
	}
	if got := logSize(t, path); got != size {
		t.Errorf("published writes reached the log before Commit: %d → %d bytes", size, got)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := logSize(t, path); got <= size {
		t.Errorf("Commit left the log at %d bytes", got)
	}
	if open := sys.Store.TxStats().OpenSnapshots; open != 0 {
		t.Errorf("%d snapshots open after Commit", open)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if open := sys.Store.TxStats().OpenSnapshots; open != 0 {
		t.Errorf("%d snapshots open after reopening", open)
	}
	if v, err := sys.Call("q", "n"); err != nil || v != Value(Int(rows)) {
		t.Errorf("after reopening q.n() = %v, %v; want %d", v, err, rows)
	}
}

// TestOptimizeSeesForeignUpdate: OptimizeFunction reads the store's
// current state, so after another transaction commits an Update to the
// module a function binds, the next optimization folds the new code
// instead of serving the old from the cache.
func TestOptimizeSeesForeignUpdate(t *testing.T) {
	sys, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Install(`module a export f let f(n : Int) : Int = n + 1 end`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Install(`module b export g let g(n : Int) : Int = a.f(n) end`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OptimizeFunction("b", "g"); err != nil {
		t.Fatal(err)
	}
	if v, err := sys.Call("b", "g", Int(1)); err != nil || v != Value(Int(2)) {
		t.Fatalf("optimized g(1) = %v, %v; want 2", v, err)
	}

	// Another writer replaces the module object g binds with that of a
	// module exporting a new f.
	oldA, _ := sys.Module("a")
	unit, err := sys.Compiler.Compile(`module a2 export f let f(n : Int) : Int = n + 100 end`)
	if err != nil {
		t.Fatal(err)
	}
	tx := sys.Store.Begin()
	newA, err := sys.Linker.InstallModule(tx, unit)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(oldA, tx.MustGet(newA)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	res, err := sys.OptimizeFunction("b", "g")
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("optimization after the update was served from the cache")
	}
	if v, err := sys.Call("b", "g", Int(1)); err != nil || v != Value(Int(101)) {
		t.Errorf("re-optimized g(1) = %v, %v; want 101", v, err)
	}
}

// queryConst is a module whose constant queries a relation and prints:
// installing it needs a machine with the query executors and the
// System's print output.
const queryConst = `module q export n
  rel t : Rel(id : Int)
  let c : Int = begin print("counting t"); count(t) end
  let n() : Int = c
  end`

// TestConstantsRunOnACoreMachine: Install runs a module's constants on a
// core machine, so a constant may query a relation, and what it prints
// reaches Config.Out.
func TestConstantsRunOnACoreMachine(t *testing.T) {
	var out bytes.Buffer
	sys, err := Open("", Config{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rel, err := sys.CreateRelation("t", []Column{{Name: "id", Type: ColInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := sys.InsertRow(rel, IntVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Install(queryConst); err != nil {
		t.Fatal(err)
	}
	if v, err := sys.Call("q", "n"); err != nil || v != Value(Int(10)) {
		t.Errorf("q.n() = %v, %v; want 10", v, err)
	}
	if got := out.String(); got != "counting t\n" {
		t.Errorf("the constant printed %q to Config.Out, want %q", got, "counting t\n")
	}
}
