package tycoon

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
