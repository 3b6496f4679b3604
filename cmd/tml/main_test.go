package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycoon"
)

// invoke runs one tml command line in-process and returns its exit code and
// both outputs.
func invoke(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, diag bytes.Buffer
	code = run(args, &out, &diag)
	return code, out.String(), diag.String()
}

// mustTML runs a command line that has to succeed.
func mustTML(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	code, out, diag := invoke(t, args...)
	if code != 0 {
		t.Fatalf("tml %s: exit %d\nstdout: %s\nstderr: %s", strings.Join(args, " "), code, out, diag)
	}
	return out, diag
}

func write(t *testing.T, path, content string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerbs(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.tyst")
	src := write(t, filepath.Join(dir, "app.tl"), `module app export fib
let fib(n : Int) : Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end
end
`)

	out, _ := mustTML(t, "compile", "-store", db, src)
	if !strings.Contains(out, "installed standard library") || !strings.Contains(out, "installed module app") {
		t.Errorf("compile printed %q", out)
	}

	if out, _ := mustTML(t, "run", "-store", db, "app.fib", "20"); out != "6765\n" {
		t.Errorf("run app.fib 20 = %q", out)
	}
	out, diag := mustTML(t, "run", "-store", db, "-opt", "-profile", "app.fib", "20")
	if out != "6765\n" || !strings.Contains(diag, "optimized: ") || !strings.Contains(diag, "profile: ") {
		t.Errorf("run -opt -profile printed %q, %q", out, diag)
	}

	out, _ = mustTML(t, "dump", "-store", db, "-fn", "app.fib")
	for _, want := range []string{"closure app.fib", "PTML (", "TAM code ("} {
		if !strings.Contains(out, want) {
			t.Errorf("dump -fn app.fib lacks %q:\n%s", want, out)
		}
	}

	// Export, import into a store that does not exist yet, and run the
	// shipped closure by its root name.
	bundle := filepath.Join(dir, "fib.bundle")
	mustTML(t, "ship", "-store", db, "-export", "app.fib", "-out", bundle)
	other := filepath.Join(dir, "other.tyst")
	out, _ = mustTML(t, "ship", "-store", other, "-import", bundle, "-as", "app.fib")
	if !strings.Contains(out, "registered root shipped:app.fib") {
		t.Errorf("ship -import printed %q", out)
	}
	if out, _ := mustTML(t, "run", "-store", other, "shipped:app.fib", "20"); out != "6765\n" {
		t.Errorf("run shipped:app.fib 20 = %q", out)
	}

	term := write(t, filepath.Join(dir, "term.tml"), "(cont(x) (+ x 1 e k) 41)")
	out, _ = mustTML(t, "opt", "-stats", term)
	if !strings.Contains(out, "; pass") || !strings.HasSuffix(out, "42)\n") {
		t.Errorf("opt -stats printed %q", out)
	}
}

// TestCompileTwiceAddsOnlyTheModule: a second compile into the same store
// installs the module again but not the library.
func TestCompileTwiceAddsOnlyTheModule(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.tyst")
	src := write(t, filepath.Join(dir, "m.tl"), "module m export f let f(n : Int) : Int = n end\n")
	mustTML(t, "compile", "-store", db, src)
	out, _ := mustTML(t, "compile", "-store", db, src)
	if strings.Contains(out, "standard library") {
		t.Errorf("second compile reinstalled the library: %q", out)
	}
}

// TestMissingStoreRefused: only compile and ship -import create a store;
// the other verbs name the missing path and leave no file behind.
func TestMissingStoreRefused(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nothere.tyst")
	for _, args := range [][]string{
		{"run", "-store", missing, "app.fib", "1"},
		{"dump", "-store", missing},
		{"ship", "-store", missing, "-export", "app.fib"},
	} {
		code, _, diag := invoke(t, args...)
		if code != 1 || !strings.Contains(diag, missing+" does not exist") {
			t.Errorf("tml %s: exit %d, stderr %q", strings.Join(args, " "), code, diag)
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("a refused verb left %s behind (%v)", missing, err)
	}
}

// TestUsage: an unknown verb or flag exits 2, a verb missing its
// arguments exits 1 with a usage line.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2}, {[]string{"frob"}, 2}, {[]string{"run", "-bogus"}, 2},
		{[]string{"run"}, 1}, {[]string{"ship", "-store", "x"}, 1}, {[]string{"compile"}, 1},
	} {
		code, _, diag := invoke(t, c.args...)
		if code != c.code || (!strings.Contains(diag, "usage") && !strings.Contains(diag, "Usage")) {
			t.Errorf("tml %s: exit %d, stderr %q; want exit %d and a usage line", strings.Join(c.args, " "), code, diag, c.code)
		}
	}
}

// TestFailedVerbsCommitNothing: a compile that fails in its second file
// and an import refused for a module the target lacks run in-process on
// an existing store; each leaves the log byte for byte as it was and
// closes the store, which reopens and still answers.
func TestFailedVerbsCommitNothing(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.tyst")
	mustTML(t, "compile", "-store", db,
		write(t, filepath.Join(dir, "good.tl"), "module good export f let f(n : Int) : Int = n + 1 end\n"))
	before, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(verb string) {
		t.Helper()
		after, err := os.ReadFile(db)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("failed %s changed the log: %d bytes, was %d", verb, len(after), len(before))
		}
		if out, _ := mustTML(t, "run", "-store", db, "good.f", "41"); out != "42\n" {
			t.Errorf("after the failed %s: good.f 41 = %q", verb, out)
		}
	}

	// The first file installs, the second's constant faults.
	first := write(t, filepath.Join(dir, "m2.tl"), "module m2 export g let g(n : Int) : Int = n end\n")
	bad := write(t, filepath.Join(dir, "bad.tl"), "module bad export f let z : Int = 1 / 0 let f(n : Int) : Int = n + z end\n")
	if code, _, diag := invoke(t, "compile", "-store", db, first, bad); code != 1 {
		t.Fatalf("compile with a faulting constant: exit %d, stderr %q", code, diag)
	}
	unchanged("compile")
	if code, _, _ := invoke(t, "run", "-store", db, "m2.g", "1"); code != 1 {
		t.Error("the failed compile's first module is installed")
	}

	// A bundle of app.f needs module helper, which db lacks.
	src := filepath.Join(dir, "src.tyst")
	mustTML(t, "compile", "-store", src,
		write(t, filepath.Join(dir, "helper.tl"), "module helper export inc let inc(n : Int) : Int = n + 1 end\n"),
		write(t, filepath.Join(dir, "app.tl"), "module app export f let f(n : Int) : Int = helper.inc(n) end\n"))
	bundle := filepath.Join(dir, "app.bundle")
	mustTML(t, "ship", "-store", src, "-export", "app.f", "-out", bundle)
	if code, _, diag := invoke(t, "ship", "-store", db, "-import", bundle, "-as", "app.f"); code != 1 || !strings.Contains(diag, "helper") {
		t.Fatalf("import without helper: exit %d, stderr %q", code, diag)
	}
	unchanged("import")
}

// TestCompiledConstantQueriesRelation: tml compile runs a module's
// constants on a machine with the query executors, so a constant may
// count a relation. No tml verb creates a relation; the facade does.
func TestCompiledConstantQueriesRelation(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.tyst")
	sys, err := tycoon.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sys.CreateRelation("t", []tycoon.Column{{Name: "id", Type: tycoon.ColInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := sys.InsertRow(rel, tycoon.IntVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	mustTML(t, "compile", "-store", db, write(t, filepath.Join(dir, "q.tl"), `module q export n
rel t : Rel(id : Int)
let c : Int = count(t)
let n() : Int = c
end
`))
	if out, _ := mustTML(t, "run", "-store", db, "q.n"); out != "10\n" {
		t.Errorf("run q.n = %q, want 10", out)
	}
}
