package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/fsck"
	"tycoon/internal/machine"
	"tycoon/internal/relalg"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// world starts a server over its own store and returns it with the
// address it listens on. Cleanup drains the server before the store
// closes (t.Cleanup runs in reverse registration order).
func world(t *testing.T, path string, cfg server.Config) (*server.Server, string, *store.Store) {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := server.New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ln.Addr().String(), st
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Timeout: 30 * time.Second, Client: t.Name()})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// fill commits relation t(id, val) with an index on id and n rows where
// val = i % 97, the distribution the E benchmarks use.
func fill(t *testing.T, st *store.Store, n int) {
	t.Helper()
	write(t, st, func(tx *store.Txn) {
		oid, err := relalg.CreateRelation(tx, "t", []store.Column{
			{Name: "id", Type: store.ColInt},
			{Name: "val", Type: store.ColInt},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := relalg.InsertRow(tx, oid, []store.Val{store.IntVal(int64(i)), store.IntVal(int64(i % 97))}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// write runs f in one transaction over st and commits it.
func write(t *testing.T, st *store.Store, f func(tx *store.Txn)) {
	t.Helper()
	tx := st.Begin()
	defer tx.Abort()
	f(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// selectSrc is the E-benchmark selection σ_{val<50}(r) with the
// relation left as a free variable to be bound over the wire.
const selectSrc = `(select proc(x !ce !cc)
  ([] x 1 cont(a) (< a 50 cont() (cc true) cont() (cc false)))
  r e k)`

// loopSrc diverges: a self-applying procedure, so both budget kinds
// trip on it deterministically.
const loopSrc = `(proc(f !ce !cc) (f f ce cc) proc(g !ge !gc) (g g ge gc) e k)`

func wantCode(t *testing.T, err error, code ship.ErrCode) *ship.WireError {
	t.Helper()
	var we *ship.WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a wire error with code %s", err, code)
	}
	if we.Code != code {
		t.Fatalf("code = %s (%s), want %s", we.Code, we.Msg, code)
	}
	return we
}

func TestPingAndStats(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.TotalSessions != 1 || st.Draining {
		t.Errorf("stats: %+v", st)
	}
	if st.Verbs["ping"].Count != 1 {
		t.Errorf("ping not recorded: %+v", st.Verbs)
	}
}

func TestSubmitArithmetic(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)
	res, err := c.SubmitTML("answer", "(+ 40 2 e cont(n) (k n))", nil, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Kind != ship.WInt || res.Val.Int != 42 {
		t.Fatalf("result = %s, want 42", res.Val.Show())
	}
	if res.Info.CacheHit {
		t.Error("first submit reported a cache hit")
	}
	// The α-same term hits the cache on resubmission.
	res, err = c.SubmitTML("answer", "(+ 40 2 e cont(m) (k m))", nil, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Info.CacheHit {
		t.Error("α-equivalent resubmission missed the cache")
	}
}

func TestSubmitBindings(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)
	binds := []ship.WBind{
		{Name: "x", Val: ship.WVal{Kind: ship.WInt, Int: 40}},
		{Name: "y", Val: ship.WVal{Kind: ship.WInt, Int: 2}},
	}
	res, err := c.SubmitTML("xy", "(+ x y e cont(n) (k n))", binds, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("result = %s, want 42", res.Val.Show())
	}
	// The cache key fingerprints bindings by name, not listing order.
	rev := []ship.WBind{binds[1], binds[0]}
	res, err = c.SubmitTML("xy", "(+ x y e cont(n) (k n))", rev, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Info.CacheHit {
		t.Error("reordered bindings missed the cache")
	}
	// Different binding values are a different key: recompile, new answer.
	binds[0].Val.Int = 1
	res, err = c.SubmitTML("xy", "(+ x y e cont(n) (k n))", binds, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.CacheHit || res.Val.Int != 3 {
		t.Errorf("rebound submit: hit=%t val=%s, want fresh 3", res.Info.CacheHit, res.Val.Show())
	}
}

func TestSubmitErrors(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)

	// Free variable with no binding: a compile failure, and the session
	// survives it.
	_, err := c.SubmitTML("", "(+ x 2 e cont(n) (k n))", nil, false, "")
	we := wantCode(t, err, ship.CodeCompile)
	if !strings.Contains(we.Msg, "no binding") {
		t.Errorf("msg = %q", we.Msg)
	}

	// Unknown root in a binding.
	_, err = c.SubmitTML("", "(+ x 2 e cont(n) (k n))",
		[]ship.WBind{{Name: "x", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:nope"}}}, false, "")
	wantCode(t, err, ship.CodeBadRequest)

	// Duplicate binding names.
	dup := []ship.WBind{
		{Name: "x", Val: ship.WVal{Kind: ship.WInt, Int: 1}},
		{Name: "x", Val: ship.WVal{Kind: ship.WInt, Int: 2}},
	}
	_, err = c.SubmitTML("", "(+ x 2 e cont(n) (k n))", dup, false, "")
	wantCode(t, err, ship.CodeBadRequest)

	// An unhandled runtime exception is an execution error.
	_, err = c.SubmitTML("", "(/ 1 0 e cont(n) (k n))", nil, false, "")
	wantCode(t, err, ship.CodeExec)

	// After all of that the session still answers.
	if err := c.Ping(); err != nil {
		t.Fatalf("session did not survive request errors: %v", err)
	}
}

// TestSubmitIndexScanRaggedRelation: an indexscan over a transient
// relation whose rows do not all fit its schema — a projection that
// answers a pair for its first row and single columns after — answers an
// execution error, and the connection stays up to answer the next verb.
func TestSubmitIndexScanRaggedRelation(t *testing.T) {
	_, addr, st := world(t, "", server.Config{})
	fill(t, st, 100)
	c := dial(t, addr)
	_, err := c.SubmitTML("", `(project proc(x !ce !cc)
	  ([] x 0 cont(a) (== a 0
	    cont() (vector a 7 cont(row) (cc row))
	    cont() (vector a cont(row) (cc row))))
	  r e cont(p) (indexscan p 1 7 e k))`,
		[]ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}, false, "")
	wantCode(t, err, ship.CodeExec)
	if err := c.Ping(); err != nil {
		t.Fatalf("session did not survive the ragged indexscan: %v", err)
	}
}

// TestHandlerDoesNotLeakAcrossRequests: requests run one after another on
// the machines the server lends, whichever connection sent them, so a
// request that finishes inside a try must not leave its handler to catch
// the next request's exception (which would answer that request with the
// earlier one's handler value) — on its own connection or on another.
func TestHandlerDoesNotLeakAcrossRequests(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	a := dial(t, addr)
	for _, next := range []struct {
		name string
		c    *client.Client
	}{{"same connection", a}, {"second connection", dial(t, addr)}} {
		for _, optimize := range []bool{false, true} {
			res, err := a.SubmitTML("", "(pushHandler cont(x) (k 99) cont() (k 5))", nil, optimize, "")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Val.Show(); got != "5" {
				t.Fatalf("try (optimize=%t) = %s, want 5", optimize, got)
			}
			res, err = next.c.SubmitTML("", "(raise 7)", nil, optimize, "")
			if err == nil {
				t.Fatalf("raise on the %s (optimize=%t) answered %s; want an unhandled exception",
					next.name, optimize, res.Val.Show())
			}
			we := wantCode(t, err, ship.CodeExec)
			if !strings.Contains(we.Msg, "unhandled exception: 7") {
				t.Errorf("raise on the %s (optimize=%t): %q, want the unhandled exception 7", next.name, optimize, we.Msg)
			}
		}
	}
}

// TestSharedCacheAcrossSessions is the acceptance test of the PR: 64
// concurrent sessions submit the α-same optimized selection against the
// same binding; the shared pipeline compiles it exactly once (counted
// as one miss) and every other session observes a hit or rides the
// singleflight.
func TestSharedCacheAcrossSessions(t *testing.T) {
	srv, addr, st := world(t, "", server.Config{})
	fill(t, st, 1000)

	const sessions = 64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	start := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{
				Timeout: 60 * time.Second,
				Client:  fmt.Sprintf("acc-%d", i),
			})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			<-start
			res, err := c.SubmitTML("sel",
				selectSrc,
				[]ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}},
				true, "")
			if err != nil {
				errs <- err
				return
			}
			if res.Val.Kind != ship.WRel || res.Val.Rel == nil {
				errs <- fmt.Errorf("session %d: result is %s, not a relation", i, res.Val.Show())
				return
			}
			// 1000 rows of val = i%97: ten full cycles contribute 50
			// matches each, the 30-row tail is all < 50.
			if got := len(res.Val.Rel.Rows); got != 530 {
				errs <- fmt.Errorf("session %d: %d rows, want 530", i, got)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := srv.Stats()
	p := stats.Pipeline
	if p.Misses != 1 {
		t.Errorf("pipeline misses = %d, want exactly 1 compilation", p.Misses)
	}
	if p.Hits+p.Shared != sessions-1 {
		t.Errorf("hits %d + shared %d = %d, want %d", p.Hits, p.Shared, p.Hits+p.Shared, sessions-1)
	}
	if p.Errors != 0 {
		t.Errorf("pipeline errors = %d", p.Errors)
	}
	if stats.TotalSessions != sessions {
		t.Errorf("total sessions = %d, want %d", stats.TotalSessions, sessions)
	}
}

// TestConcurrentInsertAndScan races writers through the manager against
// sessions scanning over the wire; under -race this covers the COW
// index-cache and row-snapshot paths end to end.
func TestConcurrentInsertAndScan(t *testing.T) {
	_, addr, st := world(t, "", server.Config{})
	fill(t, st, 200)
	oid, ok := st.Root("rel:t")
	if !ok {
		t.Fatal("relation t missing")
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := []store.Val{store.IntVal(int64(1000 + w*10000 + i)), store.IntVal(123)}
				tx := st.Begin()
				if err := relalg.InsertRow(tx, oid, row); err != nil {
					tx.Abort()
					t.Errorf("insert: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("insert commit: %v", err)
					return
				}
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			c, err := client.Dial(addr, client.Options{Timeout: 30 * time.Second})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				res, err := c.SubmitTML("scan", "(indexscan r 0 7 e k)",
					[]ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}},
					false, "")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Val.Kind != ship.WRel || len(res.Val.Rel.Rows) != 1 {
					t.Errorf("reader %d: indexscan for id 7 returned %s", r, res.Val.Show())
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

func TestSaveAndCall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	_, addr, st := world(t, path, server.Config{})
	fill(t, st, 100)
	c := dial(t, addr)

	res, err := c.SubmitTML("sel", selectSrc,
		[]ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}},
		true, "mysel")
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Val.Rel.Rows)

	// Call the saved closure by name (empty module) from a second session.
	c2 := dial(t, addr)
	res2, err := c2.Call("", "mysel")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Val.Kind != ship.WRel || len(res2.Val.Rel.Rows) != want {
		t.Fatalf("saved closure returned %s, want %d rows", res2.Val.Show(), want)
	}

	// Calling a name that was never saved is NotFound.
	_, err = c2.Call("", "nope")
	wantCode(t, err, ship.CodeNotFound)

	// The srv: root must pass the object-store audit.
	rep, err := fsck.CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("fsck after save: %v", rep.Findings)
	}
	if rep.Closures == 0 {
		t.Errorf("fsck saw no closures: %+v", rep)
	}
}

func TestInstallCallOptimize(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)

	res, err := c.Install("module demo export double let double(a : Int) : Int = a * 2 end")
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Str != "demo" {
		t.Fatalf("installed %q, want demo", res.Val.Str)
	}
	res, err = c.Call("demo", "double", ship.WVal{Kind: ship.WInt, Int: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("demo.double(21) = %s", res.Val.Show())
	}

	// Broken source is a compile error; the session survives.
	_, err = c.Install("module broken let f( : Int = 1 end")
	wantCode(t, err, ship.CodeCompile)

	// Reflective optimization, then the optimized code still answers.
	if _, err = c.Optimize("demo", "double"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Call("demo", "double", ship.WVal{Kind: ship.WInt, Int: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("after optimize: demo.double(21) = %s", res.Val.Show())
	}

	// A second session's optimize of the same function hits the shared
	// pipeline cache.
	c2 := dial(t, addr)
	res, err = c2.Optimize("demo", "double")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Info.CacheHit {
		t.Error("second session's optimize missed the shared cache")
	}

	_, err = c.Optimize("demo", "nope")
	wantCode(t, err, ship.CodeNotFound)
	_, err = c.Call("nomod", "f")
	wantCode(t, err, ship.CodeNotFound)
}

// TestOptimizeServesEverySession: OPTIMIZE installs into the server's
// one code table, so a session that never optimized runs the optimized
// code, and a session opened afterwards does too.
func TestOptimizeServesEverySession(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	a, b := dial(t, addr), dial(t, addr)
	if _, err := a.Install(`module h export gauss
let gauss(n : Int) : Int =
  begin var s := 0; for i = 1 upto n do s := s + i end; s end
end`); err != nil {
		t.Fatal(err)
	}
	steps := func(c *client.Client) int64 {
		t.Helper()
		res, err := c.Call("h", "gauss", ship.WVal{Kind: ship.WInt, Int: 1000})
		if err != nil || res.Val.Int != 500500 {
			t.Fatalf("h.gauss(1000) = %v, %v", res, err)
		}
		return res.Info.Steps
	}
	raw := steps(b)
	if _, err := a.Optimize("h", "gauss"); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*client.Client{"other session": b, "new session": dial(t, addr)} {
		if got := steps(c); got*2 > raw {
			t.Errorf("%s: %d steps after optimize, installed code takes %d", name, got, raw)
		}
	}
}

func TestStepBudget(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{StepBudget: 10_000})
	c := dial(t, addr)
	_, err := c.SubmitTML("loop", loopSrc, nil, false, "")
	we := wantCode(t, err, ship.CodeBudget)
	if !strings.Contains(we.Msg, "step budget") {
		t.Errorf("msg = %q", we.Msg)
	}
	// Budgets are per request: the next request gets a fresh allowance.
	res, err := c.SubmitTML("", "(+ 1 2 e cont(n) (k n))", nil, false, "")
	if err != nil || res.Val.Int != 3 {
		t.Fatalf("after budget error: %v %v", res, err)
	}
}

func TestWallBudget(t *testing.T) {
	// Steps effectively unbounded so the wall clock trips first.
	_, addr, st := world(t, "", server.Config{
		StepBudget: 1 << 60,
		WallBudget: 50 * time.Millisecond,
	})
	fill(t, st, 1000)
	c := dial(t, addr)
	start := time.Now()
	_, err := c.SubmitTML("loop", loopSrc, nil, false, "")
	we := wantCode(t, err, ship.CodeBudget)
	if !strings.Contains(we.Msg, "wall-clock") {
		t.Errorf("msg = %q", we.Msg)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("wall budget took %s to fire", elapsed)
	}
	// The deadline dies with its request: the next ones run in full, the
	// selection too, whose bulk row charges read the clock at once.
	res, err := c.SubmitTML("", "(+ 1 2 e cont(n) (k n))", nil, false, "")
	if err != nil || res.Val.Int != 3 {
		t.Fatalf("after the wall budget: %v %v", res, err)
	}
	res, err = c.SubmitTML("sel", selectSrc,
		[]ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}, false, "")
	if err != nil || res.Val.Rel == nil || len(res.Val.Rel.Rows) != 530 {
		t.Fatalf("selection after the wall budget: %v %v", res, err)
	}
}

// TestInstallRunsUnderRequestBudgets: a module constant runs on the
// request's machine under the request's step and wall budgets, so a
// runaway constant answers CodeBudget instead of running to completion
// while it holds the install lock. The session survives, and the lock is
// released: another connection installs right after.
func TestInstallRunsUnderRequestBudgets(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{
		StepBudget: 1000,
		WallBudget: 50 * time.Millisecond,
	})
	c := dial(t, addr)
	start := time.Now()
	_, err := c.Install(`module spin export c
let c = begin var s := 0; for i = 1 upto 1000000 do s := s + i end; s end
end`)
	wantCode(t, err, ship.CodeBudget)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("the budget took %s to fire", elapsed)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session did not survive the budget: %v", err)
	}
	res, err := dial(t, addr).Install("module small export c let c = 6 * 7 end")
	if err != nil || res.Val.Str != "small" {
		t.Fatalf("install on a second connection: %v, %v", res, err)
	}
}

// TestInstalledConstantQueriesRelation: a served INSTALL runs a module's
// constants on a lent machine with the query executors, as the facade
// and tml compile do, so a constant may count a relation.
func TestInstalledConstantQueriesRelation(t *testing.T) {
	_, addr, st := world(t, "", server.Config{})
	fill(t, st, 10)
	c := dial(t, addr)
	if _, err := c.Install(`module q export n
rel t : Rel(id : Int, val : Int)
let c : Int = count(t)
let n() : Int = c
end`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Call("q", "n")
	if err != nil || res.Val.Int != 10 {
		t.Fatalf("q.n() = %v, %v; want 10", res, err)
	}
}

// TestDrainCommitsStore is the tycd half of a graceful drain (the
// front end's half — idle sessions woken, newcomers refused, no waiting
// out the context — is ship's TestFrontEndConformance): sessions that
// did durable work are drained and the store ends fsck-clean.
func TestDrainCommitsStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(st, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// A few sessions do real work, then sit idle, blocked in a read.
	clients := make([]*client.Client, 3)
	for i := range clients {
		c, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		if _, err := c.SubmitTML("", "(+ 1 2 e cont(n) (k n))", nil, false, "sum"); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v after drain", err)
	}
	// Idle sessions were woken: their next request fails.
	for i, c := range clients {
		if err := c.Ping(); err == nil {
			t.Errorf("client %d still served after drain", i)
		}
		c.Close()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := fsck.CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("store not fsck-clean after drain: %v", rep.Findings)
	}
}

// TestDeadlineSteps pins the deadline contract the wall budget rides on:
// a bulk TickN past the deadline answers ErrWallBudget at once, single
// steps answer it within one poll interval (16384 steps), and a machine
// with no deadline runs on.
func TestDeadlineSteps(t *testing.T) {
	const pollSteps = 1 << 14
	m := machine.New(nil)
	m.Deadline = time.Now().Add(-time.Millisecond)
	if err := m.TickN(500); !errors.Is(err, machine.ErrWallBudget) {
		t.Fatalf("TickN past the deadline: %v, want ErrWallBudget", err)
	}
	m.ResetSteps()
	for i := 1; ; i++ {
		err := m.Tick()
		if errors.Is(err, machine.ErrWallBudget) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == pollSteps {
			t.Fatalf("%d single steps past the deadline ran on", i)
		}
	}
	m.Deadline = time.Time{}
	if err := m.TickN(500); err != nil {
		t.Fatalf("TickN without a deadline: %v", err)
	}
	for i := 0; i < 2*pollSteps; i++ {
		if err := m.Tick(); err != nil {
			t.Fatalf("step %d without a deadline: %v", i, err)
		}
	}
}

// TestSubmitExplain drives the EXPLAIN surface over the wire: a submit
// with the explain flag answers with the physical plan the kernels
// actually executed, estimated against actual cardinalities; without
// the flag the result carries no plan.
func TestSubmitExplain(t *testing.T) {
	_, addr, st := world(t, "", server.Config{})
	fill(t, st, 1000)
	c := dial(t, addr)

	binds := []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}
	res, err := c.SubmitTMLPlan("sel", selectSrc, binds, false, "", ship.MergeAuto, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Kind != ship.WRel || len(res.Val.Rel.Rows) != 530 {
		t.Fatalf("explain changed the answer: %s", res.Val.Show())
	}
	if !strings.Contains(res.Explain, "select algo=") {
		t.Errorf("no select node in plan:\n%s", res.Explain)
	}
	if !strings.Contains(res.Explain, "act=530") {
		t.Errorf("plan lacks the actual cardinality:\n%s", res.Explain)
	}

	// Without the flag: same answer, no plan, and no capture left armed.
	res, err = c.SubmitTMLPlan("sel2", selectSrc, binds, false, "", ship.MergeAuto, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain != "" {
		t.Errorf("unrequested plan attached:\n%s", res.Explain)
	}
}

// TestSubmitExplainServedAlgorithms pins the physical plans of the
// serving path: a SUBMIT's predicates arrive TAM-compiled, and the plan
// a session reports must name the vector kernels and the cost-based join
// algorithms, not the row-at-a-time fallbacks — a fused column scan for a
// bare comparison, the general vector evaluator for arithmetic, a hash
// join for an unsorted key, a sort-merge join for two sorted ones.
func TestSubmitExplainServedAlgorithms(t *testing.T) {
	_, addr, st := world(t, "", server.Config{})
	fill(t, st, 200)
	c := dial(t, addr)

	binds := []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}
	joinOn := func(l, r int) string {
		return fmt.Sprintf(`(join proc(x !ce !cc)
		  ([] x %d cont(a) ([] x %d cont(b) (== a b cont() (cc true) cont() (cc false))))
		  r r e cont(t) (count t e k))`, l, r)
	}
	for _, q := range []struct {
		name, src, want string
	}{
		{"fused", selectSrc, "select algo=vector-fused "},
		{"general", `(select proc(x !ce !cc)
		  ([] x 1 cont(a) (+ a 1 ce cont(b) (< b 51 cont() (cc true) cont() (cc false))))
		  r e k)`, "select algo=vector "},
		// val = id % 97 is unsorted on the left, id is sorted on the right.
		{"hash", joinOn(1, 2), "join algo=hash "},
		{"merge", joinOn(0, 2), "join algo=merge "},
	} {
		// Compiling request and cache hit must report the same plan.
		for _, wantHit := range []bool{false, true} {
			res, err := c.SubmitTMLPlan("q-"+q.name, q.src, binds, false, "", ship.MergeAuto, true)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			if res.Info.CacheHit != wantHit {
				t.Errorf("%s: cache hit %v, want %v", q.name, res.Info.CacheHit, wantHit)
			}
			if !strings.Contains(res.Explain, q.want) {
				t.Errorf("%s (hit=%v): plan lacks %q:\n%s", q.name, wantHit, q.want, res.Explain)
			}
		}
	}
}

// TestFailedInstallLeavesNothing: served INSTALLs that fail after the
// compiler accepted them — a's constant faults, b fails linking h after
// g was built — leave the store's object count and log as they were; a
// good INSTALL after them adds only its own module, and a restart adds
// nothing.
func TestFailedInstallLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(st, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c := dial(t, ln.Addr().String())
	state := func() (int, int64) {
		t.Helper()
		size, err := st.LogSize()
		if err != nil {
			t.Fatal(err)
		}
		return st.Len(), size
	}
	objects, size := state()
	for _, src := range []string{
		`module a export f, z
		 let z : Int = 1 / 0
		 let f(n : Int) : Int = n + z
		 end`,
		`module b export g, h
		 let g(n : Int) : Int = n * 2
		 let h(n : Int) : Int = a.f(n)
		 end`,
	} {
		if _, err := c.Install(src); err == nil {
			t.Fatalf("install succeeded:\n%s", src)
		}
		if n, sz := state(); n != objects || sz != size {
			t.Fatalf("failed install moved the store from %d objects, %d bytes to %d, %d", objects, size, n, sz)
		}
	}
	if _, err := c.Install(`module c export k let k(n : Int) : Int = n + 1 end`); err != nil {
		t.Fatal(err)
	}
	// The good module is four objects: its closure, the closure's code
	// and PTML blobs, and the module.
	objects += 4
	n, grown := state()
	if n != objects || grown <= size {
		t.Fatalf("good install left %d objects, %d bytes; want %d objects and a longer log than %d bytes", n, grown, objects, size)
	}
	size = grown

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(path); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := server.New(st, server.Config{}); err != nil {
		t.Fatal(err)
	}
	if n, sz := state(); n != objects || sz != size {
		t.Errorf("restart: %d objects, %d bytes; before it %d, %d", n, sz, objects, size)
	}
	for _, name := range []string{"a", "b"} {
		if _, ok := st.Root("module:" + name); ok {
			t.Errorf("failed module %s is installed after a restart", name)
		}
	}
}

// TestOptimizeWritesNothing: OPTIMIZE reads the store and writes nothing
// to it — the commit sequence number and the log stay where they were —
// and a repeated OPTIMIZE is still served from the pipeline cache.
func TestOptimizeWritesNothing(t *testing.T) {
	_, addr, st := world(t, filepath.Join(t.TempDir(), "db.tyst"), server.Config{})
	c := dial(t, addr)
	if _, err := c.Install("module demo export double let double(a : Int) : Int = a * 2 end"); err != nil {
		t.Fatal(err)
	}
	csn := st.CSN()
	size, err := st.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	for i, wantHit := range []bool{false, true} {
		res, err := c.Optimize("demo", "double")
		if err != nil {
			t.Fatal(err)
		}
		if res.Info.CacheHit != wantHit {
			t.Errorf("optimize %d: cache hit %v, want %v", i+1, res.Info.CacheHit, wantHit)
		}
	}
	after, err := st.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	if st.CSN() != csn || after != size {
		t.Errorf("OPTIMIZE moved the store from csn %d, %d bytes to csn %d, %d bytes", csn, size, st.CSN(), after)
	}
}
