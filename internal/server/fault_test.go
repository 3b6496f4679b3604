package server_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/fsck"
	"tycoon/internal/iofault"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// countdownSrc is a terminating recursive application: it counts n down
// to zero through real machine steps, so it occupies the server for a
// measurable while and then finishes — the in-flight work the shutdown
// race and overload tests need.
const countdownSrc = `(proc(f n !ce !cc)
   (< n 1
     cont() (cc n)
     cont() (- n 1 ce cont(m) (f f m ce cc)))
 proc(f n !ce !cc)
   (< n 1
     cont() (cc n)
     cont() (- n 1 ce cont(m) (f f m ce cc)))
 400000 e k)`

// encodePTML parses TML concrete syntax and encodes the tree, so tests
// can build ship.Submit requests with explicit idempotency keys.
func encodePTML(t *testing.T, src string) []byte {
	t.Helper()
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ptml.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// waitInflight polls until the server reports at least n requests
// executing.
func waitInflight(t *testing.T, srv *server.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Inflight < n {
		if time.Now().After(deadline) {
			t.Fatalf("no request went in-flight")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthVerb(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Degraded || h.Draining || h.Sessions != 1 {
		t.Errorf("health = %+v, want ok with one session", h)
	}
}

// TestOverloadShedding saturates a one-slot inflight gate with one
// long-running request: the next submit is refused with CodeOverloaded
// and a retry-after hint before any of it executes, while the cheap
// probes (PING, STATS, HEALTH) bypass the gate so the saturated server
// stays observable. Once the slot frees, submits are served again.
func TestOverloadShedding(t *testing.T) {
	srv, addr, _ := world(t, "", server.Config{
		StepBudget:  1 << 60,
		WallBudget:  time.Second,
		MaxInflight: 1,
	})
	c1 := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c1.SubmitTML("loop", loopSrc, nil, false, "")
		done <- err
	}()
	waitInflight(t, srv, 1)

	c2 := dial(t, addr)
	_, err := c2.SubmitTML("", "(+ 1 2 e cont(n) (k n))", nil, false, "")
	we := wantCode(t, err, ship.CodeOverloaded)
	if we.RetryAfterMs == 0 {
		t.Error("overload refusal carries no retry-after hint")
	}
	if !client.Retryable(we, false) {
		t.Error("overload refusal not classified retryable")
	}
	if err := c2.Ping(); err != nil {
		t.Errorf("ping failed while saturated: %v", err)
	}
	if h, err := c2.Health(); err != nil || h.Status != "ok" {
		t.Errorf("health while saturated: %+v %v", h, err)
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed == 0 {
		t.Error("stats do not count the shed request")
	}

	// The wall budget terminates the hog; then submits flow again.
	wantCode(t, <-done, ship.CodeBudget)
	res, err := c2.SubmitTML("", "(+ 1 2 e cont(n) (k n))", nil, false, "")
	if err != nil || res.Val.Int != 3 {
		t.Fatalf("submit after slot freed: %v %v", res, err)
	}
}

// TestGlobalInflightBound exercises the global gate (MaxInflight) the
// same way.
func TestGlobalInflightBound(t *testing.T) {
	srv, addr, _ := world(t, "", server.Config{
		StepBudget:  1 << 60,
		WallBudget:  time.Second,
		MaxInflight: 1,
	})
	c1 := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c1.SubmitTML("loop", loopSrc, nil, false, "")
		done <- err
	}()
	waitInflight(t, srv, 1)

	c2 := dial(t, addr)
	_, err := c2.SubmitTML("", "(+ 1 2 e cont(n) (k n))", nil, false, "")
	wantCode(t, err, ship.CodeOverloaded)
	if err := c2.Ping(); err != nil {
		t.Errorf("ping failed while saturated: %v", err)
	}
	wantCode(t, <-done, ship.CodeBudget)
}

// TestDegradedPerWriter fails a store commit under a live server: the
// failing writer gets a typed CodeDegraded answer and the advisory mode
// latches, while reads, pure execution and — the per-writer granularity
// the MVCC store buys — other writers keep working. The next successful
// commit flushes the failed writer's backlog along with its own records
// and heals the mode; ClearDegraded remains the operator probe for when
// no writer happens to come along.
func TestDegradedPerWriter(t *testing.T) {
	inj := iofault.NewInjector(11)
	fsys := iofault.NewMemFS(inj)
	st, err := store.OpenFS(fsys, "deg.tyst")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := server.New(st, server.Config{})
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
	c := dial(t, ln.Addr().String())

	// A healthy write first: commits work.
	if _, err := c.SubmitTML("", "(+ 1 2 e cont(n) (k n))", nil, false, "first"); err != nil {
		t.Fatal(err)
	}

	// Fail the next commit's sync: the save is answered with CodeDegraded
	// and the advisory mode latches.
	inj.FailSyncAt(inj.Ops() + 1)
	_, err = c.SubmitTML("", "(+ 2 3 e cont(n) (k n))", nil, false, "second")
	wantCode(t, err, ship.CodeDegraded)

	// Reads and pure execution keep working.
	if err := c.Ping(); err != nil {
		t.Errorf("ping in degraded mode: %v", err)
	}
	res, err := c.SubmitTML("", "(+ 20 22 e cont(n) (k n))", nil, false, "")
	if err != nil || res.Val.Int != 42 {
		t.Fatalf("pure submit in degraded mode: %v %v", res, err)
	}
	if _, err := c.Call("", "first"); err != nil {
		t.Errorf("call of a saved closure in degraded mode: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded || stats.DegradedReason == "" {
		t.Errorf("stats do not report the mode: %+v", stats)
	}
	if stats.Store == nil || stats.Store.FlushErr == "" || stats.Store.Backlog == 0 {
		t.Errorf("stats carry no store backlog: %+v", stats.Store)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !h.Degraded {
		t.Errorf("health = %+v, want degraded", h)
	}

	// Per-writer granularity: the mode refuses nothing up front. The next
	// writer commits on its own terms — the sync fault was transient, so
	// its flush succeeds, carries the failed writer's backlog to disk and
	// heals the mode.
	if _, err := c.Install("module m2 export f let f(a : Int) : Int = a end"); err != nil {
		t.Fatalf("install while degraded (writers are independent): %v", err)
	}
	if h, err := c.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("health after a successful writer: %+v %v", h, err)
	}
	// The backlogged save was flushed along the way: "second" is durable
	// and callable.
	if res, err := c.Call("", "second"); err != nil || res.Val.Int != 5 {
		t.Errorf("backlogged save not applied after heal: %v %v", res, err)
	}

	// Second episode: latch again, then heal via the operator probe.
	inj.FailSyncAt(inj.Ops() + 1)
	_, err = c.SubmitTML("", "(+ 4 5 e cont(n) (k n))", nil, false, "third")
	wantCode(t, err, ship.CodeDegraded)
	if err := srv.ClearDegraded(); err != nil {
		t.Fatalf("clear degraded: %v", err)
	}
	if h, err := c.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("health after clear: %+v %v", h, err)
	}
	if res, err := c.Call("", "third"); err != nil || res.Val.Int != 9 {
		t.Errorf("backlogged save not applied after probe heal: %v %v", res, err)
	}
	if _, err := c.SubmitTML("", "(+ 6 7 e cont(n) (k n))", nil, false, "fourth"); err != nil {
		t.Errorf("write after heal: %v", err)
	}
}

// TestConflictAbortsRetryable races two sessions writing the same array
// slot: the slow writer opened its snapshot first but commits second, so
// first-committer-wins aborts it with the retryable CodeConflict —
// nothing of the loser applies — and a client retry (fresh snapshot)
// succeeds.
func TestConflictAbortsRetryable(t *testing.T) {
	srv, addr, st := world(t, "", server.Config{StepBudget: 1 << 60})
	oid := st.Alloc(&store.Array{Elems: []store.Val{store.IntVal(0)}})
	st.SetRoot("arr", oid)
	binds := []ship.WBind{{Name: "a", Val: ship.WVal{Kind: ship.WRoot, Str: "arr"}}}

	// The slow writer stores 1 into the slot, then burns a long countdown
	// before its transaction commits.
	slowSrc := `([:=] a 0 1 cont(u)
	  (proc(f n !ce !cc)
	     (< n 1 cont() (cc n) cont() (- n 1 ce cont(m) (f f m ce cc)))
	   proc(f n !ce !cc)
	     (< n 1 cont() (cc n) cont() (- n 1 ce cont(m) (f f m ce cc)))
	   5000000 e k))`
	slow := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := slow.SubmitTML("slow-write", slowSrc, binds, false, "")
		done <- err
	}()
	waitInflight(t, srv, 1)

	// The fast writer commits 2 while the slow one is still counting.
	fast := dial(t, addr)
	if _, err := fast.SubmitTML("", "([:=] a 0 2 cont(u) (k u))", binds, false, ""); err != nil {
		t.Fatalf("fast writer: %v", err)
	}

	err := <-done
	we := wantCode(t, err, ship.CodeConflict)
	if !client.Retryable(we, false) {
		t.Error("conflict abort not classified retryable")
	}
	// First committer won; the loser applied nothing.
	if got := st.MustGet(oid).(*store.Array).Elems[0].Int; got != 2 {
		t.Errorf("slot = %d, want the fast writer's 2", got)
	}
	stats := srv.Stats()
	if stats.Store == nil || stats.Store.Conflicts == 0 {
		t.Errorf("stats count no conflict: %+v", stats.Store)
	}

	// A retry re-executes against a fresh snapshot and wins.
	if _, err := slow.SubmitTML("", "([:=] a 0 3 cont(u) (k u))", binds, false, ""); err != nil {
		t.Fatalf("retry after conflict: %v", err)
	}
	if got := st.MustGet(oid).(*store.Array).Elems[0].Int; got != 3 {
		t.Errorf("slot after retry = %d, want 3", got)
	}
}

// TestIdempotentSubmitAppliesOnce pins the dedup contract: the same
// idempotency key and term resubmitted — the wire shape of a retry after
// a lost response — is answered from the record, not executed again.
func TestIdempotentSubmitAppliesOnce(t *testing.T) {
	srv, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)
	req := &ship.Submit{
		Name:    "dup",
		PTML:    encodePTML(t, "(+ 40 2 e cont(n) (k n))"),
		Save:    "dup",
		IdemKey: "tester-1",
	}
	res1, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Val.Int != 42 || res2.Val.Int != 42 {
		t.Fatalf("results: %s, %s", res1.Val.Show(), res2.Val.Show())
	}
	st := srv.Stats()
	if st.IdemApplied != 1 || st.IdemDeduped != 1 {
		t.Errorf("applied=%d deduped=%d, want 1 and 1", st.IdemApplied, st.IdemDeduped)
	}

	// The same key with a different term is a different request, never a
	// false dedup hit.
	res3, err := c.Submit(&ship.Submit{
		PTML:    encodePTML(t, "(+ 1 2 e cont(n) (k n))"),
		IdemKey: "tester-1",
	})
	if err != nil || res3.Val.Int != 3 {
		t.Fatalf("same key, new term: %v %v", res3, err)
	}

	// Keyed installs dedup the same way.
	ireq := &ship.Install{
		Source:  "module dedup export f let f(a : Int) : Int = a * 3 end",
		IdemKey: "tester-install-1",
	}
	for i := 0; i < 2; i++ {
		if _, err := c.InstallReq(ireq); err != nil {
			t.Fatalf("keyed install %d: %v", i, err)
		}
	}
	st = srv.Stats()
	if st.IdemDeduped != 2 {
		t.Errorf("after repeated install: deduped=%d, want 2", st.IdemDeduped)
	}
}

// TestConcurrentDuplicatesCollapse races N sessions submitting the same
// keyed request: followers of the in-flight leader wait for its outcome
// instead of executing in parallel, so the request applies exactly once.
func TestConcurrentDuplicatesCollapse(t *testing.T) {
	srv, addr, _ := world(t, "", server.Config{})
	data := encodePTML(t, "(+ 3 4 e cont(n) (k n))")
	const dups = 8
	var wg sync.WaitGroup
	errs := make(chan error, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{
				Timeout: 30 * time.Second,
				Client:  fmt.Sprintf("dup-%d", i),
			})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			res, err := c.Submit(&ship.Submit{PTML: data, Save: "dupc", IdemKey: "shared"})
			if err != nil {
				errs <- err
				return
			}
			if res.Val.Int != 7 {
				errs <- fmt.Errorf("duplicate %d: %s", i, res.Val.Show())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	if st.IdemApplied != 1 || st.IdemDeduped != dups-1 {
		t.Errorf("applied=%d deduped=%d, want 1 and %d", st.IdemApplied, st.IdemDeduped, dups-1)
	}
}

// TestDedupRecordsOnlyEffects pins the record-on-effect contract: a
// keyed submit that mutates the store through a writer primitive is
// recorded — its retry is answered from the record, never re-executed —
// while a keyed effect-free read leaves no record and a retry simply
// runs the read again. The distinction is what keeps the idempotency
// table from pinning large query results in memory while still making
// every durable effect exactly-once.
func TestDedupRecordsOnlyEffects(t *testing.T) {
	srv, addr, st := world(t, "", server.Config{})
	oid := st.Alloc(&store.Array{Elems: []store.Val{store.IntVal(0)}})
	st.SetRoot("arr", oid)
	c := dial(t, addr)
	binds := []ship.WBind{{Name: "a", Val: ship.WVal{Kind: ship.WRoot, Str: "arr"}}}

	// A keyed increment: re-execution would observably double-apply.
	incReq := func(key string) *ship.Submit {
		return &ship.Submit{
			PTML: encodePTML(t,
				"([] a 0 cont(v) (+ v 1 e cont(w) ([:=] a 0 w cont(u) (k w))))"),
			Binds:   binds,
			IdemKey: key,
		}
	}
	base := srv.Stats()
	for i := 0; i < 2; i++ {
		res, err := c.Submit(incReq("inc-1"))
		if err != nil {
			t.Fatalf("keyed increment %d: %v", i, err)
		}
		if res.Val.Int != 1 {
			t.Fatalf("keyed increment %d answered %s, want 1 (a retry re-executed)", i, res.Val.Show())
		}
	}
	after := srv.Stats()
	if a, d := after.IdemApplied-base.IdemApplied, after.IdemDeduped-base.IdemDeduped; a != 1 || d != 1 {
		t.Errorf("mutating submit: applied+%d deduped+%d, want 1 and 1", a, d)
	}
	if arr := st.MustGet(oid).(*store.Array); arr.Elems[0].Int != 1 {
		t.Errorf("array slot = %d, want 1 (increment applied twice)", arr.Elems[0].Int)
	}

	// A keyed pure read: executed every time, never retained.
	base = after
	for i := 0; i < 2; i++ {
		res, err := c.Submit(&ship.Submit{
			PTML:    encodePTML(t, "([] a 0 cont(v) (k v))"),
			Binds:   binds,
			IdemKey: "read-1",
		})
		if err != nil {
			t.Fatalf("keyed read %d: %v", i, err)
		}
		if res.Val.Int != 1 {
			t.Fatalf("keyed read %d = %s, want 1", i, res.Val.Show())
		}
	}
	after = srv.Stats()
	if a, d := after.IdemApplied-base.IdemApplied, after.IdemDeduped-base.IdemDeduped; a != 0 || d != 0 {
		t.Errorf("pure read: applied+%d deduped+%d, want 0 and 0 (reads must not be recorded)", a, d)
	}
}

// TestShutdownRacesInflightSubmit starts a saving submit, waits until it
// is executing, then shuts the server down: the request must either
// complete (response delivered, save durable) or be refused with a
// retryable drain error — never hang, never leave a half-applied save.
func TestShutdownRacesInflightSubmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.tyst")
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

	c, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *ship.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.SubmitTML("race", countdownSrc, nil, false, "raced")
		done <- outcome{res, err}
	}()
	waitInflight(t, srv, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown alongside in-flight submit: %v", err)
	}

	var out outcome
	select {
	case out = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("submit never resolved across the shutdown")
	}
	c.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	saved := false
	{
		st2, err := store.Open(path)
		if err != nil {
			t.Fatalf("store did not reopen after the race: %v", err)
		}
		_, saved = st2.Root(ship.SavedRoot + "raced")
		st2.Close()
	}
	if out.err == nil {
		if out.res.Val.Kind != ship.WInt || out.res.Val.Int != 0 {
			t.Errorf("raced submit answered %s, want 0", out.res.Val.Show())
		}
		if !saved {
			t.Error("acked save lost across shutdown")
		}
	} else {
		// A refusal must be the retryable drain error, and then the save
		// must not have been half-applied.
		we := wantCode(t, out.err, ship.CodeShutdown)
		if !client.Retryable(we, false) {
			t.Error("drain refusal not classified retryable")
		}
		if saved {
			t.Error("refused submit left its save applied")
		}
	}

	rep, err := fsck.CheckPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("store not fsck-clean after the race: %v", rep.Findings)
	}
}

// TestOversizedResultAnswered: a result whose encoded body would exceed
// the frame limit is refused as a definitive bad-request on a session
// that stays open. Written as is, the client's ReadFrame would reject the
// frame, drop the connection and — the submit being keyed — re-execute
// the whole query once per retry before failing as a protocol error.
func TestOversizedResultAnswered(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c, err := client.Dial(addr, client.Options{Timeout: 30 * time.Second, Client: t.Name(),
		Retries: 2, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Four doublings of a 17/16 MiB string: a 17 MiB WStr result.
	seed := strings.Repeat("x", 17<<20/16)
	_, err = c.SubmitTML("big", `(s+ s s cont(a) (s+ a a cont(b) (s+ b b cont(d) (s+ d d cont(r) (k r)))))`,
		[]ship.WBind{{Name: "s", Val: ship.WVal{Kind: ship.WStr, Str: seed}}}, false, "")
	we := wantCode(t, err, ship.CodeBadRequest)
	want := fmt.Sprintf("result of %d bytes exceeds the frame limit of %d", 1+4+17<<20+33, ship.MaxFrameBody)
	if we.Msg != want {
		t.Errorf("refusal %q, want %q", we.Msg, want)
	}
	if ctr := c.Counters(); ctr.Retries != 0 || ctr.Reconnects != 0 {
		t.Errorf("oversized result was retried: %+v", ctr)
	}
	// The session survives the refusal.
	res, err := c.SubmitTML("", "(+ 40 2 e cont(n) (k n))", nil, false, "")
	if err != nil || res.Val.Int != 42 {
		t.Fatalf("submit after the refusal: %v %v", res, err)
	}
	if ctr := c.Counters(); ctr.Reconnects != 0 {
		t.Errorf("the refusal closed the session: %+v", ctr)
	}
}
