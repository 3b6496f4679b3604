package server_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// countingFn builds a Dedup.Do body that counts executions and returns
// a distinguishable result per key.
func countingFn(execs *int, val int64, record bool) func() (*ship.Result, *ship.WireError, bool) {
	return func() (*ship.Result, *ship.WireError, bool) {
		*execs++
		return &ship.Result{Val: ship.WVal{Kind: ship.WInt, Int: val}}, nil, record
	}
}

// TestDedupLRUEvictionOrder pins the table's recency contract: hits
// refresh an entry, eviction takes the least recently used one, and a
// retry of an evicted key re-executes instead of false-hitting.
func TestDedupLRUEvictionOrder(t *testing.T) {
	d := server.NewDedup(2)
	execs := map[string]int{}
	run := func(key string, val int64) *ship.Result {
		t.Helper()
		n := execs[key]
		res, werr := d.Do(key, func() (*ship.Result, *ship.WireError, bool) {
			execs[key] = n + 1
			return &ship.Result{Val: ship.WVal{Kind: ship.WInt, Int: val}}, nil, true
		})
		if werr != nil {
			t.Fatalf("Do(%s): %v", key, werr)
		}
		return res
	}

	run("a", 1)
	run("b", 2)
	// Touch a: it becomes most recent, so the next insert must evict b.
	if res := run("a", 99); res.Val.Int != 1 {
		t.Fatalf("retry of a executed again: got %d, want recorded 1", res.Val.Int)
	}
	run("c", 3)

	// a survived the eviction (it was refreshed), b did not.
	if res := run("a", 99); res.Val.Int != 1 || execs["a"] != 1 {
		t.Errorf("a was evicted out of order: res %d, execs %d", res.Val.Int, execs["a"])
	}
	if res := run("b", 22); res.Val.Int != 22 || execs["b"] != 2 {
		t.Errorf("evicted b did not re-execute: res %d, execs %d", res.Val.Int, execs["b"])
	}
	applied, deduped := d.Counters()
	// a, b, c, b-again were recorded; a was answered twice from record.
	if applied != 4 || deduped != 2 {
		t.Errorf("counters applied %d deduped %d, want 4/2", applied, deduped)
	}
}

// TestDedupRetentionRules pins what is NOT recorded: effect-free
// executions (record=false) and failed executions both leave the key
// retryable.
func TestDedupRetentionRules(t *testing.T) {
	d := server.NewDedup(0)

	reads := 0
	for i := 0; i < 2; i++ {
		if _, werr := d.Do("read", countingFn(&reads, 7, false)); werr != nil {
			t.Fatal(werr)
		}
	}
	if reads != 2 {
		t.Errorf("effect-free key executed %d times, want 2 (never retained)", reads)
	}

	fails := 0
	boom := &ship.WireError{Code: ship.CodeInternal, Msg: "boom"}
	if _, werr := d.Do("flaky", func() (*ship.Result, *ship.WireError, bool) {
		fails++
		return nil, boom, true
	}); werr != boom {
		t.Fatalf("failed execution returned %v", werr)
	}
	// The failure was not recorded: the retry executes and can succeed.
	res, werr := d.Do("flaky", countingFn(&fails, 42, true))
	if werr != nil || res.Val.Int != 42 || fails != 2 {
		t.Errorf("retry after failure: res %v err %v fails %d", res, werr, fails)
	}

	applied, deduped := d.Counters()
	if applied != 1 || deduped != 0 {
		t.Errorf("counters applied %d deduped %d, want 1/0", applied, deduped)
	}
}

// TestDedupCollapsesConcurrentDuplicates races followers against an
// executing leader: exactly one execution happens, every caller gets the
// leader's result, and when a leader FAILS a waiting follower takes over
// instead of surfacing the stale error.
func TestDedupCollapsesConcurrentDuplicates(t *testing.T) {
	d := server.NewDedup(0)
	gate := make(chan struct{})
	var execs int64 // guarded by Dedup's leader election: only leaders touch it

	const followers = 8
	results := make(chan int64, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, werr := d.Do("hot", func() (*ship.Result, *ship.WireError, bool) {
				<-gate
				execs++
				return &ship.Result{Val: ship.WVal{Kind: ship.WInt, Int: 42}}, nil, true
			})
			if werr != nil {
				t.Errorf("Do: %v", werr)
				return
			}
			results <- res.Val.Int
		}()
	}
	// Let every goroutine reach the table before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 42 {
			t.Errorf("a caller got %d, want the leader's 42", v)
		}
	}
	if execs != 1 {
		t.Errorf("executed %d times under %d concurrent duplicates, want 1", execs, followers+1)
	}

	// Leader failure: the leader's caller gets the error, but the
	// waiting follower re-checks, finds no record, takes over as the new
	// leader and succeeds — a failed leader never poisons the key.
	fail := make(chan struct{})
	var calls atomic.Int64
	attempt := func() (*ship.Result, *ship.WireError, bool) {
		if calls.Add(1) == 1 {
			<-fail
			return nil, &ship.WireError{Code: ship.CodeInternal, Msg: "leader died"}, true
		}
		return &ship.Result{Val: ship.WVal{Kind: ship.WInt, Int: 7}}, nil, true
	}
	leaderErr := make(chan *ship.WireError, 1)
	go func() {
		_, werr := d.Do("retry", attempt)
		leaderErr <- werr
	}()
	time.Sleep(10 * time.Millisecond) // let the leader claim the key
	followerRes := make(chan int64, 1)
	go func() {
		res, werr := d.Do("retry", attempt)
		if werr != nil {
			t.Errorf("follower after failed leader: %v", werr)
			followerRes <- -1
			return
		}
		followerRes <- res.Val.Int
	}()
	time.Sleep(10 * time.Millisecond) // let the follower queue behind it
	close(fail)
	select {
	case werr := <-leaderErr:
		if werr == nil || werr.Code != ship.CodeInternal {
			t.Errorf("leader error = %v, want its own CodeInternal", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader never completed")
	}
	select {
	case v := <-followerRes:
		if v != 7 && v != -1 {
			t.Errorf("takeover result %d, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed after leader failure")
	}
}

// restartable is a server world whose process can be cycled: the store
// and dedup table persist, the server incarnation does not — the shape
// of a tycd restart where Config.Dedup carries the record table across.
type restartable struct {
	t     *testing.T
	st    *store.Store
	dedup *server.Dedup
	srv   *server.Server
	ln    net.Listener
}

func (w *restartable) start() string {
	w.t.Helper()
	srv, err := server.New(w.st, server.Config{Dedup: w.dedup})
	if err != nil {
		w.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.t.Fatal(err)
	}
	go srv.Serve(ln)
	w.srv, w.ln = srv, ln
	return ln.Addr().String()
}

func (w *restartable) stop() {
	w.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		w.t.Fatalf("shutdown: %v", err)
	}
}

// TestDedupEvictionSurvivesRestart is the restart-persistence contract:
// with the record table passed through server.Config.Dedup across a
// drain/restart, a retried key that is STILL recorded false-hits (no
// re-execution), while a key evicted before the restart re-executes —
// it must not be answered from a record that no longer exists.
func TestDedupEvictionSurvivesRestart(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	w := &restartable{t: t, st: st, dedup: server.NewDedup(2)}
	addr := w.start()
	c := dial(t, addr)

	submit := func(c *client.Client, key, save string, n int64) *ship.Result {
		t.Helper()
		res, err := c.Submit(&ship.Submit{
			PTML:    encodePTML(t, fmt.Sprintf("(+ %d 2 e cont(n) (k n))", n)),
			Save:    save,
			IdemKey: key,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", key, err)
		}
		return res
	}

	// Record "first", then push it out of the cap-2 table.
	if res := submit(c, "key-first", "first", 40); res.Val.Int != 42 {
		t.Fatalf("first = %v", res.Val)
	}
	submit(c, "key-second", "second", 50)
	submit(c, "key-third", "third", 60)
	applied, deduped := w.dedup.Counters()
	if applied != 3 || deduped != 0 {
		t.Fatalf("before restart: applied %d deduped %d, want 3/0", applied, deduped)
	}

	// Cycle the server process. The store and the dedup table survive;
	// sessions and everything else do not.
	c.Close()
	w.stop()
	addr = w.start()
	c2 := dial(t, addr)

	// A still-recorded key retried through the new incarnation is
	// answered from the record: deduped ticks, applied does not.
	if res := submit(c2, "key-third", "third", 60); res.Val.Int != 62 {
		t.Errorf("recorded retry = %v", res.Val)
	}
	applied, deduped = w.dedup.Counters()
	if applied != 3 || deduped != 1 {
		t.Errorf("recorded retry: applied %d deduped %d, want 3/1", applied, deduped)
	}

	// The evicted key must re-execute — a false hit here would answer
	// with another request's record or stale state.
	if res := submit(c2, "key-first", "first", 40); res.Val.Int != 42 {
		t.Errorf("evicted retry = %v", res.Val)
	}
	applied, deduped = w.dedup.Counters()
	if applied != 4 || deduped != 1 {
		t.Errorf("evicted retry: applied %d deduped %d, want 4/1 (re-executed, not false-hit)", applied, deduped)
	}
	w.stop()
}

// TestDedupReleasedOnPanic: a keyed execution that panics must not
// wedge its key. A duplicate waiting on it returns (it re-checks the
// unrecorded key and runs as the next leader), and a later retry runs
// and is recorded.
func TestDedupReleasedOnPanic(t *testing.T) {
	d := server.NewDedup(0)
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		d.Do("k", func() (*ship.Result, *ship.WireError, bool) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	var waiterExecs int
	waiter := make(chan *ship.Result, 1)
	go func() {
		res, _ := d.Do("k", countingFn(&waiterExecs, 1, false))
		waiter <- res
	}()
	// Only makes the in-flight case likely; either order must return.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v, want the panic to reach its caller", p)
	}
	select {
	case res := <-waiter:
		if res == nil || res.Val.Int != 1 || waiterExecs != 1 {
			t.Errorf("duplicate: res %v, execs %d; want it to run once as the next leader", res, waiterExecs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a duplicate of the panicked key is still blocked")
	}

	var execs int
	for i := 0; i < 2; i++ {
		res, werr := d.Do("k", countingFn(&execs, 2, true))
		if werr != nil || res.Val.Int != 2 {
			t.Fatalf("retry %d: %v %v", i, res, werr)
		}
	}
	if execs != 1 {
		t.Errorf("retry after the panic executed %d times, want once then recorded", execs)
	}
}
