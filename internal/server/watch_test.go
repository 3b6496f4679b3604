package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/netfault"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// saveN commits one root srv:<name> through a saving submit.
func saveN(t *testing.T, c *client.Client, name string, v int64) {
	t.Helper()
	src := fmt.Sprintf("(+ %d 2 e cont(n) (k n))", v)
	if _, err := c.SubmitTML(name, src, nil, false, name); err != nil {
		t.Fatalf("save %s: %v", name, err)
	}
}

// TestWatchDelivery: a subscriber sees every committed matching root
// change exactly once, in CSN order, with the OID the root now binds —
// and nothing for non-matching roots.
func TestWatchDelivery(t *testing.T) {
	_, addr, st := world(t, filepath.Join(t.TempDir(), "w.tyst"), server.Config{})
	c := dial(t, addr)

	w, err := client.NewWatcher(addr, []string{"srv:del-*"}, 0, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer w.Close()

	// A non-matching commit (module install rebinds module:*) must not
	// arrive; matching saves must, in commit order.
	if _, err := c.Install("module delm export id let id(a : Int) : Int = a end"); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		saveN(t, c, fmt.Sprintf("del-%d", i), int64(i))
	}

	var last uint64
	for i := 0; i < n; i++ {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		want := fmt.Sprintf("srv:del-%d", i)
		if ev.Root != want {
			t.Fatalf("event %d: root %q, want %q", i, ev.Root, want)
		}
		if ev.CSN <= last {
			t.Fatalf("event %d: CSN %d not after %d", i, ev.CSN, last)
		}
		if ev.More {
			t.Fatalf("event %d: single-root commit flagged More", i)
		}
		if oid, ok := st.Root(ev.Root); !ok || uint64(oid) != ev.OID {
			t.Fatalf("event %d: OID 0x%x, store has 0x%x (ok=%t)", i, ev.OID, uint64(oid), ok)
		}
		last = ev.CSN
	}
	if got := w.Pos(); got != last {
		t.Fatalf("Pos() = %d after full delivery, want %d", got, last)
	}
}

// TestWatchResumeAcrossReconnect forces a mid-stream disconnect with a
// fault proxy and checks the exactly-once contract: every committed
// matching change is observed once, in CSN order, across the resume.
func TestWatchResumeAcrossReconnect(t *testing.T) {
	_, addr, _ := world(t, filepath.Join(t.TempDir(), "w.tyst"), server.Config{})
	c := dial(t, addr)

	px, err := netfault.NewProxy(addr, netfault.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	w, err := client.NewWatcher(px.Addr(), []string{"srv:rec-*"}, 0, client.Options{
		Timeout: 30 * time.Second, Retries: 10, Seed: 11,
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer w.Close()

	const n = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			src := fmt.Sprintf("(+ %d 2 e cont(n) (k n))", i)
			name := fmt.Sprintf("rec-%03d", i)
			if _, err := c.SubmitTML(name, src, nil, false, name); err != nil {
				t.Errorf("save %s: %v", name, err)
				return
			}
		}
	}()

	var last uint64
	for i := 0; i < n; i++ {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		want := fmt.Sprintf("srv:rec-%03d", i)
		if ev.Root != want {
			t.Fatalf("event %d: root %q, want %q (duplicate or gap)", i, ev.Root, want)
		}
		if ev.CSN <= last {
			t.Fatalf("event %d: CSN %d not after %d", i, ev.CSN, last)
		}
		last = ev.CSN
		if i == n/3 {
			px.DropAll() // sever the stream mid-flight; the watcher resumes
		}
	}
	<-done
	if w.Resumes() == 0 {
		t.Fatal("stream was never severed: the reconnect path went untested")
	}
}

// TestWatchUntornGroupCommit: a transaction rebinding several roots is
// delivered as one contiguous batch at one CSN — More chains all but
// the last change — even with many committers racing.
func TestWatchUntornGroupCommit(t *testing.T) {
	srv, addr, st := world(t, filepath.Join(t.TempDir(), "w.tyst"), server.Config{})
	_ = srv

	w, err := client.NewWatcher(addr, []string{"pair:*"}, 0, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer w.Close()

	const workers, commits = 4, 8
	for g := 0; g < workers; g++ {
		go func(g int) {
			for i := 0; i < commits; i++ {
				txn := st.Begin()
				a := txn.Alloc(&store.Blob{Bytes: []byte{byte(g), byte(i), 'a'}})
				b := txn.Alloc(&store.Blob{Bytes: []byte{byte(g), byte(i), 'b'}})
				txn.SetRoot(fmt.Sprintf("pair:%d:%d:a", g, i), a)
				txn.SetRoot(fmt.Sprintf("pair:%d:%d:b", g, i), b)
				// Unique roots over fresh allocations are conflict-free.
				if err := txn.Commit(); err != nil {
					t.Errorf("pair commit %d/%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}

	var lastCSN uint64
	for i := 0; i < workers*commits; i++ {
		first, err := w.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !first.More {
			t.Fatalf("batch %d: first change %q does not chain its pair", i, first.Root)
		}
		second, err := w.Next()
		if err != nil {
			t.Fatalf("batch %d second: %v", i, err)
		}
		if second.More {
			t.Fatalf("batch %d: trailing change %q claims more follow", i, second.Root)
		}
		if first.CSN != second.CSN {
			t.Fatalf("batch %d torn across CSNs %d and %d", i, first.CSN, second.CSN)
		}
		if first.CSN <= lastCSN {
			t.Fatalf("batch %d: CSN %d not after %d", i, first.CSN, lastCSN)
		}
		lastCSN = first.CSN
		// The two roots of one commit share the "pair:g:i:" prefix.
		if first.Root[:len(first.Root)-1] != second.Root[:len(second.Root)-1] {
			t.Fatalf("batch %d interleaved: %q then %q", i, first.Root, second.Root)
		}
	}
}

// TestWatchSlowSubscriberDropped: a subscriber that cannot keep up is
// terminated with a retryable overloaded error instead of holding event
// memory for everyone.
func TestWatchSlowSubscriberDropped(t *testing.T) {
	_, addr, st := world(t, filepath.Join(t.TempDir(), "w.tyst"), server.Config{WatchQueue: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ship.WriteFrame(conn, ship.VHello, (&ship.Hello{Version: ship.ProtoVersion, Client: "slow"}).Encode()))
	verb, _, err := ship.ReadFrame(conn, 0)
	must(err)
	if verb != ship.VWelcome {
		t.Fatalf("got %s, want welcome", verb)
	}
	must(ship.WriteFrame(conn, ship.VWatch, (&ship.Watch{Patterns: []string{"slow:*"}}).Encode()))
	verb, _, err = ship.ReadFrame(conn, 0)
	must(err)
	if verb != ship.VWatchOK {
		t.Fatalf("got %s, want watch-ok", verb)
	}

	// One commit rebinding three roots overflows the 1-slot queue
	// atomically under the hub lock: deterministic drop.
	txn := st.Begin()
	for i := 0; i < 3; i++ {
		oid := txn.Alloc(&store.Blob{Bytes: []byte{byte(i)}})
		txn.SetRoot(fmt.Sprintf("slow:%d", i), oid)
	}
	must(txn.Commit())

	for {
		verb, body, err := ship.ReadFrame(conn, 0)
		must(err)
		if verb == ship.VNotify {
			continue // anything flushed before the drop
		}
		if verb != ship.VError {
			t.Fatalf("got %s, want error", verb)
		}
		we, err := ship.DecodeWireError(body)
		must(err)
		if we.Code != ship.CodeOverloaded {
			t.Fatalf("dropped with %s, want overloaded", we.Code)
		}
		break
	}
}

// TestWatchResumeHorizonLost: a resume below the retained backlog is
// refused with a definitive bad-request, so the client knows to start
// fresh instead of assuming a gapless stream.
func TestWatchResumeHorizonLost(t *testing.T) {
	_, addr, st := world(t, filepath.Join(t.TempDir(), "w.tyst"), server.Config{WatchBacklog: 4})
	for i := 0; i < 12; i++ {
		write(t, st, func(tx *store.Txn) {
			tx.SetRoot(fmt.Sprintf("old:%d", i), tx.Alloc(&store.Blob{Bytes: []byte{byte(i)}}))
		})
	}
	_, err := client.NewWatcher(addr, []string{"*"}, 1, client.Options{Timeout: 30 * time.Second})
	if err == nil {
		t.Fatal("resume from CSN 1 accepted despite evicted backlog")
	}
	var we *ship.WireError
	if !errors.As(err, &we) || we.Code != ship.CodeBadRequest {
		t.Fatalf("got %v, want bad-request", err)
	}
}

// TestWatchDrain: Shutdown terminates a connected subscriber with a
// shutdown error and completes without waiting on it.
func TestWatchDrain(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "w.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := server.New(st, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	w, err := client.NewWatcher(ln.Addr().String(), []string{"*"}, 0, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer w.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := w.Next()
		errc <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain the watch session: %v", err)
	}
	select {
	case err := <-errc:
		var we *ship.WireError
		if !errors.As(err, &we) || we.Code != ship.CodeShutdown {
			t.Fatalf("watcher ended with %v, want shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watcher still blocked after drain")
	}
}

// TestWatchBadPatterns: a subscription without patterns (or with an
// empty one) is a definitive bad-request.
func TestWatchBadPatterns(t *testing.T) {
	_, addr, _ := world(t, filepath.Join(t.TempDir(), "w.tyst"), server.Config{})
	for _, pats := range [][]string{nil, {""}} {
		_, err := client.NewWatcher(addr, pats, 0, client.Options{Timeout: 30 * time.Second})
		var we *ship.WireError
		if !errors.As(err, &we) || we.Code != ship.CodeBadRequest {
			t.Fatalf("patterns %q: got %v, want bad-request", pats, err)
		}
	}
}
