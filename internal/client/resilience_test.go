package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/netfault"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// startServer runs a tycd instance over a fresh in-memory store.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	st, err := store.Open("")
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
	return srv, ln.Addr().String()
}

// TestHalfReadConnectionDropped is the regression test for the
// half-read fix: a response that fails to decode must poison the
// connection. The fake server answers the first request with garbage;
// if the client kept the connection, the next request would read the
// rest of the garbage instead of a fresh frame.
func TestHalfReadConnectionDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// First connection: handshake, then garbage for the request.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fakeHandshake(conn)
		ship.ReadFrame(conn, 0) // the ping
		conn.Write([]byte("GARBAGEGARBAGEGARBAGEGARBAGE"))
		// Leave the connection open: only a client that dropped it will
		// come back on a fresh one.
		defer conn.Close()

		// Second connection: a well-behaved server.
		conn2, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn2.Close()
		fakeHandshake(conn2)
		if v, _, err := ship.ReadFrame(conn2, 0); err == nil && v == ship.VPing {
			ship.WriteFrame(conn2, ship.VPong, nil)
		}
		io.Copy(io.Discard, conn2)
	}()

	c, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping()
	if err == nil {
		t.Fatal("garbage response decoded as pong")
	}
	if !errors.Is(err, ship.ErrFrame) {
		t.Fatalf("garbage response error = %v, want a frame error", err)
	}
	if client.Classify(err) != client.ClassProtocol {
		t.Errorf("classified %v, want protocol", client.Classify(err))
	}
	// The poisoned connection was dropped: this ping reconnects and is
	// served cleanly by the second accept.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after poisoned connection: %v", err)
	}
}

func fakeHandshake(conn net.Conn) {
	if v, _, err := ship.ReadFrame(conn, 0); err != nil || v != ship.VHello {
		return
	}
	ship.WriteFrame(conn, ship.VWelcome,
		(&ship.Welcome{Version: ship.ProtoVersion, Server: "fake", Session: 1}).Encode())
}

// TestRetryThroughTruncation drives idempotent requests through a
// proxy that truncates mid-frame: every request must eventually
// succeed via reconnect-and-retry, and the fault mix must have forced
// at least one retry for the test to mean anything.
func TestRetryThroughTruncation(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	p, err := netfault.NewProxy(addr, netfault.Config{
		Seed:         77,
		TruncateProb: 0.08,
		ResetProb:    0.04,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := client.Dial(p.Addr(), client.Options{
		Timeout:   5 * time.Second,
		Retries:   16,
		RetryBase: time.Millisecond,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d through faults: %v", i, err)
		}
		if _, err := c.Stats(); err != nil {
			t.Fatalf("stats %d through faults: %v", i, err)
		}
	}
	if c.Retries() == 0 {
		t.Error("fault mix never forced a retry; raise the probabilities")
	}
	if st := p.Stats(); st.Truncations == 0 {
		t.Errorf("no truncation fired: %+v", st)
	}
}

// TestKeyedSubmitRetriesApplyOnce runs saving submits through the fault
// proxy with retries enabled: every acked save must exist, and the
// dedup counters must show retries were answered from the record
// rather than re-executed whenever they fired.
func TestKeyedSubmitRetriesApplyOnce(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	p, err := netfault.NewProxy(addr, netfault.Config{
		Seed:         5,
		TruncateProb: 0.06,
		CorruptProb:  0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := client.Dial(p.Addr(), client.Options{
		Timeout:   5 * time.Second,
		Retries:   16,
		RetryBase: time.Millisecond,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 20
	for i := 0; i < n; i++ {
		res, err := c.SubmitTML("", "(+ 40 2 e cont(v) (k v))", nil, false, "keyed")
		if err != nil {
			t.Fatalf("submit %d through faults: %v", i, err)
		}
		if res.Val.Int != 42 {
			t.Fatalf("submit %d answered %s", i, res.Val.Show())
		}
	}
	st := srv.Stats()
	// Every submit carried a fresh key; retries of one submit dedup to
	// one application. The counters can't exceed the request count, and
	// every retried-after-execution request must have deduped.
	if st.IdemApplied > n {
		t.Errorf("idempotent submits applied %d times, max %d", st.IdemApplied, n)
	}
	if _, ok := srv.Stats().Verbs["submit"]; !ok {
		t.Error("no submit recorded")
	}
}

// TestReconnectAfterDrop pins reconnection: the proxy severs every
// relay, and the retrying client transparently re-dials and
// re-handshakes.
func TestReconnectAfterDrop(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	p, err := netfault.NewProxy(addr, netfault.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := client.Dial(p.Addr(), client.Options{
		Timeout:   5 * time.Second,
		Retries:   8,
		RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	first := c.Session
	p.DropAll()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after drop: %v", err)
	}
	if c.Session == first {
		t.Error("session id unchanged; client never re-handshook")
	}
}

// TestTaxonomy pins the retryability of errors that carry no wire code
// (the per-code cases live in the gateway package's policy conformance
// test) and the classification table.
func TestTaxonomy(t *testing.T) {
	comp := &ship.WireError{Code: ship.CodeCompile}
	transport := errors.New("connection reset by peer")

	for _, idempotent := range []bool{false, true} {
		if got := client.Retryable(transport, idempotent); got != idempotent {
			t.Errorf("Retryable(transport, %t) = %t, want %t", idempotent, got, idempotent)
		}
	}
	if client.Classify(comp) != client.ClassServer {
		t.Error("wire error not classified server")
	}
	if client.Classify(transport) != client.ClassTransport {
		t.Error("plain error not classified transport")
	}
}
