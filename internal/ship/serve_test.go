package ship_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tycoon/internal/cluster"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// Front-end conformance: one table of wire-level behaviours, driven over
// raw connections against every instantiation of the serving core — a
// tycd, a tycc over one tycd shard, and the bare core with a stub verb
// table (the only place a handler can be made to panic). What a row
// asserts is the core's contract, so it must hold for all of them alike.

// knobs are the front-end settings a row boots its daemon with.
type knobs struct {
	maxSessions int
	idle        time.Duration
	// listen, when set, wraps the listener the daemon serves on.
	listen func(net.Listener) net.Listener
}

// daemon is one instantiation of the core; boot builds it unserved.
type daemon struct {
	name string
	boot func(t *testing.T, k knobs) *ship.FrontEnd
}

var daemons = []daemon{
	{"tycd", func(t *testing.T, k knobs) *ship.FrontEnd {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		srv, err := server.New(st, server.Config{MaxSessions: k.maxSessions, IdleTimeout: k.idle})
		if err != nil {
			t.Fatal(err)
		}
		return srv.FrontEnd
	}},
	{"tycc", func(t *testing.T, k knobs) *ship.FrontEnd {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		shard, err := server.New(st, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		shardAddr := serve(t, shard.FrontEnd, knobs{})
		co, err := cluster.New(cluster.Config{
			Topology:      cluster.Topology{Shards: []cluster.Shard{{Replicas: []string{shardAddr}}}},
			ProbeInterval: -1,
			MaxSessions:   k.maxSessions,
			IdleTimeout:   k.idle,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cluster.NewServer(co)
	}},
	{"bare", func(t *testing.T, k knobs) *ship.FrontEnd {
		verbs := map[ship.Verb]ship.Handler{
			ship.VCall: func([]byte) (ship.Verb, []byte, *ship.WireError) { panic("boom") },
		}
		return ship.NewFrontEnd(ship.Daemon{
			Name: "bare", MaxSessions: k.maxSessions, IdleTimeout: k.idle,
			Session: func(*ship.Session) map[ship.Verb]ship.Handler { return verbs },
		})
	}},
}

// start boots the daemon with k and serves it.
func (d daemon) start(t *testing.T, k knobs) (*ship.FrontEnd, string) {
	t.Helper()
	fe := d.boot(t, k)
	return fe, serve(t, fe, k)
}

// serve starts fe on a loopback listener and drains it at cleanup.
func serve(t *testing.T, fe *ship.FrontEnd, k knobs) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if k.listen != nil {
		ln = k.listen(ln)
	}
	served := make(chan error, 1)
	go func() { served <- fe.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fe.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve returned %v after drain", err)
		}
	})
	return addr
}

// peer is a raw client connection.
type peer struct {
	t *testing.T
	net.Conn
}

func connect(t *testing.T, addr string) *peer {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(15 * time.Second))
	return &peer{t, conn}
}

func (p *peer) send(v ship.Verb, body []byte) {
	p.t.Helper()
	if err := ship.WriteFrame(p, v, body); err != nil {
		p.t.Fatalf("send %s: %v", v, err)
	}
}

func (p *peer) hello() {
	p.t.Helper()
	p.send(ship.VHello, (&ship.Hello{Version: ship.ProtoVersion, Client: p.t.Name()}).Encode())
	if v, _, err := ship.ReadFrame(p, 0); err != nil || v != ship.VWelcome {
		p.t.Fatalf("handshake: %s %v", v, err)
	}
}

func (p *peer) ping() {
	p.t.Helper()
	p.send(ship.VPing, nil)
	if v, _, err := ship.ReadFrame(p, 0); err != nil || v != ship.VPong {
		p.t.Fatalf("ping: %s %v", v, err)
	}
}

// wantErr reads the next frame and requires an error frame of the code,
// its message containing msg.
func (p *peer) wantErr(code ship.ErrCode, msg string) {
	p.t.Helper()
	v, body, err := ship.ReadFrame(p, 0)
	if err != nil {
		p.t.Fatalf("no error frame came back: %v", err)
	}
	if v != ship.VError {
		p.t.Fatalf("got %s, want an error frame", v)
	}
	we, err := ship.DecodeWireError(body)
	if err != nil {
		p.t.Fatal(err)
	}
	if we.Code != code || !strings.Contains(we.Msg, msg) {
		p.t.Fatalf("error = %s %q, want %s …%s…", we.Code, we.Msg, code, msg)
	}
}

// wantClosed requires the server to have hung up: EOF, or a reset when
// it closed over bytes it never read.
func (p *peer) wantClosed() {
	p.t.Helper()
	v, _, err := ship.ReadFrame(p, 0)
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		p.t.Fatalf("connection still open after the fault: %s %v", v, err)
	}
}

// waitSessions polls until the daemon counts n open sessions (teardown
// is asynchronous).
func waitSessions(t *testing.T, fe *ship.FrontEnd, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); fe.Stats().Sessions != n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions open, want %d", fe.Stats().Sessions, n)
		}
	}
}

// protoFault is a malformed byte stream: each must be answered with a
// typed protocol error and a hang-up, the session reaped, and an
// unrelated session left alone.
func protoFault(fault func(p *peer)) func(*testing.T, daemon) {
	return func(t *testing.T, d daemon) {
		fe, addr := d.start(t, knobs{})
		healthy := connect(t, addr)
		healthy.hello()
		p := connect(t, addr)
		fault(p)
		p.wantErr(ship.CodeProto, "")
		p.wantClosed()
		healthy.ping()
		waitSessions(t, fe, 1)
	}
}

var conformance = []struct {
	name string
	only string // "" runs on every daemon
	run  func(t *testing.T, d daemon)
}{
	{"session limit", "", func(t *testing.T, d daemon) {
		_, addr := d.start(t, knobs{maxSessions: 1})
		connect(t, addr).hello() // occupies the only slot
		p := connect(t, addr)
		p.wantErr(ship.CodeBadRequest, "session limit")
		p.wantClosed()
	}},
	{"hello required", "", protoFault(func(p *peer) { p.send(ship.VPing, nil) })},
	{"garbage magic", "", protoFault(func(p *peer) {
		p.hello()
		p.Write([]byte("XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"))
	})},
	{"bad crc", "", protoFault(func(p *peer) {
		p.hello()
		var buf bytes.Buffer
		ship.WriteFrame(&buf, ship.VPing, []byte("body"))
		raw := buf.Bytes()
		raw[len(raw)-1] ^= 0xff
		p.Write(raw)
	})},
	{"oversized length", "", protoFault(func(p *peer) {
		p.hello()
		// Valid magic and verb, then a 2 GiB length claim.
		p.Write(append([]byte("TYWR01"), byte(ship.VSubmit), 0xff, 0xff, 0xff, 0x7f))
	})},
	{"future protocol version", "", func(t *testing.T, d daemon) {
		_, addr := d.start(t, knobs{})
		p := connect(t, addr)
		p.send(ship.VHello, (&ship.Hello{Version: ship.ProtoVersion + 1, Client: "future"}).Encode())
		p.wantErr(ship.CodeBadRequest, "protocol")
		p.wantClosed()
	}},
	{"unknown verb and verb stats", "", func(t *testing.T, d daemon) {
		fe, addr := d.start(t, knobs{})
		p := connect(t, addr)
		p.hello()
		p.ping()
		p.send(ship.VWelcome, nil) // a response verb is not a request
		p.wantErr(ship.CodeProto, "unexpected verb welcome")
		p.ping() // the session survives it
		// A verb is counted after its response is out; one more round trip
		// on the same session orders the counts before the read.
		p.send(ship.VHealth, nil)
		if v, _, err := ship.ReadFrame(p, 0); err != nil || v != ship.VHealthOK {
			t.Fatalf("health: %s %v", v, err)
		}
		verbs := fe.Stats().Verbs
		if st := verbs["ping"]; st.Count != 2 || st.Errors != 0 {
			t.Errorf("ping stat = %+v, want 2 served, 0 failed", st)
		}
		if st := verbs["welcome"]; st.Count != 1 || st.Errors != 1 {
			t.Errorf("welcome stat = %+v, want 1 served, 1 failed", st)
		}
	}},
	{"idle timeout", "", func(t *testing.T, d daemon) {
		fe, addr := d.start(t, knobs{idle: 50 * time.Millisecond})
		p := connect(t, addr)
		p.hello()
		p.ping()
		p.wantErr(ship.CodeShutdown, "idle timeout")
		p.wantClosed()
		waitSessions(t, fe, 0)
	}},
	{"handler panic", "bare", func(t *testing.T, d daemon) {
		fe, addr := d.start(t, knobs{})
		p := connect(t, addr)
		p.hello()
		p.send(ship.VCall, nil)
		p.wantErr(ship.CodeInternal, "panic: boom")
		p.wantClosed()
		waitSessions(t, fe, 0)
		q := connect(t, addr) // the server outlives its handler's bug
		q.hello()
		q.ping()
		if st := fe.Stats().Verbs["call"]; st.Count != 1 || st.Errors != 1 {
			t.Errorf("call stat = %+v, want the panic counted as a failure", st)
		}
	}},
	{"drain wakes an idle session and refuses newcomers", "", func(t *testing.T, d daemon) {
		// The listener's Close is held so the accept loop is provably still
		// running while the drain is on: the newcomer below meets it.
		closing, release := make(chan struct{}), make(chan struct{})
		k := knobs{listen: func(ln net.Listener) net.Listener {
			return &hookListener{Listener: ln, beforeClose: func() { close(closing); <-release }}
		}}
		fe, addr := d.start(t, k)
		idle := connect(t, addr)
		idle.hello()
		idle.ping()

		start := time.Now()
		done := make(chan error, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		go func() { done <- fe.Shutdown(ctx) }()
		<-closing
		idle.wantErr(ship.CodeShutdown, "is draining")
		idle.wantClosed()
		late := connect(t, addr)
		late.wantErr(ship.CodeShutdown, "is draining")
		late.wantClosed()
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if took := time.Since(start); took > 3*time.Second {
			t.Errorf("drain of one idle session took %s", took)
		}
		if err := fe.Shutdown(ctx); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
		if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			t.Error("dial succeeded after the drain")
		}
	}},
	{"drain nudge survives a racing idle arm", "", func(t *testing.T, d daemon) {
		// Force the interleaving: the session is held inside the
		// SetReadDeadline that arms its idle timer while Shutdown runs. If
		// the drain's nudge can land first and be overwritten, the session
		// sleeps out the (long) idle timeout and the drain times out.
		g := &gate{entered: make(chan struct{}), nudged: make(chan struct{})}
		k := knobs{idle: time.Minute, listen: func(ln net.Listener) net.Listener {
			return &hookListener{Listener: ln, wrap: func(c net.Conn) net.Conn { return &gatedConn{Conn: c, g: g} }}
		}}
		fe, addr := d.start(t, k)
		p := connect(t, addr)
		p.hello()
		g.armed.Store(true)
		p.send(ship.VPing, nil) // makes the session loop round to its next arm
		select {
		case <-g.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("session never armed its idle deadline")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		if err := fe.Shutdown(ctx); err != nil {
			t.Fatalf("drain lost its nudge to the idle arm: %v after %s", err, time.Since(start))
		}
	}},
}

func TestFrontEndConformance(t *testing.T) {
	t.Parallel()
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			for _, row := range conformance {
				if row.only == "" || row.only == d.name {
					t.Run(row.name, func(t *testing.T) { row.run(t, d) })
				}
			}
		})
	}
}

// TestSilentHandshakeIsBounded: with no idle timeout — the default of
// both daemons — a connection that never says hello must still lose its
// session slot. The daemons wait out the (real) handshake deadline side
// by side.
func TestSilentHandshakeIsBounded(t *testing.T) {
	t.Parallel()
	fes := make([]*ship.FrontEnd, len(daemons))
	silent := make([]*peer, len(daemons))
	for i, d := range daemons {
		var addr string
		fes[i], addr = d.start(t, knobs{})
		silent[i] = connect(t, addr)
	}
	for i, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			p := &peer{t, silent[i].Conn}
			p.wantErr(ship.CodeShutdown, "idle timeout")
			p.wantClosed()
			waitSessions(t, fes[i], 0)
		})
	}
}

// hookListener lets a row interpose on the daemon's listener.
type hookListener struct {
	net.Listener
	wrap        func(net.Conn) net.Conn
	beforeClose func()
	closeOnce   sync.Once
}

func (l *hookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil && l.wrap != nil {
		c = l.wrap(c)
	}
	return c, err
}

func (l *hookListener) Close() error {
	if l.beforeClose != nil {
		l.closeOnce.Do(l.beforeClose)
	}
	return l.Listener.Close()
}

// gate holds the first future read deadline set after it is armed (an
// idle arm) until a past one (the drain's nudge) has been seen on the
// same connection, or — when the two are properly ordered and the nudge
// cannot come first — a short while has passed.
type gate struct {
	armed           atomic.Bool
	entered, nudged chan struct{}
	nudgeOnce       sync.Once
}

type gatedConn struct {
	net.Conn
	g *gate
}

func (c *gatedConn) SetReadDeadline(t time.Time) error {
	switch {
	case t.IsZero():
	case !t.After(time.Now()):
		c.g.nudgeOnce.Do(func() { close(c.g.nudged) })
	case c.g.armed.CompareAndSwap(true, false):
		close(c.g.entered)
		select {
		case <-c.g.nudged:
		case <-time.After(300 * time.Millisecond):
		}
	}
	return c.Conn.SetReadDeadline(t)
}
