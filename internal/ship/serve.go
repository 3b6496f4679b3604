// The serving core: the one TYWR01 front end both daemons run. It owns
// everything about a connection that does not depend on what the daemon
// does with a request — the accept loop and session limit, the
// HELLO/WELCOME handshake, the idle deadline and the drain nudge, frame
// read classification, panic recovery, per-verb latency counters, the
// PING/STATS/HEALTH/BYE verbs, and Shutdown's drain-then-force-close.
// tycd (package server) and tycc (package cluster) each describe
// themselves with a Daemon: a verb→handler table per session, fill-ins
// for STATS and HEALTH, and hooks around the drain. What differs between
// them is in those tables, never a switch in here.

package ship

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"time"
)

// DefaultMaxSessions bounds concurrently open sessions when a Daemon
// leaves MaxSessions zero.
const DefaultMaxSessions = 256

// handshakeTimeout bounds the wait for a new connection's HELLO. Without
// it a daemon run with no idle timeout (the default) lets silent
// connections hold session slots forever.
const handshakeTimeout = 5 * time.Second

// Handler serves one request frame: it returns the response frame, or
// the wire error to answer with. The session continues either way.
type Handler func(body []byte) (resp Verb, out []byte, werr *WireError)

// Daemon is what a server plugs into the core.
type Daemon struct {
	// Name is the daemon's name in the welcome banner, refusals and the
	// log ("tycd", "tycc").
	Name string
	// MaxSessions bounds concurrently open sessions; further connections
	// are refused with a bad-request error. 0 means DefaultMaxSessions.
	MaxSessions int
	// IdleTimeout closes sessions that send no request for this long; 0
	// disables the idle check.
	IdleTimeout time.Duration
	// Out receives the front end's log; nil discards it.
	Out io.Writer
	// Session builds the verb table of a session that completed its
	// handshake. PING, STATS, HEALTH and BYE are the core's; every other
	// verb the daemon speaks is an entry, and a verb without one is a
	// protocol error.
	Session func(*Session) map[Verb]Handler
	// Stats and Health fill the daemon's part of a snapshot in; sessions,
	// drain state and the per-verb counters are already there. Either may
	// be nil.
	Stats  func(*ServerStats)
	Health func(*Health)
	// BeforeDrain runs when Shutdown begins, before idle sessions are
	// woken; AfterDrain runs once every session has exited, and its error
	// is Shutdown's. Either may be nil.
	BeforeDrain func()
	AfterDrain  func() error
}

// FrontEnd is a running serving core.
type FrontEnd struct {
	d Daemon

	// mu guards the registry — and orders every read-deadline change
	// against the drain: a session arms a deadline under it and never once
	// draining is set, Shutdown sets draining and then nudges under it, so
	// no arm can overwrite a nudge.
	mu       sync.Mutex
	sessions map[*Session]struct{}
	verbs    [256]VerbStat // indexed by Verb
	nextSess uint64
	total    uint64
	draining bool
	ln       net.Listener

	wg sync.WaitGroup
}

// NewFrontEnd builds the serving core for a daemon.
func NewFrontEnd(d Daemon) *FrontEnd {
	if d.MaxSessions <= 0 {
		d.MaxSessions = DefaultMaxSessions
	}
	return &FrontEnd{d: d, sessions: make(map[*Session]struct{})}
}

// Logf writes one line to the daemon's log.
func (s *FrontEnd) Logf(format string, args ...any) {
	if s.d.Out != nil {
		fmt.Fprintf(s.d.Out, s.d.Name+": "+format+"\n", args...)
	}
}

func (s *FrontEnd) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *FrontEnd) drainingError() *WireError {
	return &WireError{Code: CodeShutdown, Msg: s.d.Name + " is draining"}
}

// record updates one verb's latency counter.
func (s *FrontEnd) record(v Verb, start time.Time, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.verbs[v]
	st.Count++
	if failed {
		st.Errors++
	}
	st.Micros += time.Since(start).Microseconds()
}

// Stats snapshots the front end's counters plus the daemon's.
func (s *FrontEnd) Stats() ServerStats {
	s.mu.Lock()
	verbs := make(map[string]VerbStat)
	for v, st := range &s.verbs {
		if st.Count > 0 {
			verbs[Verb(v).String()] = st
		}
	}
	out := ServerStats{
		Sessions:      len(s.sessions),
		TotalSessions: s.total,
		Draining:      s.draining,
		Verbs:         verbs,
	}
	s.mu.Unlock()
	if s.d.Stats != nil {
		s.d.Stats(&out)
	}
	return out
}

// Health snapshots the mode for the HEALTH verb.
func (s *FrontEnd) Health() Health {
	s.mu.Lock()
	h := Health{Status: "ok", Draining: s.draining, Sessions: len(s.sessions)}
	s.mu.Unlock()
	if s.d.Health != nil {
		s.d.Health(&h)
	}
	if h.Degraded {
		h.Status = "degraded"
	}
	if h.Draining {
		h.Status = "draining"
	}
	return h
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:7411") and serves
// until Shutdown. It returns the listener through ready (if non-nil) as
// soon as the port is bound, so callers can learn an ephemeral port.
func (s *FrontEnd) ListenAndServe(addr string, ready chan<- net.Listener) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if ready != nil {
			close(ready)
		}
		return err
	}
	if ready != nil {
		ready <- ln
	}
	return s.Serve(ln)
}

// Serve accepts sessions on ln until the listener closes (Shutdown).
func (s *FrontEnd) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: server is shut down", s.d.Name)
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		switch {
		case s.draining:
			s.mu.Unlock()
			refuse(conn, s.drainingError())
			continue
		case len(s.sessions) >= s.d.MaxSessions:
			s.mu.Unlock()
			refuse(conn, &WireError{Code: CodeBadRequest,
				Msg: fmt.Sprintf("session limit %d reached", s.d.MaxSessions)})
			continue
		}
		s.nextSess++
		sess := &Session{srv: s, conn: conn, id: s.nextSess}
		s.sessions[sess] = struct{}{}
		s.total++
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
	}
}

// refuse answers a connection the server will not serve with one error
// frame and closes it.
func refuse(conn net.Conn, e *WireError) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_ = WriteFrame(conn, VError, e.Encode()) // the peer may be gone already
	conn.Close()
}

// Shutdown drains the front end: the listener closes, sessions blocked
// between requests are woken (their pending reads fail and they close
// cleanly), in-flight requests run to completion, and once every
// session has exited — or ctx expires, at which point remaining
// connections are force-closed — the daemon's AfterDrain hook runs.
func (s *FrontEnd) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	// From here no session arms a read deadline again (see arm), so the
	// nudges below — which may come later — are final.
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if s.d.BeforeDrain != nil {
		s.d.BeforeDrain()
	}
	s.mu.Lock()
	for sess := range s.sessions {
		// Wake readers blocked between requests; an in-flight handler is
		// unaffected and notices the drain on its next read.
		sess.conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		drainErr = ctx.Err()
	}
	if s.d.AfterDrain != nil {
		if err := s.d.AfterDrain(); err != nil {
			return err
		}
	}
	return drainErr
}

// Session is one client connection.
type Session struct {
	srv   *FrontEnd
	conn  net.Conn
	id    uint64
	verbs map[Verb]Handler
	// stream, set by a handler through Stream, takes the connection over
	// once the handler's response is out.
	stream func(gone <-chan struct{})
}

// ID is the server-assigned session number.
func (c *Session) ID() uint64 { return c.id }

// arm sets the deadline of the session's next read (0 clears it) under
// the registry lock, and leaves it alone once a drain has begun: the
// drain's nudge is, or will be, in place and must win.
func (c *Session) arm(d time.Duration) {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if c.srv.draining {
		return
	}
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	c.conn.SetReadDeadline(t)
}

// run drives the session: handshake, then one request frame → one
// response frame until the peer says bye, the connection drops, the
// idle timer fires, the server drains, or a handler takes the
// connection over.
func (c *Session) run() {
	defer c.conn.Close()
	if !c.handshake() {
		return
	}
	c.verbs = c.srv.d.Session(c)
	idle := c.srv.d.IdleTimeout
	c.arm(idle) // replaces the handshake deadline
	for {
		verb, body, err := ReadFrame(c.conn, 0)
		if err != nil {
			c.readFailed(err)
			return
		}
		if verb == VBye {
			return
		}
		keep := c.dispatch(verb, body)
		if c.stream != nil {
			// Even if the response write failed: the stream notices the
			// dead connection at once and releases what its handler set up.
			c.runStream()
			return
		}
		if !keep {
			return
		}
		if idle > 0 {
			c.arm(idle)
		}
	}
}

// runStream parks a reader on the connection — a streaming session's peer
// sends nothing, so any frame (bye included), EOF or the drain nudge ends
// the stream — and runs the stream until it returns.
func (c *Session) runStream() {
	c.arm(0)
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		_, _, _ = ReadFrame(c.conn, 0)
	}()
	c.stream(gone)
	c.conn.Close()
	<-gone
}

// Stream hands the connection to fn once the calling handler's response
// has been written: the protocol has no request ids, so a verb that
// pushes (WATCH) owns the connection from then on. fn sends through Send
// and returns when it is done or when gone closes — the peer went away or
// the server is draining; the session ends when fn returns.
func (c *Session) Stream(fn func(gone <-chan struct{})) { c.stream = fn }

// handshake expects the hello frame and answers welcome.
func (c *Session) handshake() bool {
	c.arm(handshakeTimeout)
	verb, body, err := ReadFrame(c.conn, 0)
	if err != nil {
		c.readFailed(err)
		return false
	}
	if verb != VHello {
		c.SendErr(&WireError{Code: CodeProto, Msg: "expected hello, got " + verb.String()})
		return false
	}
	hello, err := DecodeHello(body)
	if err != nil {
		c.SendErr(WireErr(CodeProto, err))
		return false
	}
	if hello.Version > ProtoVersion {
		c.SendErr(&WireError{Code: CodeBadRequest,
			Msg: fmt.Sprintf("client speaks protocol %d, server %d", hello.Version, ProtoVersion)})
		return false
	}
	c.srv.Logf("session %d: hello from %q (%s)", c.id, hello.Client, c.conn.RemoteAddr())
	return c.Send(VWelcome, (&Welcome{Version: ProtoVersion, Server: c.srv.d.Name, Session: c.id}).Encode())
}

// readFailed classifies a frame read error: clean close and transport
// failures just end the session; malformed frames and drain/idle
// wake-ups are answered with one typed error frame first.
func (c *Session) readFailed(err error) {
	var ne net.Error
	switch {
	case errors.Is(err, io.EOF):
	case errors.Is(err, ErrFrame):
		c.srv.Logf("session %d: protocol error: %v", c.id, err)
		c.SendErr(WireErr(CodeProto, err))
	case errors.As(err, &ne) && ne.Timeout():
		if c.srv.isDraining() {
			c.SendErr(c.srv.drainingError())
		} else {
			c.SendErr(&WireError{Code: CodeShutdown, Msg: "idle timeout"})
		}
	default:
		c.srv.Logf("session %d: read failed: %v", c.id, err)
	}
}

// dispatch handles one request frame; false closes the session.
func (c *Session) dispatch(verb Verb, body []byte) (keep bool) {
	start := time.Now()
	failed := false
	defer func() { c.srv.record(verb, start, failed) }()
	defer func() {
		// A handler panic is a server bug, not a session outcome: report
		// it as an internal error and drop the session, never the server.
		if r := recover(); r != nil {
			failed = true
			keep = false
			c.srv.Logf("session %d: panic in %s: %v\n%s", c.id, verb, r, debug.Stack())
			c.SendErr(&WireError{Code: CodeInternal, Msg: fmt.Sprintf("panic: %v", r)})
		}
	}()

	var resp Verb
	var out []byte
	var werr *WireError
	// The cheap probes never pass a daemon's overload gate, so a
	// saturated server stays observable.
	switch verb {
	case VPing:
		resp = VPong
	case VStats:
		resp, out, werr = jsonReply(VStatsOK, c.srv.Stats())
	case VHealth:
		resp, out, werr = jsonReply(VHealthOK, c.srv.Health())
	default:
		if h := c.verbs[verb]; h != nil {
			resp, out, werr = h(body)
		} else {
			werr = &WireError{Code: CodeProto, Msg: "unexpected verb " + verb.String()}
		}
	}
	if werr != nil {
		failed = true
		return c.SendErr(werr)
	}
	return c.Send(resp, out)
}

func jsonReply(resp Verb, v any) (Verb, []byte, *WireError) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, nil, WireErr(CodeInternal, err)
	}
	return resp, data, nil
}

// Reply renders a work verb's Result as its response frame, stamping
// the server-side latency measured from start. A result too large for
// one frame is refused as a bad request before it is encoded: written
// anyway, the peer's ReadFrame would reject it as a corrupt frame and a
// retrying client would re-execute the request for nothing.
func Reply(res *Result, start time.Time) (Verb, []byte, *WireError) {
	res.Info.Micros = time.Since(start).Microseconds()
	n, tail, err := sizeOf(res)
	if err != nil {
		return 0, nil, WireErr(CodeInternal, err)
	}
	if n > MaxFrameBody {
		return 0, nil, &WireError{Code: CodeBadRequest,
			Msg: fmt.Sprintf("result of %d bytes exceeds the frame limit of %d", n, MaxFrameBody)}
	}
	return VResult, appendBody(make([]byte, 0, n), res, tail), nil
}

// Send writes one frame to the peer; false means the connection is dead.
func (c *Session) Send(v Verb, body []byte) bool {
	if err := WriteFrame(c.conn, v, body); err != nil {
		c.srv.Logf("session %d: write failed: %v", c.id, err)
		return false
	}
	return true
}

// SendErr writes one error frame.
func (c *Session) SendErr(e *WireError) bool { return c.Send(VError, e.Encode()) }

// WireErr maps any handler error onto the wire under code, preserving an
// explicit *WireError — a shard's own error code (not-found, exec,
// budget, overloaded …) passes through a coordinator unchanged.
func WireErr(code ErrCode, err error) *WireError {
	var we *WireError
	if errors.As(err, &we) {
		return we
	}
	return &WireError{Code: code, Msg: err.Error()}
}
