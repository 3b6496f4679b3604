package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tycoon/internal/ship"
)

// ErrWatcherClosed is returned by Next after Close.
var ErrWatcherClosed = errors.New("client: watcher closed")

// Watcher is one WATCH subscription: a dedicated connection (the
// protocol has no request ids, so a watching session cannot also issue
// requests) delivering committed root changes in CSN order.
//
// A Watcher is resilient the way Client is: when Options.Retries is
// set, a lost connection is re-dialled and the subscription resumed
// from the last fully delivered commit, so across any number of
// reconnects Next yields every matching committed change exactly once,
// in CSN order — and never a torn multi-root commit, because a batch
// is buffered internally until its final notification arrived and the
// resume point only advances past completed batches.
//
// A Watcher is not safe for concurrent use.
type Watcher struct {
	addr     string
	opts     Options
	patterns []string
	// connMu guards the conn pointer against Close racing the owner
	// goroutine's reconnects; the stream itself is read by one goroutine.
	connMu sync.Mutex
	conn   net.Conn
	rng    *rand.Rand
	// pos is the resume point: the CSN of the last fully delivered
	// commit (or the subscription start). pending holds the buffered
	// remainder of the batch Next is currently handing out.
	pos     uint64
	pending []ship.Notify
	started bool // first subscribe happened; later connects count as resumes
	closed  atomic.Bool

	resumes atomic.Int64 // successful re-subscriptions after connection loss
}

// NewWatcher subscribes to committed root changes matching patterns
// ('*' wildcards; see ship.MatchRoot). since resumes from a previous
// position (0 subscribes from now). Dial-time failures honour
// opts.Retries like Dial does.
func NewWatcher(addr string, patterns []string, since uint64, opts ...Options) (*Watcher, error) {
	o, rng := withDefaults(opts, "tycoon/internal/client:watch")
	w := &Watcher{addr: addr, opts: o, patterns: patterns, pos: since, rng: rng}
	if err := w.reconnect(); err != nil {
		return nil, err
	}
	return w, nil
}

// Watch opens a Watcher against the client's server with the client's
// options, on its own connection (the client's session is unaffected).
func (c *Client) Watch(patterns []string, since uint64) (*Watcher, error) {
	c.mu.Lock()
	addr, opts := c.addr, c.opts
	c.mu.Unlock()
	return NewWatcher(addr, patterns, since, opts)
}

// Pos reports the resume point: the CSN up to which every matching
// commit has been fully delivered by Next.
func (w *Watcher) Pos() uint64 { return w.pos }

// Resumes reports how many times the watcher re-subscribed after
// losing its connection.
func (w *Watcher) Resumes() int64 { return w.resumes.Load() }

// connect dials, handshakes and subscribes once, resuming from w.pos.
func (w *Watcher) connect() error {
	d := net.Dialer{Timeout: w.opts.Timeout}
	conn, err := d.Dial("tcp", w.addr)
	if err != nil {
		return err
	}
	if w.opts.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(w.opts.Timeout))
	}
	fail := func(err error) error {
		conn.Close()
		return err
	}
	if err := ship.WriteFrame(conn, ship.VHello, (&ship.Hello{
		Version: ship.ProtoVersion, Client: w.opts.Client,
	}).Encode()); err != nil {
		return fail(err)
	}
	if verb, body, err := ship.ReadFrame(conn, 0); err != nil {
		return fail(err)
	} else if werr := asWireError(verb, body); werr != nil {
		return fail(werr)
	} else if verb != ship.VWelcome {
		return fail(fmt.Errorf("client: expected welcome, got %s", verb))
	}
	if err := ship.WriteFrame(conn, ship.VWatch, (&ship.Watch{
		Patterns: w.patterns, SinceCSN: w.pos,
	}).Encode()); err != nil {
		return fail(err)
	}
	verb, body, err := ship.ReadFrame(conn, 0)
	if err != nil {
		return fail(err)
	}
	if werr := asWireError(verb, body); werr != nil {
		return fail(werr)
	}
	if verb != ship.VWatchOK {
		return fail(fmt.Errorf("client: expected watch-ok, got %s", verb))
	}
	ok, err := ship.DecodeWatchOK(body)
	if err != nil {
		return fail(err)
	}
	if w.pos == 0 {
		w.pos = ok.CSN
	}
	// The stream blocks for as long as nothing changes: no read deadline.
	conn.SetDeadline(time.Time{})
	w.setConn(conn)
	if w.started {
		w.resumes.Add(1)
	}
	w.started = true
	return nil
}

// asWireError decodes a VError frame, or nil for any other verb.
func asWireError(verb ship.Verb, body []byte) error {
	if verb != ship.VError {
		return nil
	}
	we, derr := ship.DecodeWireError(body)
	if derr != nil {
		return derr
	}
	return we
}

// reconnect (re-)establishes the subscription with retries and backoff,
// the same schedule the request client uses. Refusals and dial failures
// across a restart retry; a definitive answer (ship.Definitive) — bad
// patterns, a lost resume horizon — does not.
func (w *Watcher) reconnect() error {
	var err error
	for attempt := 0; ; attempt++ {
		if w.closed.Load() {
			return ErrWatcherClosed
		}
		if err = w.connect(); err == nil {
			if w.closed.Load() {
				// Close raced the dial: the fresh connection must not leak.
				w.Close()
				return ErrWatcherClosed
			}
			return nil
		}
		if attempt >= w.opts.Retries || ship.Definitive(err) != nil {
			return err
		}
		var hint time.Duration
		var we *ship.WireError
		if errors.As(err, &we) {
			hint = time.Duration(we.RetryAfterMs) * time.Millisecond
		}
		time.Sleep(w.opts.backoff(w.rng, attempt, hint))
	}
}

// Next blocks for the next committed root change. It buffers whole
// commits internally: the notifications of a multi-root commit are
// returned one by one (More marks all but the last), but the wire batch
// was complete before the first was released and the resume point moves
// only afterwards — so a connection lost mid-batch replays the batch on
// resume without Next ever delivering half of it, or any of it twice.
func (w *Watcher) Next() (ship.Notify, error) {
	for {
		if w.closed.Load() {
			return ship.Notify{}, ErrWatcherClosed
		}
		if len(w.pending) > 0 {
			n := w.pending[0]
			w.pending = w.pending[1:]
			if len(w.pending) == 0 {
				w.pos = n.CSN // batch fully delivered: commit the resume point
			}
			return n, nil
		}
		batch, err := w.readBatch()
		if err == nil {
			w.pending = batch
			continue
		}
		if w.closed.Load() {
			return ship.Notify{}, ErrWatcherClosed
		}
		if w.conn != nil {
			w.conn.Close()
			w.setConn(nil)
		}
		if w.opts.Retries <= 0 || ship.Definitive(err) != nil {
			return ship.Notify{}, err
		}
		if rerr := w.reconnect(); rerr != nil {
			return ship.Notify{}, rerr
		}
	}
}

// readBatch reads one commit's notifications: frames until More is
// false. A failure anywhere discards the partial batch — the resume
// point has not moved, so the reconnect replays it whole.
func (w *Watcher) readBatch() ([]ship.Notify, error) {
	if w.conn == nil {
		if err := w.reconnect(); err != nil {
			return nil, err
		}
	}
	var batch []ship.Notify
	for {
		verb, body, err := ship.ReadFrame(w.conn, 0)
		if err != nil {
			return nil, err
		}
		if werr := asWireError(verb, body); werr != nil {
			return nil, werr
		}
		if verb != ship.VNotify {
			return nil, fmt.Errorf("client: expected notify, got %s", verb)
		}
		n, err := ship.DecodeNotify(body)
		if err != nil {
			return nil, err
		}
		batch = append(batch, *n)
		if !n.More {
			return batch, nil
		}
	}
}

// setConn publishes the connection pointer Close closes.
func (w *Watcher) setConn(c net.Conn) {
	w.connMu.Lock()
	w.conn = c
	w.connMu.Unlock()
}

// Close ends the subscription. Safe to call concurrently with a
// blocked Next, which then returns ErrWatcherClosed.
func (w *Watcher) Close() error {
	w.closed.Store(true)
	w.connMu.Lock()
	c := w.conn
	w.connMu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
