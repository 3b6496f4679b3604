// Package client implements the tycd wire client used by tycsh, the
// chaos harness and the server tests: it dials a server, performs the
// hello/welcome handshake, and exposes one method per request verb. A
// client holds one session; requests are strictly one-at-a-time (the
// protocol has no request ids to match concurrent responses), enforced
// by a mutex so a client value may still be shared between goroutines.
//
// The client is fault-tolerant when Options.Retries is set: a lost or
// corrupted connection is closed (never left half-read), re-dialled and
// re-handshaken, and the failed request retried with exponential
// backoff and jitter — but only when retrying is safe. The taxonomy:
//
//   - A structured error retries for every verb unless its class in
//     ship's per-code policy table is ClassAnswer: refusals and aborts
//     applied nothing. A RetryAfterMs hint overrides the backoff base.
//   - Dial and handshake failures mean the request was never sent, so
//     they too retry for every verb — the case that carries clients
//     across a server restart.
//   - Transport failures and corrupt response frames are ambiguous —
//     the request may or may not have executed — so they are retried
//     only for requests that are idempotent: reads (PING, STATS,
//     HEALTH), naturally idempotent verbs (OPTIMIZE), and SUBMIT /
//     INSTALL requests carrying an idempotency key, which the server
//     deduplicates so a retried save= install is applied exactly once.
//
// SubmitTML is the high-level entry: it parses the s-expression TML
// concrete syntax locally, encodes the tree as PTML and ships it — the
// client-side half of the paper's persistent intermediate code
// representation crossing an open-system boundary.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/ship"
	"tycoon/internal/tml"
)

// Defaults for Options zero values when Retries > 0.
const (
	DefaultRetryBase = 20 * time.Millisecond
	DefaultRetryMax  = time.Second
)

// Client is one session against a tycd server, transparently re-dialled
// after connection loss when retries are enabled.
type Client struct {
	mu      sync.Mutex
	addr    string
	opts    Options
	conn    net.Conn
	rng     *rand.Rand // jitter and idempotency-key prefix; guarded by mu
	keyBase string
	keySeq  uint64

	retries    atomic.Int64 // attempts beyond the first, across all requests
	attempts   atomic.Int64 // request attempts, including first tries
	reconnects atomic.Int64 // dials after the initial handshake succeeded
	honored    atomic.Int64 // backoffs that used a server RetryAfterMs hint
	dialed     atomic.Bool  // the initial handshake has succeeded once
	aborted    atomic.Bool  // Abort was called; no further attempts

	// abortMu guards liveConn, the connection pointer Abort closes. It
	// is a second, tiny lock so Abort never waits for the request mutex
	// an in-flight attempt is holding.
	abortMu  sync.Mutex
	liveConn net.Conn

	// Session is the server-assigned session id from the most recent
	// handshake; Server is the server identification.
	Session uint64
	Server  string
}

// Counters is the client-side resilience counter block: how hard this
// session had to work to look like a clean request stream. (Stats, by
// contrast, asks the server for ITS counters.)
type Counters struct {
	// Attempts counts request attempts including first tries; Retries
	// the attempts beyond the first (reconnects and request retries).
	Attempts int64
	Retries  int64
	// Reconnects counts re-dials after the session was once established
	// — each one is a connection the taxonomy declared dead.
	Reconnects int64
	// RetryAfterHonored counts backoffs that used a server-supplied
	// RetryAfterMs hint instead of the exponential schedule.
	RetryAfterHonored int64
}

// Counters snapshots the resilience counters.
func (c *Client) Counters() Counters {
	return Counters{
		Attempts:          c.attempts.Load(),
		Retries:           c.retries.Load(),
		Reconnects:        c.reconnects.Load(),
		RetryAfterHonored: c.honored.Load(),
	}
}

// ErrAborted is returned by requests interrupted by Abort.
var ErrAborted = errors.New("client: aborted")

// Abort poisons the client and forces any in-flight request to fail
// fast by closing the connection out from under it: the pending read
// returns a transport error, the retry loop sees the aborted flag and
// stops instead of re-dialling. Hedged reads use this for
// first-answer-wins cancellation — the losing attempt must release its
// server session now, not when its timeout expires. An aborted client
// is dead; Close it and dial a fresh one.
func (c *Client) Abort() {
	c.aborted.Store(true)
	// Closing a net.Conn is safe concurrently with a Read blocked on it.
	c.abortMu.Lock()
	if c.liveConn != nil {
		c.liveConn.Close()
	}
	c.abortMu.Unlock()
}

// setLiveConn publishes the connection Abort should close.
func (c *Client) setLiveConn(conn net.Conn) {
	c.abortMu.Lock()
	c.liveConn = conn
	c.abortMu.Unlock()
}

// Options tunes Dial.
type Options struct {
	// Timeout bounds the dial and each request attempt; 0 disables.
	Timeout time.Duration
	// Client identifies this client in the server log.
	Client string
	// Retries is the number of retry attempts after the first try; 0
	// disables retrying entirely (one shot, old behaviour).
	Retries int
	// RetryBase is the first backoff delay; doubled per attempt up to
	// RetryMax, jittered ±50%. Zeros mean the defaults above.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed drives jitter and idempotency-key generation; 0 seeds from
	// the clock (fine outside deterministic tests).
	Seed int64
}

// Dial connects to a tycd server and performs the handshake, retrying
// per Options.
func Dial(addr string, opts ...Options) (*Client, error) {
	o, rng := withDefaults(opts, "tycoon/internal/client")
	c := &Client{addr: addr, opts: o, rng: rng}
	c.keyBase = fmt.Sprintf("%s-%08x", o.Client, c.rng.Uint32())
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.connectLocked(); err == nil {
			return c, nil
		}
		if attempt >= c.opts.Retries {
			return nil, err
		}
		c.retries.Add(1)
		time.Sleep(c.backoffLocked(attempt, 0))
	}
}

// connectLocked dials and handshakes; c.mu must be held.
func (c *Client) connectLocked() error {
	d := net.Dialer{Timeout: c.opts.Timeout}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	if c.opts.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	if err := ship.WriteFrame(conn, ship.VHello, (&ship.Hello{
		Version: ship.ProtoVersion, Client: c.opts.Client,
	}).Encode()); err != nil {
		conn.Close()
		return err
	}
	verb, body, err := ship.ReadFrame(conn, 0)
	if err != nil {
		conn.Close()
		return err
	}
	if verb == ship.VError {
		conn.Close()
		we, derr := ship.DecodeWireError(body)
		if derr != nil {
			return derr
		}
		return we
	}
	if verb != ship.VWelcome {
		conn.Close()
		return fmt.Errorf("client: expected welcome, got %s", verb)
	}
	w, err := ship.DecodeWelcome(body)
	if err != nil {
		conn.Close()
		return err
	}
	c.conn = conn
	c.setLiveConn(conn)
	if !c.dialed.Swap(true) {
		// The first successful handshake is the baseline, not a reconnect.
	} else {
		c.reconnects.Add(1)
	}
	c.Session = w.Session
	c.Server = w.Server
	return nil
}

// Close sends an orderly bye and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	c.deadlineLocked()
	_ = ship.WriteFrame(c.conn, ship.VBye, nil)
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Retries reports how many retry attempts this client has made across
// all requests (reconnects and request retries).
func (c *Client) Retries() int64 { return c.retries.Load() }

// deadlineLocked arms the connection deadline for one attempt.
func (c *Client) deadlineLocked() {
	if c.opts.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
}

// dropLocked closes and forgets the connection. Called on every
// transport or framing failure: once a response read has failed the
// stream position is unknown, so the connection must never be reused —
// the half-read-state fix.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.setLiveConn(nil)
	}
}

// withDefaults fills the zero values of the optional Options and seeds
// the jitter source.
func withDefaults(opts []Options, name string) (Options, *rand.Rand) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Client == "" {
		o.Client = name
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return o, rand.New(rand.NewSource(seed))
}

// backoff computes the jittered exponential delay for a retry; the
// client and the watcher share it. hint (a server's RetryAfterMs)
// overrides the base. The returned delay never exceeds RetryMax: the
// jitter draws within [d/2, d] rather than adding on top of the capped
// value, so even the first retry respects the configured cap.
func (o *Options) backoff(rng *rand.Rand, attempt int, hint time.Duration) time.Duration {
	d := o.RetryBase << uint(attempt)
	if d <= 0 || d > o.RetryMax {
		d = o.RetryMax // includes shift overflow on deep retries
	}
	if hint > 0 {
		d = min(hint, o.RetryMax)
	}
	// Jitter to [d/2, d] so a fleet of retrying clients does not
	// stampede, without ever overshooting the cap.
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// backoffLocked is the client's backoff, counting honored hints.
func (c *Client) backoffLocked(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		c.honored.Add(1)
	}
	return c.opts.backoff(c.rng, attempt, hint)
}

// NextIdemKey mints a fresh idempotency key: unique per client and
// request, stable across the retries of one request.
func (c *Client) NextIdemKey() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keySeq++
	return fmt.Sprintf("%s-%d", c.keyBase, c.keySeq)
}

// Retryable reports whether err may be retried for a request with the
// given idempotency. A structured error retries unless its class is
// ClassAnswer; ambiguous failures (transport errors, corrupt response
// frames) retry only when re-execution is safe.
func Retryable(err error, idempotent bool) bool {
	var ce *connectError
	if errors.As(err, &ce) {
		// The request was never sent: always safe to retry.
		return true
	}
	var we *ship.WireError
	if errors.As(err, &we) {
		return we.Code.Policy().Class != ship.ClassAnswer
	}
	return idempotent
}

// Class partitions request errors for exit codes and logs.
type Class int

const (
	// ClassTransport is a connection-level failure: dial, reset,
	// timeout, connection loss mid-request.
	ClassTransport Class = iota
	// ClassProtocol is a framing failure: the byte stream did not parse
	// as the TYWR01 protocol in either direction.
	ClassProtocol
	// ClassServer is a structured WireError answered by the server.
	ClassServer
)

// String names a class.
func (cl Class) String() string {
	switch cl {
	case ClassTransport:
		return "transport"
	case ClassProtocol:
		return "protocol"
	case ClassServer:
		return "server"
	default:
		return fmt.Sprintf("class(%d)", int(cl))
	}
}

// Classify sorts a request error into the taxonomy.
func Classify(err error) Class {
	var we *ship.WireError
	if errors.As(err, &we) {
		return ClassServer
	}
	if errors.Is(err, ship.ErrFrame) {
		return ClassProtocol
	}
	return ClassTransport
}

// do performs one request with retries: send one frame, read one frame,
// reconnecting and retrying per the taxonomy. idempotent marks requests
// safe to re-execute (reads, keyed submits/installs).
func (c *Client) do(v ship.Verb, body []byte, idempotent bool) (ship.Verb, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if c.aborted.Load() {
			return 0, nil, ErrAborted
		}
		c.attempts.Add(1)
		rv, rbody, err := c.attemptLocked(v, body)
		if err == nil {
			return rv, rbody, nil
		}
		if c.aborted.Load() {
			return 0, nil, ErrAborted
		}
		if attempt >= c.opts.Retries || !Retryable(err, idempotent) {
			return 0, nil, err
		}
		var hint time.Duration
		var we *ship.WireError
		if errors.As(err, &we) {
			hint = time.Duration(we.RetryAfterMs) * time.Millisecond
			if we.Code.Policy().EndsSession {
				// The server closed this session; reconnect (after a
				// shutdown the listener may already be a fresh
				// incarnation over the same store).
				c.dropLocked()
			}
		}
		c.retries.Add(1)
		delay := c.backoffLocked(attempt, hint)
		c.mu.Unlock()
		time.Sleep(delay)
		c.mu.Lock()
	}
}

// connectError marks a dial or handshake failure: the request was never
// sent, so retrying it is safe for every verb (the distinction that
// keeps non-idempotent CALLs retryable across a server restart, where
// reconnects fail until the new incarnation listens).
type connectError struct{ err error }

func (e *connectError) Error() string { return e.err.Error() }
func (e *connectError) Unwrap() error { return e.err }

// attemptLocked is one try: connect if needed, one frame out, one frame
// back. Any transport or framing failure poisons the connection.
func (c *Client) attemptLocked(v ship.Verb, body []byte) (ship.Verb, []byte, error) {
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			return 0, nil, &connectError{err}
		}
	}
	c.deadlineLocked()
	if err := ship.WriteFrame(c.conn, v, body); err != nil {
		c.dropLocked()
		return 0, nil, err
	}
	rv, rbody, err := ship.ReadFrame(c.conn, 0)
	if err != nil {
		// Transport error or corrupt frame: the stream position is
		// unknown either way, so the connection is unusable.
		c.dropLocked()
		return 0, nil, err
	}
	if rv == ship.VError {
		we, derr := ship.DecodeWireError(rbody)
		if derr != nil {
			c.dropLocked()
			return 0, nil, derr
		}
		return 0, nil, we
	}
	return rv, rbody, nil
}

// result decodes a VResult response.
func result(v ship.Verb, body []byte) (*ship.Result, error) {
	if v != ship.VResult {
		return nil, fmt.Errorf("client: expected result, got %s", v)
	}
	return ship.DecodeResult(body)
}

// Ping probes server liveness.
func (c *Client) Ping() error {
	v, _, err := c.do(ship.VPing, nil, true)
	if err != nil {
		return err
	}
	if v != ship.VPong {
		return fmt.Errorf("client: expected pong, got %s", v)
	}
	return nil
}

// Stats fetches the server counters.
func (c *Client) Stats() (*ship.ServerStats, error) {
	v, body, err := c.do(ship.VStats, nil, true)
	if err != nil {
		return nil, err
	}
	if v != ship.VStatsOK {
		return nil, fmt.Errorf("client: expected stats, got %s", v)
	}
	var st ship.ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health probes the server's mode: ok, degraded or draining.
func (c *Client) Health() (*ship.Health, error) {
	v, body, err := c.do(ship.VHealth, nil, true)
	if err != nil {
		return nil, err
	}
	if v != ship.VHealthOK {
		return nil, fmt.Errorf("client: expected health, got %s", v)
	}
	var h ship.Health
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Install compiles and installs a TL module server-side. With retries
// enabled the request carries an idempotency key, so a retried install
// is applied exactly once.
func (c *Client) Install(source string) (*ship.Result, error) {
	req := &ship.Install{Source: source}
	if c.opts.Retries > 0 {
		req.IdemKey = c.NextIdemKey()
	}
	return c.InstallReq(req)
}

// InstallReq ships a pre-built install request, honouring a
// caller-chosen idempotency key.
func (c *Client) InstallReq(req *ship.Install) (*ship.Result, error) {
	v, body, err := c.do(ship.VInstall, req.Encode(), req.IdemKey != "")
	if err != nil {
		return nil, err
	}
	return result(v, body)
}

// Call applies an exported function of an installed module; an empty
// module name calls a closure previously saved by Submit. A call may
// execute arbitrary side-effecting code and carries no idempotency key,
// so transport failures mid-call are NOT retried — only refusals are.
func (c *Client) Call(module, fn string, args ...ship.WVal) (*ship.Result, error) {
	req := &ship.Call{Module: module, Fn: fn, Args: args}
	body, err := req.Encode()
	if err != nil {
		return nil, err
	}
	v, rbody, err := c.do(ship.VCall, body, false)
	if err != nil {
		return nil, err
	}
	return result(v, rbody)
}

// Optimize reflectively optimizes an installed function server-side.
// Optimizing twice converges to the same code, so it retries freely.
func (c *Client) Optimize(module, fn string) (*ship.Result, error) {
	v, body, err := c.do(ship.VOptimize, (&ship.Optimize{Module: module, Fn: fn}).Encode(), true)
	if err != nil {
		return nil, err
	}
	return result(v, body)
}

// Sync replays a batch of deferred keyed writes to a replica (the
// repair loop's verb). Every item carries its original idempotency key,
// so the whole request is idempotent by construction: a retried batch
// re-applies nothing, the server's dedup table answers for the items it
// already executed.
func (c *Client) Sync(items []ship.ShipItem) (*ship.SyncOK, error) {
	v, body, err := c.do(ship.VSync, (&ship.Sync{Items: items}).Encode(), true)
	if err != nil {
		return nil, err
	}
	if v != ship.VSyncOK {
		return nil, fmt.Errorf("client: expected sync-ok, got %s", v)
	}
	return ship.DecodeSyncOK(body)
}

// Digest fetches the server's per-root anti-entropy digests, optionally
// restricted to roots with the given name prefix. A pure read: retries
// freely.
func (c *Client) Digest(prefix string) (*ship.DigestOK, error) {
	v, body, err := c.do(ship.VDigest, (&ship.Digest{Prefix: prefix}).Encode(), true)
	if err != nil {
		return nil, err
	}
	if v != ship.VDigestOK {
		return nil, fmt.Errorf("client: expected digest-ok, got %s", v)
	}
	return ship.DecodeDigestOK(body)
}

// Submit ships a pre-encoded PTML request. With retries enabled and no
// caller-chosen key, a fresh idempotency key is attached so the server
// deduplicates retried executions (and in particular applies a save=
// exactly once).
func (c *Client) Submit(req *ship.Submit) (*ship.Result, error) {
	r := *req
	if r.IdemKey == "" && c.opts.Retries > 0 {
		r.IdemKey = c.NextIdemKey()
	}
	body, err := r.Encode()
	if err != nil {
		return nil, err
	}
	v, rbody, err := c.do(ship.VSubmit, body, r.IdemKey != "")
	if err != nil {
		return nil, err
	}
	return result(v, rbody)
}

// SubmitTML parses a TML application in concrete s-expression syntax,
// encodes it as PTML and submits it. Free variables named e and k
// become the server's exception and result continuations; every other
// free variable must appear in binds. Example:
//
//	res, err := c.SubmitTML("answer", "(+ 40 2 e cont(n) (k n))", nil, false, "")
func (c *Client) SubmitTML(name, src string, binds []ship.WBind, optimize bool, save string) (*ship.Result, error) {
	return c.SubmitTMLMerge(name, src, binds, optimize, save, ship.MergeAuto)
}

// SubmitTMLMerge is SubmitTML with an explicit scatter merge policy for
// cluster coordinators (see ship.Merge). A plain tycd server never sees
// the field, so against one this is exactly SubmitTML.
func (c *Client) SubmitTMLMerge(name, src string, binds []ship.WBind, optimize bool, save string, merge ship.Merge) (*ship.Result, error) {
	return c.SubmitTMLPlan(name, src, binds, optimize, save, merge, false)
}

// SubmitTMLPlan is SubmitTMLMerge plus the EXPLAIN flag: when explain
// is set, the server records the physical plan the query executed —
// chosen algorithms, estimated vs. actual cardinalities — and attaches
// its rendering to Result.Explain.
func (c *Client) SubmitTMLPlan(name, src string, binds []ship.WBind, optimize bool, save string, merge ship.Merge, explain bool) (*ship.Result, error) {
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	data, err := ptml.EncodeApp(app)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return c.Submit(&ship.Submit{
		Name:     name,
		PTML:     data,
		Binds:    binds,
		Optimize: optimize,
		Save:     save,
		Merge:    merge,
		Explain:  explain,
	})
}
