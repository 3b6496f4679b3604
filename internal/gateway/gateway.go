package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"tycoon/internal/client"
	"tycoon/internal/ship"
)

// Defaults for Config zero values.
const (
	// DefaultSessions is the wire-session pool size: HTTP requests beyond
	// it queue for a session instead of opening unbounded connections.
	DefaultSessions = 4
	// DefaultMaxBody bounds an HTTP request body. A larger body is
	// answered 400 without being read further — the limit exists so a
	// hostile payload cannot balloon gateway memory, and it is pinned by
	// a bounds test.
	DefaultMaxBody = 1 << 20
)

// Config parameterises a Gateway.
type Config struct {
	// Backend is the tycd (or tycc) wire address.
	Backend string
	// Sessions is the wire-session pool size (0: DefaultSessions).
	Sessions int
	// Client configures the pooled wire sessions (timeout, retries,
	// backoff). Retries should be on: the gateway leans on the wire
	// client for reconnects and idempotent retry.
	Client client.Options
	// MaxBody bounds a request body in bytes (0: DefaultMaxBody).
	MaxBody int64
}

// Stats are the gateway-side counters, served under "gateway" by
// GET /v1/stats next to the backend's ServerStats.
type Stats struct {
	Sessions      int   `json:"sessions"` // pool capacity
	Requests      int64 `json:"requests"` // HTTP requests handled
	Failures      int64 `json:"failures"` // requests answered with an error status
	Submits       int64 `json:"submits"`
	Calls         int64 `json:"calls"`
	Installs      int64 `json:"installs"`
	Watches       int64 `json:"watches"`        // SSE subscriptions ever opened
	ActiveWatches int   `json:"active_watches"` // SSE subscriptions streaming now
	WatchEvents   int64 `json:"watch_events"`   // notifications pushed over SSE
}

// Gateway serves the HTTP/JSON front end over a pool of wire sessions.
type Gateway struct {
	cfg  Config
	pool chan *client.Client // nil slot: session not yet dialled

	mu       sync.Mutex
	watchers map[*client.Watcher]struct{}
	draining bool

	requests, failures                atomic.Int64
	submits, calls, installs, watches atomic.Int64
	watchEvents                       atomic.Int64
}

// New builds a Gateway. Sessions are dialled lazily, so a gateway can
// boot before (or survive a restart of) its backend.
func New(cfg Config) *Gateway {
	if cfg.Sessions <= 0 {
		cfg.Sessions = DefaultSessions
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Client.Client == "" {
		cfg.Client.Client = "tycgw"
	}
	g := &Gateway{
		cfg:      cfg,
		pool:     make(chan *client.Client, cfg.Sessions),
		watchers: make(map[*client.Watcher]struct{}),
	}
	for i := 0; i < cfg.Sessions; i++ {
		g.pool <- nil
	}
	return g
}

// Handler routes the /v1 API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", g.handleSubmit)
	mux.HandleFunc("POST /v1/call", g.handleCall)
	mux.HandleFunc("POST /v1/install", g.handleInstall)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/watch", g.handleWatch)
	return mux
}

// Drain refuses new work and terminates the SSE streams (which would
// otherwise hold http.Server.Shutdown open forever). Call it before
// shutting the HTTP server down.
func (g *Gateway) Drain() {
	g.mu.Lock()
	g.draining = true
	ws := make([]*client.Watcher, 0, len(g.watchers))
	for w := range g.watchers {
		ws = append(ws, w)
	}
	g.mu.Unlock()
	for _, w := range ws {
		w.Close()
	}
}

// Close releases the pooled wire sessions. Call after the HTTP server
// has shut down.
func (g *Gateway) Close() {
	for i := 0; i < cap(g.pool); i++ {
		if c := <-g.pool; c != nil {
			c.Close()
		}
	}
}

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	active := len(g.watchers)
	g.mu.Unlock()
	return Stats{
		Sessions:      cap(g.pool),
		Requests:      g.requests.Load(),
		Failures:      g.failures.Load(),
		Submits:       g.submits.Load(),
		Calls:         g.calls.Load(),
		Installs:      g.installs.Load(),
		Watches:       g.watches.Load(),
		ActiveWatches: active,
		WatchEvents:   g.watchEvents.Load(),
	}
}

// acquire leases a wire session from the pool, dialling the slot on
// first use. release returns it — also after request errors, because
// the wire client re-dials internally and never reuses a connection
// whose stream position is in doubt.
func (g *Gateway) acquire(ctx context.Context) (*client.Client, error) {
	select {
	case c := <-g.pool:
		if c != nil {
			return c, nil
		}
		c, err := client.Dial(g.cfg.Backend, g.cfg.Client)
		if err != nil {
			g.pool <- nil
			return nil, err
		}
		return c, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *Gateway) release(c *client.Client) { g.pool <- c }

// readBody slurps a bounded request body; a body over the limit is a
// 400, not a 413 — the request never reached the server and the
// decoder contract is "every unacceptable body maps to 400".
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			g.writeError(w, badRequestf("request body exceeds %d bytes", g.cfg.MaxBody))
		} else {
			g.writeError(w, badRequestf("read body: %v", err))
		}
		return nil, false
	}
	return data, true
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	data, ok := g.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeSubmitRequest(data)
	if err != nil {
		g.writeError(w, badRequestf("%v", err))
		return
	}
	// The client-supplied key makes HTTP-level retries exactly-once:
	// both attempts reach the server under one key and the second is
	// answered from the idempotency record. Without the header the wire
	// client still keys its own wire-level retries.
	req.IdemKey = r.Header.Get("Idempotency-Key")
	c, err := g.acquire(r.Context())
	if err != nil {
		g.writeError(w, err)
		return
	}
	res, err := c.Submit(req)
	g.release(c)
	if err != nil {
		g.writeError(w, err)
		return
	}
	g.submits.Add(1)
	g.writeResult(w, res)
}

func (g *Gateway) handleCall(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	data, ok := g.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeCallRequest(data)
	if err != nil {
		g.writeError(w, badRequestf("%v", err))
		return
	}
	c, err := g.acquire(r.Context())
	if err != nil {
		g.writeError(w, err)
		return
	}
	res, err := c.Call(req.Module, req.Fn, req.Args...)
	g.release(c)
	if err != nil {
		g.writeError(w, err)
		return
	}
	g.calls.Add(1)
	g.writeResult(w, res)
}

func (g *Gateway) handleInstall(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	data, ok := g.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeInstallRequest(data)
	if err != nil {
		g.writeError(w, badRequestf("%v", err))
		return
	}
	req.IdemKey = r.Header.Get("Idempotency-Key")
	c, err := g.acquire(r.Context())
	if err != nil {
		g.writeError(w, err)
		return
	}
	res, err := c.InstallReq(req)
	g.release(c)
	if err != nil {
		g.writeError(w, err)
		return
	}
	g.installs.Add(1)
	g.writeResult(w, res)
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	c, err := g.acquire(r.Context())
	if err != nil {
		g.writeError(w, err)
		return
	}
	ss, err := c.Stats()
	g.release(c)
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"server": ss, "gateway": g.Stats()})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	if draining {
		g.failures.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	c, err := g.acquire(r.Context())
	if err != nil {
		g.writeError(w, err)
		return
	}
	h, err := c.Health()
	g.release(c)
	if err != nil {
		g.writeError(w, err)
		return
	}
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
		g.failures.Add(1)
	}
	writeJSON(w, status, h)
}

// handleWatch serves one WATCH subscription as a server-sent event
// stream. Patterns come from repeated ?pattern= parameters; the resume
// position from ?since= or — the SSE-native way, sent automatically by
// EventSource on reconnect — the Last-Event-ID header, since every
// event's id is its CSN.
func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	patterns := r.URL.Query()["pattern"]
	if len(patterns) == 0 {
		g.writeError(w, badRequestf("missing ?pattern= (use pattern=* for everything)"))
		return
	}
	var since uint64
	if s := r.Header.Get("Last-Event-ID"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			g.writeError(w, badRequestf("bad Last-Event-ID %q", s))
			return
		}
		since = v
	} else if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			g.writeError(w, badRequestf("bad ?since= %q", s))
			return
		}
		since = v
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		g.writeError(w, fmt.Errorf("response writer cannot stream"))
		return
	}

	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.writeError(w, &ship.WireError{Code: ship.CodeShutdown, Msg: "gateway is draining"})
		return
	}
	g.mu.Unlock()

	wt, err := client.NewWatcher(g.cfg.Backend, patterns, since, g.cfg.Client)
	if err != nil {
		g.writeError(w, err)
		return
	}
	g.mu.Lock()
	if g.draining {
		// Drain raced the subscribe; do not leak a stream it cannot see.
		g.mu.Unlock()
		wt.Close()
		g.writeError(w, &ship.WireError{Code: ship.CodeShutdown, Msg: "gateway is draining"})
		return
	}
	g.watchers[wt] = struct{}{}
	g.mu.Unlock()
	g.watches.Add(1)
	defer func() {
		g.mu.Lock()
		delete(g.watchers, wt)
		g.mu.Unlock()
		wt.Close()
	}()
	// A vanished HTTP client unblocks Next via Close.
	stop := context.AfterFunc(r.Context(), func() { wt.Close() })
	defer stop()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: ready\nid: %d\ndata: {\"csn\":%d}\n\n", wt.Pos(), wt.Pos())
	fl.Flush()

	for {
		ev, err := wt.Next()
		if err != nil {
			if errors.Is(err, client.ErrWatcherClosed) || r.Context().Err() != nil {
				return // drained, or the peer went away
			}
			data, _ := json.Marshal(errBody(err).Err)
			fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
		g.watchEvents.Add(1)
		data, _ := json.Marshal(map[string]any{
			"root": ev.Root, "oid": ev.OID, "csn": ev.CSN, "more": ev.More,
		})
		fmt.Fprintf(w, "event: change\nid: %d\ndata: %s\n\n", ev.CSN, data)
		if !ev.More {
			fl.Flush() // flush whole commits, never a torn prefix
		}
	}
}

// --- responses --------------------------------------------------------------

type resultJSON struct {
	Value   any      `json:"value"`
	Info    infoJSON `json:"info"`
	Partial bool     `json:"partial,omitempty"`
	Missing []string `json:"missing,omitempty"`
	Explain string   `json:"explain,omitempty"`
}

type infoJSON struct {
	Steps    int64 `json:"steps"`
	Micros   int64 `json:"micros"`
	CacheHit bool  `json:"cache_hit,omitempty"`
	Shared   bool  `json:"shared,omitempty"`
	Rewrites int64 `json:"rewrites,omitempty"`
	Inlined  int64 `json:"inlined,omitempty"`
}

func (g *Gateway) writeResult(w http.ResponseWriter, res *ship.Result) {
	v, err := encodeValue(res.Val)
	if err != nil {
		g.writeError(w, fmt.Errorf("encode result: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, resultJSON{
		Value: v,
		Info: infoJSON{
			Steps: res.Info.Steps, Micros: res.Info.Micros,
			CacheHit: res.Info.CacheHit, Shared: res.Info.Shared,
			Rewrites: res.Info.Rewrites, Inlined: res.Info.Inlined,
		},
		Partial: res.Partial,
		Missing: res.Missing,
		Explain: res.Explain,
	})
}

// --- error mapping ----------------------------------------------------------

// badRequest marks a failure that never left the gateway: malformed
// JSON, TML syntax, a body over the limit. Always HTTP 400.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequest{fmt.Sprintf(format, args...)}
}

type errJSON struct {
	Err struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		Retryable    bool   `json:"retryable"`
		RetryAfterMs uint32 `json:"retry_after_ms,omitempty"`
	} `json:"error"`
}

func errBody(err error) errJSON {
	var body errJSON
	_, code, retryable, retryAfter := httpStatus(err)
	body.Err.Code = code
	body.Err.Message = err.Error()
	body.Err.Retryable = retryable
	body.Err.RetryAfterMs = retryAfter
	return body
}

// httpStatus maps a failure onto the HTTP surface: status, stable code
// string, whether a retry can succeed, and the backoff hint. A wire
// error's status is its row in ship's per-code policy table; the status
// alone decides retryability.
func httpStatus(err error) (status int, code string, retryable bool, retryAfterMs uint32) {
	var br *badRequest
	var we *ship.WireError
	switch {
	case errors.As(err, &br):
		status, code = http.StatusBadRequest, "bad-request"
	case errors.As(err, &we):
		p := we.Code.Policy()
		status, code, retryAfterMs = p.HTTP, p.Name, we.RetryAfterMs
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status, code = 499, "canceled" // nginx's client-closed-request
	default:
		// Transport-level: the backend is unreachable (dial failed, or the
		// retries ran out). The gateway is up; the backend may come back.
		status, code, retryAfterMs = http.StatusBadGateway, "unreachable", 1000
	}
	switch status {
	case http.StatusConflict, http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return status, code, true, retryAfterMs
	}
	return status, code, false, 0
}

func (g *Gateway) writeError(w http.ResponseWriter, err error) {
	g.failures.Add(1)
	status, _, _, retryAfterMs := httpStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// 429/503 always carry Retry-After, defaulting to one second when
		// the server gave no hint.
		secs := (int64(retryAfterMs) + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errBody(err))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
