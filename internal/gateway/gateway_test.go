package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/netfault"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// world boots an in-process tycd and a gateway over it, both torn down
// with the test.
func world(t *testing.T, cfg server.Config) (*Gateway, *httptest.Server, string, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "gw.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		st.Close()
	})
	g := New(Config{
		Backend: ln.Addr().String(),
		Client:  client.Options{Timeout: 30 * time.Second, Retries: 3, Seed: 1},
	})
	hs := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		g.Drain()
		hs.Close()
		g.Close()
	})
	return g, hs, ln.Addr().String(), st
}

func post(t *testing.T, url, body string, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestGatewayEndToEnd drives the whole REST surface against a live
// server: install, call, submit with binds and save, call-by-name,
// stats and health.
func TestGatewayEndToEnd(t *testing.T) {
	_, hs, _, _ := world(t, server.Config{})

	resp, body := post(t, hs.URL+"/v1/install",
		`{"source": "module gwm export inc let inc(a : Int) : Int = a + 1 end"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}

	resp, body = post(t, hs.URL+"/v1/call", `{"module":"gwm","fn":"inc","args":[41]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("call: %d %s", resp.StatusCode, body)
	}
	var res struct {
		Value json.Number `json:"value"`
		Info  struct {
			Steps int64 `json:"steps"`
		} `json:"info"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("call response %s: %v", body, err)
	}
	if res.Value.String() != "42" {
		t.Fatalf("inc(41) = %s", res.Value)
	}
	if res.Info.Steps <= 0 {
		t.Fatalf("no steps charged: %s", body)
	}

	// Submit with a bind and save; then call the saved closure.
	resp, body = post(t, hs.URL+"/v1/submit",
		`{"tml": "(+ x 2 e cont(n) (k n))", "binds": {"x": 40}, "save": "gwans"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, hs.URL+"/v1/call", `{"fn":"gwans"}`)
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"value":42`)) {
		t.Fatalf("call saved: %d %s", resp.StatusCode, body)
	}

	// Stats carry both sides.
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Server  *ship.ServerStats `json:"server"`
		Gateway *Stats            `json:"gateway"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats %s: %v", data, err)
	}
	if stats.Server == nil || stats.Server.TotalSessions == 0 {
		t.Fatalf("stats carry no server block: %s", data)
	}
	if stats.Gateway == nil || stats.Gateway.Submits != 1 || stats.Gateway.Calls != 2 || stats.Gateway.Installs != 1 {
		t.Fatalf("gateway counters wrong: %s", data)
	}

	resp, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Contains(data, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}
}

// TestGatewayErrorMapping pins the wire-code → HTTP-status table on
// real failures, and that the server survives every one of them
// ("server unharmed": a valid request still works afterwards).
func TestGatewayErrorMapping(t *testing.T) {
	_, hs, _, _ := world(t, server.Config{})

	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"malformed json", "/v1/submit", `{"tml": `, 400, "bad-request"},
		{"unknown field", "/v1/submit", `{"tml":"(k 1 e k)","nope":1}`, 400, "bad-request"},
		{"bad tml", "/v1/submit", `{"tml":"(((("}`, 400, "bad-request"},
		{"bad value kind", "/v1/call", `{"fn":"x","args":[[1,2]]}`, 400, "bad-request"},
		{"bad bind", "/v1/submit", `{"tml":"(k x e k)","binds":{"x":{"zelda":1}}}`, 400, "bad-request"},
		{"missing fn", "/v1/call", `{"module":"m"}`, 400, "bad-request"},
		{"not found", "/v1/call", `{"module":"nosuch","fn":"f"}`, 404, "not-found"},
		{"compile error", "/v1/install", `{"source":"module bad export f let f(a : Int) : Int = b end"}`, 422, "compile"},
		{"exec error", "/v1/submit", `{"tml":"(/ 1 0 e cont(n) (k n))"}`, 422, "exec"},
	}
	for _, c := range cases {
		resp, body := post(t, hs.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d %s, want %d", c.name, resp.StatusCode, body, c.status)
		}
		var e errJSON
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: error body %s: %v", c.name, body, err)
		}
		if e.Err.Code != c.code {
			t.Fatalf("%s: code %q, want %q", c.name, e.Err.Code, c.code)
		}
	}

	// After all that abuse a normal request still answers.
	resp, body := post(t, hs.URL+"/v1/submit", `{"tml":"(+ 40 2 e cont(n) (k n))"}`)
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"value":42`)) {
		t.Fatalf("server harmed: %d %s", resp.StatusCode, body)
	}
}

// answer renders err the way the gateway answers a failed request:
// status, decoded error body and the Retry-After header.
func answer(t *testing.T, err error) (int, errJSON, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	New(Config{}).writeError(rec, err)
	var e errJSON
	if jerr := json.Unmarshal(rec.Body.Bytes(), &e); jerr != nil {
		t.Fatalf("error body %s: %v", rec.Body.Bytes(), jerr)
	}
	return rec.Code, e, rec.Header().Get("Retry-After")
}

// TestGatewayReplicaDownRetryable: a coordinator's replica-down refusal
// applied nothing anywhere, so HTTP clients are told to back off and
// retry (503 + Retry-After), not that the request failed for good.
func TestGatewayReplicaDownRetryable(t *testing.T) {
	status, e, after := answer(t, &ship.WireError{Code: ship.CodeReplicaDown, Msg: "r1 down", RetryAfterMs: 50})
	if status != http.StatusServiceUnavailable || !e.Err.Retryable || e.Err.RetryAfterMs != 50 || after == "" {
		t.Fatalf("replica-down → %d retryable=%t retry_after_ms=%d Retry-After=%q, want 503 true 50 set",
			status, e.Err.Retryable, e.Err.RetryAfterMs, after)
	}
}

// TestGatewayDegradedNotRetryable: a degraded write was already
// published in memory and stays queued for the next flush, so an
// unkeyed resend would apply it twice. HTTP clients must not be told to
// retry it.
func TestGatewayDegradedNotRetryable(t *testing.T) {
	status, e, after := answer(t, &ship.WireError{Code: ship.CodeDegraded, Msg: "fsync failed"})
	if status != http.StatusInternalServerError || e.Err.Retryable || after != "" {
		t.Fatalf("degraded → %d retryable=%t Retry-After=%q, want 500 false unset", status, e.Err.Retryable, after)
	}
}

// TestGatewayBodyLimit pins the request-size bound: a body one byte
// over MaxBody is 400 without touching the server, one at the limit is
// processed normally.
func TestGatewayBodyLimit(t *testing.T) {
	st, err := store.Open("")
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
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	const limit = 512
	g := New(Config{
		Backend: ln.Addr().String(),
		MaxBody: limit,
		Client:  client.Options{Timeout: 30 * time.Second, Retries: 1, Seed: 1},
	})
	hs := httptest.NewServer(g.Handler())
	defer func() { hs.Close(); g.Close() }()

	// Pad a valid request to exactly the limit with name characters.
	mk := func(size int) string {
		base := `{"tml":"(+ 40 2 e cont(n) (k n))","name":""}`
		pad := size - len(base)
		if pad < 0 {
			t.Fatalf("limit %d too small for the probe", size)
		}
		return strings.Replace(base, `"name":""`, `"name":"`+strings.Repeat("x", pad)+`"`, 1)
	}
	at := mk(limit)
	if len(at) != limit {
		t.Fatalf("probe is %d bytes, want %d", len(at), limit)
	}
	resp, body := post(t, hs.URL+"/v1/submit", at)
	if resp.StatusCode != 200 {
		t.Fatalf("at-limit body refused: %d %s", resp.StatusCode, body)
	}
	before := srv.Stats().Verbs["submit"].Count
	resp, body = post(t, hs.URL+"/v1/submit", mk(limit)+" ")
	if resp.StatusCode != 400 {
		t.Fatalf("over-limit body: %d %s, want 400", resp.StatusCode, body)
	}
	if after := srv.Stats().Verbs["submit"].Count; after != before {
		t.Fatalf("over-limit body reached the server (%d → %d submits)", before, after)
	}
	if DefaultMaxBody != 1<<20 {
		t.Fatalf("DefaultMaxBody = %d, want %d (documented bound)", DefaultMaxBody, 1<<20)
	}
}

// TestGatewayWatchSSE subscribes over SSE, commits a matching root and
// asserts the event arrives with its CSN as the SSE id.
func TestGatewayWatchSSE(t *testing.T) {
	_, hs, _, _ := world(t, server.Config{})

	req, err := http.NewRequest("GET", hs.URL+"/v1/watch?pattern=srv:sse-*", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("watch: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	expect := func(prefix string) string {
		t.Helper()
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			if !strings.HasPrefix(line, prefix) {
				t.Fatalf("SSE line %q, want prefix %q", line, prefix)
			}
			return strings.TrimPrefix(line, prefix)
		}
		t.Fatalf("SSE stream ended waiting for %q: %v", prefix, sc.Err())
		return ""
	}
	expect("event: ready")
	expect("id: ")
	expect("data: ")

	// Commit a matching root through the HTTP API itself.
	resp2, body := post(t, hs.URL+"/v1/submit", `{"tml":"(+ 1 2 e cont(n) (k n))","save":"sse-a"}`)
	if resp2.StatusCode != 200 {
		t.Fatalf("submit: %d %s", resp2.StatusCode, body)
	}

	expect("event: change")
	id := expect("id: ")
	data := expect("data: ")
	var ev struct {
		Root string `json:"root"`
		CSN  uint64 `json:"csn"`
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("event data %q: %v", data, err)
	}
	if ev.Root != "srv:sse-a" {
		t.Fatalf("event root %q", ev.Root)
	}
	if id != fmt.Sprint(ev.CSN) {
		t.Fatalf("SSE id %q, event CSN %d — resume-by-Last-Event-ID would break", id, ev.CSN)
	}
}

// TestGatewayChaos puts a fault proxy between the gateway and the
// server, drops every connection mid-run, and checks the open-
// environment contract: HTTP retries with one Idempotency-Key never
// double-apply a keyed write, refusals carry Retry-After, and drain
// leaks no sessions.
func TestGatewayChaos(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "chaos.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(st, server.Config{})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer st.Close()

	px, err := netfault.NewProxy(ln.Addr().String(), netfault.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	g := New(Config{
		Backend: px.Addr(),
		Client:  client.Options{Timeout: 30 * time.Second, Retries: 8, Seed: 3},
	})
	hs := httptest.NewServer(g.Handler())
	defer hs.Close()

	// A keyed counter submit: every applied submit bumps srv:chaos-N.
	// The HTTP client retries each one with the SAME key across a
	// connection massacre; each must land exactly once.
	const writes = 12
	for i := 0; i < writes; i++ {
		if i == writes/3 {
			px.DropAll()
		}
		body := fmt.Sprintf(`{"tml":"(+ %d 1 e cont(n) (k n))","save":"chaos-%d"}`, i, i)
		key := fmt.Sprintf("chaos-key-%d", i)
		var applied int
		for attempt := 0; attempt < 4; attempt++ {
			resp, data := post(t, hs.URL+"/v1/submit", body, "Idempotency-Key", key)
			if resp.StatusCode == 200 {
				applied++
				if !bytes.Contains(data, []byte(fmt.Sprintf(`"value":%d`, i+1))) {
					t.Fatalf("write %d wrong answer: %s", i, data)
				}
				continue // retry the SAME request again: must dedup, not re-apply
			}
			var e errJSON
			if err := json.Unmarshal(data, &e); err != nil || !e.Err.Retryable {
				t.Fatalf("write %d attempt %d: %d %s", i, attempt, resp.StatusCode, data)
			}
		}
		if applied == 0 {
			t.Fatalf("write %d never applied", i)
		}
	}
	// Exactly-once check: the server's dedup must have served the repeat
	// HTTP attempts from the record, so every root holds its one value.
	check, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		res, err := check.Call("", fmt.Sprintf("chaos-%d", i))
		if err != nil {
			t.Fatalf("read back chaos-%d: %v", i, err)
		}
		if res.Val.Int != int64(i)+1 {
			t.Fatalf("chaos-%d = %s, want %d", i, res.Val.Show(), i+1)
		}
	}
	check.Close()
	if ds := srv.Stats().IdemDeduped; ds == 0 {
		t.Fatal("no retry was ever deduplicated: the idempotency path went untested")
	}

	// Refusals carry Retry-After: drain the server and hit it again.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("server drain: %v", err)
	}
	resp, data := post(t, hs.URL+"/v1/submit", `{"tml":"(+ 1 1 e cont(n) (k n))"}`)
	if resp.StatusCode != 503 && resp.StatusCode != 502 {
		t.Fatalf("submit against drained server: %d %s", resp.StatusCode, data)
	}
	if resp.StatusCode == 503 && resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Drain the gateway: no leaked wire sessions (the server is gone, so
	// leaked sessions would show as clients never saying bye — assert
	// via the gateway side: Close drains the pool without blocking).
	g.Drain()
	done := make(chan struct{})
	go func() { g.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("gateway Close hung: leaked pool session")
	}
	resp, _ = http.Get(hs.URL + "/v1/healthz")
	if resp.StatusCode != 503 {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestGatewayOverloadRetryAfter forces a 429 through a one-inflight
// server and checks the Retry-After header surfaces.
func TestGatewayOverloadRetryAfter(t *testing.T) {
	g, hs, _, st := world(t, server.Config{MaxInflight: 1})

	// Occupy the single inflight slot with a slow submit: a countdown of
	// two million self-applications keeps the slot held for a while.
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		post(t, hs.URL+"/v1/submit", `{"tml":"(proc(f n !ce !cc) (< n 1 cont() (cc n) cont() (- n 1 ce cont(m) (f f m ce cc))) proc(f n !ce !cc) (< n 1 cont() (cc n) cont() (- n 1 ce cont(m) (f f m ce cc))) 2000000 e k)"}`)
	}()
	// Hammer only once it runs: its transaction's snapshot is open.
	deadline := time.Now().Add(10 * time.Second)
	for st.TxStats().OpenSnapshots < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the slow submit opened no snapshot")
		}
		time.Sleep(time.Millisecond)
	}

	// Hammer until a 429 shows (the gateway's wire client does not
	// retry here: Retries must be 0 for the refusal to surface — use a
	// raw second gateway with no retries).
	g2 := New(Config{
		Backend: gBackend(t, g),
		Client:  client.Options{Timeout: 30 * time.Second, Seed: 9},
	})
	hs2 := httptest.NewServer(g2.Handler())
	defer func() { hs2.Close(); g2.Close() }()
	saw429 := false
	for i := 0; i < 200 && !saw429; i++ {
		resp, _ := post(t, hs2.URL+"/v1/submit", `{"tml":"(+ 1 1 e cont(n) (k n))"}`)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			saw429 = true
		}
	}
	<-slow
	if !saw429 {
		t.Skip("never collided with the inflight limit (machine too fast); mapping covered by unit table")
	}
}

// gBackend exposes the backend address of a gateway for tests.
func gBackend(t *testing.T, g *Gateway) string {
	t.Helper()
	return g.cfg.Backend
}
