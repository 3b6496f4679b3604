// Server-lane benchmarks: loopback throughput of the tycd wire path at
// 1, 8 and 64 concurrent sessions submitting the E-benchmark selection
// as PTML. These are the benchmarks behind bench/BENCH_server.json.
// Every session submits the α-same term against the same binding, so
// after the first request the pipeline serves cached code and the lane
// measures the per-request server overhead — framing, PTML decode,
// cache lookup, execution, result encoding — rather than compilation;
// the hits/op metric confirms the shared cache carried the load.
package tycoon

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/relalg"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// startBenchServer serves an in-process tycd over a loopback listener
// with relation t(id, val), val = i % 97, 1000 rows, indexed on id.
func startBenchServer(b *testing.B) (*server.Server, string) {
	b.Helper()
	st, err := store.Open("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	srv, err := server.New(st, server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	tx := st.Begin()
	oid, err := relalg.CreateRelation(tx, "t", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "val", Type: store.ColInt},
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := relalg.InsertRow(tx, oid, []store.Val{store.IntVal(int64(i)), store.IntVal(int64(i % 97))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

const benchSelectSrc = `(select proc(x !ce !cc)
  ([] x 1 cont(a) (< a 50 cont() (cc true) cont() (cc false)))
  r e k)`

func benchSubmit(c *client.Client) (*ship.Result, error) {
	return c.SubmitTML("sel", benchSelectSrc,
		[]ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}},
		true, "")
}

// benchServerSessions measures end-to-end submit latency with nSess
// concurrent sessions sharing one server: b.N requests are spread
// round-robin-ish over the sessions, so ns/op is the aggregate
// wall-clock cost per request at that concurrency. retries > 0 enables
// client retries, which makes every submit carry an idempotency key and
// flow through the server's dedup table (where, being an effect-free
// read, it is executed but not retained) — the variant that pins the
// fault-tolerance machinery to zero happy-path overhead.
func benchServerSessions(b *testing.B, nSess, retries int) {
	srv, addr := startBenchServer(b)
	clients := make([]*client.Client, nSess)
	for i := range clients {
		c, err := client.Dial(addr, client.Options{
			Timeout: 2 * time.Minute,
			Client:  fmt.Sprintf("bench-%d", i),
			Retries: retries,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	// Warm the shared cache so the timed region measures the steady
	// state, not the single compilation.
	if res, err := benchSubmit(clients[0]); err != nil {
		b.Fatal(err)
	} else if got := len(res.Val.Rel.Rows); got != 530 {
		b.Fatalf("selection returned %d rows, want 530", got)
	}

	var pending int64 = int64(b.N)
	var hits int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for atomic.AddInt64(&pending, -1) >= 0 {
				res, err := benchSubmit(c)
				if err != nil {
					b.Error(err)
					return
				}
				if res.Info.CacheHit {
					atomic.AddInt64(&hits, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	p := srv.Stats().Pipeline
	if p.Misses != 1 {
		b.Fatalf("pipeline compiled %d times, want 1 (hits %d, shared %d)", p.Misses, p.Hits, p.Shared)
	}
	for _, c := range clients {
		if n := c.Retries(); n != 0 {
			b.Fatalf("a client retried %d times on a healthy loopback", n)
		}
	}
}

func BenchmarkServer_Sessions1(b *testing.B)  { benchServerSessions(b, 1, 0) }
func BenchmarkServer_Sessions8(b *testing.B)  { benchServerSessions(b, 8, 0) }
func BenchmarkServer_Sessions64(b *testing.B) { benchServerSessions(b, 64, 0) }

// BenchmarkServer_Sessions8Retry is Sessions8 with the retry machinery
// armed: idempotency keys on every request, dedup recording server-side.
// Comparing it against Sessions8 bounds the fault-tolerance overhead on
// the happy path; hits/op must stay 1.0 either way.
func BenchmarkServer_Sessions8Retry(b *testing.B) { benchServerSessions(b, 8, 5) }
