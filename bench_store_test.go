// Store-lane benchmarks: MVCC transaction commit throughput against a
// file-backed store at 1, 8 and 64 concurrent sessions. These are the
// benchmarks behind bench/BENCH_store.json.
//
// Every session updates its own object, so there are no conflicts and
// ns/op isolates the durable-commit path: snapshot open, write
// buffering, first-committer validation, and the group-committed fsync.
// At 1 session every commit pays a full fsync; at higher concurrency
// the group committer amortizes one fsync over the whole backlog, so
// aggregate throughput must scale well past the single-session line —
// the txns/batch metric shows how many transactions each disk flush
// carried.
package tycoon

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"tycoon/internal/store"
)

// startBenchStore opens a file-backed store with one blob object per
// session for the writers to update.
func startBenchStore(b *testing.B, nSess int) (*store.Store, []store.OID) {
	b.Helper()
	st, err := store.Open(filepath.Join(b.TempDir(), "bench.tyst"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	oids := make([]store.OID, nSess)
	tx := st.Begin()
	for i := range oids {
		oids[i] = tx.Alloc(&store.Blob{Bytes: []byte(fmt.Sprintf("session-%d", i))})
		tx.SetRoot(fmt.Sprintf("bench:%d", i), oids[i])
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return st, oids
}

// benchStoreSessions measures durable commit cost with nSess concurrent
// writers sharing one store: b.N transactions are spread over the
// sessions, so ns/op is the aggregate wall-clock cost per committed
// transaction at that concurrency.
func benchStoreSessions(b *testing.B, nSess int) {
	st, oids := startBenchStore(b, nSess)
	st0 := st.TxStats()

	var pending int64 = int64(b.N)
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < nSess; s++ {
		wg.Add(1)
		go func(oid store.OID) {
			defer wg.Done()
			n := 0
			for atomic.AddInt64(&pending, -1) >= 0 {
				n++
				tx := st.Begin()
				if err := tx.Update(oid, &store.Blob{Bytes: []byte(fmt.Sprintf("v%d", n))}); err != nil {
					b.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}(oids[s])
	}
	wg.Wait()
	b.StopTimer()

	stats := st.TxStats()
	committed := stats.Committed - st0.Committed
	if committed != uint64(b.N) {
		b.Fatalf("committed %d transactions, want %d", committed, b.N)
	}
	if conflicts := stats.Conflicts - st0.Conflicts; conflicts != 0 {
		b.Fatalf("%d conflicts on disjoint write sets", conflicts)
	}
	if batches := stats.Batches - st0.Batches; batches > 0 {
		b.ReportMetric(float64(stats.BatchTxns-st0.BatchTxns)/float64(batches), "txns/batch")
	}
}

func BenchmarkStore_Sessions1(b *testing.B)  { benchStoreSessions(b, 1) }
func BenchmarkStore_Sessions8(b *testing.B)  { benchStoreSessions(b, 8) }
func BenchmarkStore_Sessions64(b *testing.B) { benchStoreSessions(b, 64) }
