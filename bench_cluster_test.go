// Cluster-lane benchmarks: the distributed submit path at 1, 3 and 8
// shards, plus the hedged-read race against a deliberately straggling
// primary. These are the benchmarks behind bench/BENCH_cluster.json.
// Every iteration scatters the E-benchmark selection over the shard
// fleet and merges 530 rows back, so ns/op is the coordinator overhead
// (fan-out, per-shard wire hop, merge) on top of the single-node server
// lane; hits/op confirms each shard compiled the α-same term once and
// served the rest from its shared cache.
package tycoon

import (
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"tycoon/internal/cluster"
	"tycoon/internal/netfault"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/relalg"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// benchPTML encodes the benchmark selection once per benchmark.
func benchPTML(b *testing.B) []byte {
	b.Helper()
	app, err := tml.ParseApp(benchSelectSrc, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		b.Fatal(err)
	}
	data, err := ptml.EncodeApp(app)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// startBenchShard boots one tycd replica over an in-memory store loaded
// with the given slice of the benchmark relation.
func startBenchShard(b *testing.B, ids []int) string {
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
	for _, id := range ids {
		if err := relalg.InsertRow(tx, oid, []store.Val{store.IntVal(int64(id)), store.IntVal(int64(id % 97))}); err != nil {
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
	b.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// benchTopology partitions the 1000 benchmark rows by the topology's own
// placement and boots one replica per shard.
func benchTopology(b *testing.B, nShards int) cluster.Topology {
	b.Helper()
	topo := cluster.Topology{Shards: make([]cluster.Shard, nShards)}
	parts := make([][]int, nShards)
	for id := 0; id < 1000; id++ {
		s := topo.ShardFor(fmt.Sprintf("row:%d", id))
		parts[s] = append(parts[s], id)
	}
	for s := 0; s < nShards; s++ {
		topo.Shards[s].Replicas = []string{startBenchShard(b, parts[s])}
	}
	return topo
}

func benchCoordinator(b *testing.B, topo cluster.Topology, mod func(*cluster.Config)) *cluster.Coordinator {
	b.Helper()
	cfg := cluster.Config{
		Topology:      topo,
		Timeout:       2 * time.Minute,
		Retries:       2,
		ProbeInterval: -1,
		Seed:          1,
	}
	if mod != nil {
		mod(&cfg)
	}
	co, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	return co
}

// benchClusterShards measures the scatter submit at a given shard count:
// one coordinator fanning the selection out to nShards single-replica
// shards and concatenating the partial relations back to 530 rows.
func benchClusterShards(b *testing.B, nShards int) {
	co := benchCoordinator(b, benchTopology(b, nShards), nil)
	ptmlBytes := benchPTML(b)
	submit := func() *ship.Result {
		res, err := co.Submit(&ship.Submit{
			Name: "sel", PTML: ptmlBytes,
			Binds:    []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}},
			Optimize: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	// Warm every shard's pipeline cache: the steady state is what the
	// lane measures, and the oracle check pins correctness once.
	if res := submit(); len(res.Val.Rel.Rows) != 530 {
		b.Fatalf("scatter selection returned %d rows, want 530", len(res.Val.Rel.Rows))
	}

	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := submit()
		if res.Info.CacheHit { // AND across shards: every shard hit its cache
			hits++
		}
		if len(res.Val.Rel.Rows) != 530 {
			b.Fatalf("iteration %d returned %d rows", i, len(res.Val.Rel.Rows))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

func BenchmarkCluster_Shards1(b *testing.B) { benchClusterShards(b, 1) }
func BenchmarkCluster_Shards3(b *testing.B) { benchClusterShards(b, 3) }
func BenchmarkCluster_Shards8(b *testing.B) { benchClusterShards(b, 8) }

// benchHedged measures tail latency against a straggling primary: one
// shard with two replicas where the preferred one sits behind a proxy
// that delays every relayed segment. Unhedged, every read eats the
// primary's delay; hedged, the race promotes the clean standby after
// HedgeAfter. The p99-ms metric is reported, not asserted — wall-clock
// tails are machine-dependent, and the lane exists to compare the two
// variants in one artifact.
func benchHedged(b *testing.B, hedgeAfter time.Duration) {
	ids := make([]int, 1000)
	for i := range ids {
		ids[i] = i
	}
	primary := startBenchShard(b, ids)
	standby := startBenchShard(b, ids)
	slow, err := netfault.NewProxy(primary, netfault.Config{
		Seed:      1,
		DelayProb: 1.0,
		MaxDelay:  20 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { slow.Close() })

	topo := cluster.Topology{Shards: []cluster.Shard{{Replicas: []string{slow.Addr(), standby}}}}
	co := benchCoordinator(b, topo, func(cfg *cluster.Config) {
		cfg.HedgeAfter = hedgeAfter
	})
	ptmlBytes := benchPTML(b)
	submit := func() *ship.Result {
		res, err := co.Submit(&ship.Submit{
			Name: "sel", PTML: ptmlBytes,
			Binds:    []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}},
			Optimize: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	if res := submit(); len(res.Val.Rel.Rows) != 530 {
		b.Fatalf("selection returned %d rows, want 530", len(res.Val.Rel.Rows))
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		submit()
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if len(lat)*99/100 >= len(lat) {
		p99 = lat[len(lat)-1]
	}
	b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99-ms")
}

// BenchmarkCluster_Unhedged eats the straggler's delay on every read.
func BenchmarkCluster_Unhedged(b *testing.B) { benchHedged(b, 0) }

// BenchmarkCluster_Hedged races a second attempt after 5ms; p99-ms
// should land near the hedge threshold instead of the straggler delay.
func BenchmarkCluster_Hedged(b *testing.B) { benchHedged(b, 5*time.Millisecond) }
