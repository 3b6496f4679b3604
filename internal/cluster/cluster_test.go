package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/cluster"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// mustPTML parses concrete TML and encodes it, exactly as the client's
// SubmitTML does before shipping.
func mustPTML(t *testing.T, src string) []byte {
	t.Helper()
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	data, err := ptml.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// selectSrc is the Stanford-benchmark selection shape: rows of t whose
// second column is < 50. Over rows (id, id%97), id in [0,1000), that is
// 530 rows on a single node — the oracle for every distributed variant.
const selectSrc = `(select proc(x !ce !cc)
  ([] x 1 cont(a) (< a 50 cont() (cc true) cont() (cc false)))
  r e k)`

const oracleRows = 530

func relBind() []ship.WBind {
	return []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}
}

func selectSubmit(t *testing.T) *ship.Submit {
	return &ship.Submit{Name: "sel", PTML: mustPTML(t, selectSrc), Binds: relBind(), Optimize: true}
}

// replicaProc is one in-process tycd shard replica.
type replicaProc struct {
	srv   *server.Server
	st    *store.Store
	dedup *server.Dedup
	ln    net.Listener
	addr  string
}

func (r *replicaProc) kill(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown replica: %v", err)
	}
}

// revive boots a fresh server over the replica's surviving store and
// idempotency table, listening on the same address, the way a restarted
// tycd rejoins the cluster.
func (r *replicaProc) revive(t *testing.T) {
	t.Helper()
	srv, err := server.New(r.st, server.Config{RetryAfter: 2 * time.Millisecond, Dedup: r.dedup})
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		if attempt >= 50 {
			t.Fatalf("relisten %s: %v", r.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv.Serve(ln)
	r.srv, r.ln = srv, ln
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
}

// startReplica boots a tycd over a fresh in-memory store loaded with
// relation t(id, val), val = id%97, for the given ids.
func startReplica(t *testing.T, ids []int) *replicaProc {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	dedup := server.NewDedup(0)
	srv, err := server.New(st, server.Config{RetryAfter: 2 * time.Millisecond, Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	mg := srv.Manager()
	oid, err := mg.CreateRelation("t", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "val", Type: store.ColInt},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := mg.InsertRow(oid, []store.Val{store.IntVal(int64(id)), store.IntVal(int64(id % 97))}); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	rp := &replicaProc{srv: srv, st: st, dedup: dedup, ln: ln, addr: ln.Addr().String()}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rp.srv.Shutdown(ctx)
	})
	return rp
}

// partitionIDs splits ids [0,1000) over the shards the way an operator
// loading a sharded cluster would: by the topology's own placement of
// the row key, so the test can predict exactly which rows vanish with a
// shard.
func partitionIDs(topo cluster.Topology) [][]int {
	parts := make([][]int, topo.N())
	for id := 0; id < 1000; id++ {
		s := topo.ShardFor(fmt.Sprintf("row:%d", id))
		parts[s] = append(parts[s], id)
	}
	return parts
}

func expectSelected(ids []int) int {
	n := 0
	for _, id := range ids {
		if id%97 < 50 {
			n++
		}
	}
	return n
}

// testCluster is a booted shard fleet plus its coordinator.
type testCluster struct {
	co       *cluster.Coordinator
	topo     cluster.Topology
	replicas [][]*replicaProc // [shard][replica]
	parts    [][]int
}

// bootCluster starts nShards×nReplicas tycd processes loaded with the
// partitioned benchmark relation and a coordinator over them. mod may
// adjust the coordinator config before it starts.
func bootCluster(t *testing.T, nShards, nReplicas int, mod func(*cluster.Config)) *testCluster {
	t.Helper()
	topo := cluster.Topology{Shards: make([]cluster.Shard, nShards)}
	parts := partitionIDs(topo)
	tc := &testCluster{topo: topo, parts: parts}
	tc.replicas = make([][]*replicaProc, nShards)
	for s := 0; s < nShards; s++ {
		for r := 0; r < nReplicas; r++ {
			rp := startReplica(t, parts[s])
			tc.replicas[s] = append(tc.replicas[s], rp)
			topo.Shards[s].Replicas = append(topo.Shards[s].Replicas, rp.addr)
		}
	}
	cfg := cluster.Config{
		Topology:      topo,
		Timeout:       30 * time.Second,
		Retries:       2,
		RetryBase:     time.Millisecond,
		RetryMax:      10 * time.Millisecond,
		RetryAfter:    2 * time.Millisecond,
		ProbeInterval: -1, // tests control health by hand
		Seed:          1,
	}
	if mod != nil {
		mod(&cfg)
	}
	co, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	tc.co = co
	tc.topo = topo
	return tc
}

// rowIDs extracts the sorted id column of a relation result.
func rowIDs(t *testing.T, res *ship.Result) []int64 {
	t.Helper()
	if res.Val.Kind != ship.WRel || res.Val.Rel == nil {
		t.Fatalf("result is %s, want a relation", res.Val.Show())
	}
	ids := make([]int64, 0, len(res.Val.Rel.Rows))
	for _, row := range res.Val.Rel.Rows {
		ids = append(ids, row[0].Int)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func wantCode(t *testing.T, err error, code ship.ErrCode) *ship.WireError {
	t.Helper()
	var we *ship.WireError
	if !errors.As(err, &we) {
		t.Fatalf("got %v, want a wire error with code %s", err, code)
	}
	if we.Code != code {
		t.Fatalf("got code %s (%v), want %s", we.Code, we, code)
	}
	return we
}

// --- placement --------------------------------------------------------------

func TestTopologyPlacement(t *testing.T) {
	if err := (cluster.Topology{}).Validate(); err == nil {
		t.Fatal("empty topology validated")
	}
	if err := (cluster.Topology{Shards: []cluster.Shard{{}}}).Validate(); err == nil {
		t.Fatal("shard without replicas validated")
	}
	for _, n := range []int{1, 2, 3, 8, 13} {
		topo := cluster.Topology{Shards: make([]cluster.Shard, n)}
		for i := range topo.Shards {
			topo.Shards[i].Replicas = []string{"x"}
		}
		// Ranges tile the ring: contiguous, starting at 0, last wraps.
		var prev cluster.Range
		for i := 0; i < n; i++ {
			r := topo.RangeOf(i)
			if i == 0 && r.Lo != 0 {
				t.Fatalf("n=%d: first range starts at %#x", n, r.Lo)
			}
			if i > 0 && r.Lo != prev.Hi {
				t.Fatalf("n=%d: gap between shard %d and %d", n, i-1, i)
			}
			if i == n-1 && r.Hi != 0 {
				t.Fatalf("n=%d: last range does not wrap: %v", n, r)
			}
			prev = r
		}
		// ShardFor agrees with range membership and is deterministic.
		for k := 0; k < 200; k++ {
			key := fmt.Sprintf("key-%d", k)
			s := topo.ShardFor(key)
			if s != topo.ShardFor(key) {
				t.Fatalf("placement of %q not deterministic", key)
			}
			if !topo.RangeOf(s).Contains(cluster.KeyHash(key)) {
				t.Fatalf("n=%d: %q routed to shard %d but hash outside its range", n, key, s)
			}
		}
		// Missing-range names parse back to the shard index.
		for i := 0; i < n; i++ {
			got, ok := cluster.ParseMissing(topo.MissingName(i))
			if !ok || got != i {
				t.Fatalf("MissingName(%d) = %q does not parse back", i, topo.MissingName(i))
			}
		}
	}
	// 3 shards must each own some of the 1000 row keys (sanity that the
	// partition tests exercise every shard).
	topo := cluster.Topology{Shards: []cluster.Shard{
		{Replicas: []string{"a"}}, {Replicas: []string{"b"}}, {Replicas: []string{"c"}},
	}}
	for s, part := range partitionIDs(topo) {
		if len(part) == 0 {
			t.Fatalf("shard %d owns no rows", s)
		}
	}
}

// --- scatter reads vs the single-node oracle --------------------------------

func TestScatterMatchesSingleNodeOracle(t *testing.T) {
	tc := bootCluster(t, 3, 1, nil)

	// The oracle: the same relation, unsharded, on one tycd.
	oracle := startReplica(t, allIDs())
	oc, err := client.Dial(oracle.addr, client.Options{Timeout: 30 * time.Second, Client: "oracle"})
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	oracleRes, err := oc.Submit(selectSubmit(t))
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := rowIDs(t, oracleRes)
	if len(wantIDs) != oracleRows {
		t.Fatalf("oracle selected %d rows, want %d", len(wantIDs), oracleRows)
	}

	res, err := tc.co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("healthy cluster answered partial (missing %v)", res.Missing)
	}
	gotIDs := rowIDs(t, res)
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("distributed select returned %d rows, oracle %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("row id sets diverge at %d: got %d want %d", i, gotIDs[i], wantIDs[i])
		}
	}

	// Compiled at most once per shard: the submission crossed the
	// coordinator once, and each shard's pipeline saw exactly one miss.
	for s, reps := range tc.replicas {
		p := reps[0].srv.Stats().Pipeline
		if p.Misses != 1 {
			t.Fatalf("shard %d compiled %d times, want 1", s, p.Misses)
		}
	}
	// Resubmitting is an α-hash cache hit on every shard, and the merged
	// result says so (CacheHit is the conjunction).
	res2, err := tc.co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Info.CacheHit {
		t.Fatal("resubmitted distributed query was not a cache hit on every shard")
	}
	for s, reps := range tc.replicas {
		p := reps[0].srv.Stats().Pipeline
		if p.Misses != 1 {
			t.Fatalf("shard %d recompiled on resubmit (%d misses)", s, p.Misses)
		}
		if p.Hits < 1 {
			t.Fatalf("shard %d pipeline reports no hit on resubmit", s)
		}
	}
}

func allIDs() []int {
	ids := make([]int, 1000)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// --- merge policies ---------------------------------------------------------

func TestMergePolicies(t *testing.T) {
	tc := bootCluster(t, 3, 1, nil)

	// merge=sum: a partitioned count sums across shards to the full
	// relation's cardinality.
	countReq := &ship.Submit{Name: "cnt", PTML: mustPTML(t, "(count r e k)"), Binds: relBind(), Merge: ship.MergeSum}
	res, err := tc.co.Submit(countReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Kind != ship.WInt || res.Val.Int != 1000 {
		t.Fatalf("merged count = %s, want 1000", res.Val.Show())
	}

	// merge=auto on the same partitioned count must refuse: the shards
	// genuinely disagree and silently picking one would be a wrong answer.
	countReq.Merge = ship.MergeAuto
	if _, err := tc.co.Submit(countReq); err == nil {
		t.Fatal("merge=auto over a partitioned count did not error")
	} else {
		wantCode(t, err, ship.CodeInternal)
	}

	// merge=any: row id 5 exists on exactly one shard, so the per-shard
	// answers are mixed and any() must see through to true.
	existsSrc := `(exists proc(x !ce !cc)
  ([] x 0 cont(a) (== a 5 cont() (cc true) cont() (cc false)))
  r e k)`
	existsReq := &ship.Submit{Name: "ex5", PTML: mustPTML(t, existsSrc), Binds: relBind(), Merge: ship.MergeAny}
	res, err = tc.co.Submit(existsReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Kind != ship.WBool || !res.Val.Bool {
		t.Fatalf("merge=any exists(id=5) = %s, want true", res.Val.Show())
	}
	// merge=all over the same: false (two shards lack the row).
	existsReq.Merge = ship.MergeAll
	existsReq.Name = "ex5all"
	res, err = tc.co.Submit(existsReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Kind != ship.WBool || res.Val.Bool {
		t.Fatalf("merge=all exists(id=5) = %s, want false", res.Val.Show())
	}

	// merge=auto where the shards do agree: a pure computation.
	pure := &ship.Submit{Name: "pure", PTML: mustPTML(t, "(+ 40 2 e cont(n) (k n))")}
	res, err = tc.co.Submit(pure)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("pure scatter = %s, want 42", res.Val.Show())
	}
}

// --- routed writes and calls ------------------------------------------------

func TestRoutedSaveAndCall(t *testing.T) {
	tc := bootCluster(t, 3, 1, nil)
	owner := tc.topo.ShardFor("ans")

	req := &ship.Submit{
		Name:    "mk",
		PTML:    mustPTML(t, "(+ 40 2 e cont(n) (k n))"),
		Save:    "ans",
		IdemKey: "test-save-1",
	}
	res, err := tc.co.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("saving submit answered %s, want 42", res.Val.Show())
	}

	// The closure landed on the owning shard's store and nowhere else.
	for s, reps := range tc.replicas {
		_, ok := reps[0].st.Root(ship.SavedRoot + "ans")
		if want := s == owner; ok != want {
			t.Fatalf("shard %d has srv:ans = %v, want %v (owner %d)", s, ok, want, owner)
		}
	}

	// Calling it routes to the same shard.
	cres, err := tc.co.Call("", "ans", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Val.Int != 42 {
		t.Fatalf("call @ans = %s, want 42", cres.Val.Show())
	}

	// A retry of the same logical write (same key, same PTML) dedups at
	// the shard: applied once, deduped once.
	if _, err := tc.co.Submit(req); err != nil {
		t.Fatal(err)
	}
	st := tc.replicas[owner][0].srv.Stats()
	if st.IdemApplied != 1 || st.IdemDeduped != 1 {
		t.Fatalf("owner shard applied=%d deduped=%d, want 1/1", st.IdemApplied, st.IdemDeduped)
	}

	// An unkeyed saving submit gets a coordinator-minted key, so even
	// without client retries the write is replay-safe.
	unkeyed := &ship.Submit{Name: "mk2", PTML: mustPTML(t, "(+ 1 2 e cont(n) (k n))"), Save: "ans2"}
	if _, err := tc.co.Submit(unkeyed); err != nil {
		t.Fatal(err)
	}
	owner2 := tc.topo.ShardFor("ans2")
	st2 := tc.replicas[owner2][0].srv.Stats()
	if st2.IdemApplied == 0 {
		t.Fatal("coordinator did not key the unkeyed saving submit")
	}

	// Calling a name nobody saved is a definitive not-found, passed
	// through from the owning shard.
	_, err = tc.co.Call("", "no-such-name", nil)
	wantCode(t, err, ship.CodeNotFound)
}

// --- failover ----------------------------------------------------------------

func TestFailoverToStandby(t *testing.T) {
	tc := bootCluster(t, 1, 2, nil)

	// Healthy: answer matches the oracle.
	res, err := tc.co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Val.Rel.Rows); got != oracleRows {
		t.Fatalf("select returned %d rows, want %d", got, oracleRows)
	}

	// Kill the primary. The read fails over to the standby and still
	// returns the full, correct answer — not partial, not an error.
	tc.replicas[0][0].kill(t)
	res, err = tc.co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatalf("read after primary death: %v", err)
	}
	if res.Partial {
		t.Fatalf("failover read degraded to partial (missing %v) with a live standby", res.Missing)
	}
	if got := len(res.Val.Rel.Rows); got != oracleRows {
		t.Fatalf("failover select returned %d rows, want %d", got, oracleRows)
	}
	st := tc.co.Stats()
	if st.Failovers == 0 {
		t.Fatal("coordinator reports no failover")
	}
	down := 0
	for _, r := range st.Replicas {
		if r.Down {
			down++
		}
	}
	if down != 1 {
		t.Fatalf("%d replicas marked down, want 1", down)
	}
	if h := tc.co.Health(); h.Degraded {
		t.Fatalf("health degraded with a live standby: %+v", h)
	}

	// Subsequent reads go straight to the standby: failover count stays
	// put (the down-mark steers the preference order).
	before := st.Failovers
	if _, err := tc.co.Submit(selectSubmit(t)); err != nil {
		t.Fatal(err)
	}
	if after := tc.co.Stats().Failovers; after != before {
		t.Fatalf("steady-state read after failover still failed over (%d → %d)", before, after)
	}
}

// --- partial results ---------------------------------------------------------

func TestPartialResultNamesMissingRanges(t *testing.T) {
	tc := bootCluster(t, 3, 1, func(c *cluster.Config) { c.AllowPartial = true })

	deadShard := 1
	tc.replicas[deadShard][0].kill(t)

	res, err := tc.co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatalf("partial-allowed read failed outright: %v", err)
	}
	if !res.Partial {
		t.Fatal("result not marked partial with a dead shard")
	}
	if len(res.Missing) != 1 {
		t.Fatalf("missing = %v, want exactly one range", res.Missing)
	}
	if want := tc.topo.MissingName(deadShard); res.Missing[0] != want {
		t.Fatalf("missing = %q, want %q", res.Missing[0], want)
	}
	if idx, ok := cluster.ParseMissing(res.Missing[0]); !ok || idx != deadShard {
		t.Fatalf("missing range %q does not parse back to shard %d", res.Missing[0], deadShard)
	}
	// The degraded answer is exactly the reachable shards' contribution:
	// the oracle minus the dead shard's partition — never a wrong row,
	// never a silently complete-looking answer.
	want := oracleRows - expectSelected(tc.parts[deadShard])
	if got := len(res.Val.Rel.Rows); got != want {
		t.Fatalf("partial select returned %d rows, want %d (oracle %d minus shard %d's %d)",
			got, want, oracleRows, deadShard, expectSelected(tc.parts[deadShard]))
	}
	if tc.co.Stats().Partials == 0 {
		t.Fatal("partials counter did not move")
	}
	if h := tc.co.Health(); !h.Degraded {
		t.Fatal("health not degraded with a whole shard down")
	}

	// A write routed to the dead shard is refused retryably — the
	// request was not applied, so the client may safely retry it until
	// the shard returns. With no handoff log configured the refusal
	// names the real condition (replica-down) instead of the generic
	// overload code, so operators can tell the failure modes apart.
	name := saveNameOwnedBy(tc.topo, deadShard)
	_, err = tc.co.Submit(&ship.Submit{
		Name: "w", PTML: mustPTML(t, "(+ 1 1 e cont(n) (k n))"), Save: name,
	})
	we := wantCode(t, err, ship.CodeReplicaDown)
	if we.RetryAfterMs == 0 {
		t.Fatal("shard-down write refusal carries no retry-after hint")
	}
}

func TestPartialForbiddenFailsClosed(t *testing.T) {
	tc := bootCluster(t, 3, 1, nil) // AllowPartial=false
	tc.replicas[2][0].kill(t)
	_, err := tc.co.Submit(selectSubmit(t))
	if err == nil {
		t.Fatal("scatter over a dead shard succeeded with partials forbidden")
	}
	we := wantCode(t, err, ship.CodeOverloaded)
	if we.RetryAfterMs == 0 {
		t.Fatal("refusal carries no retry-after hint")
	}
}

// saveNameOwnedBy finds a save name the topology routes to shard s.
func saveNameOwnedBy(topo cluster.Topology, s int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("probe-%d", i)
		if topo.ShardFor(name) == s {
			return name
		}
	}
}

// --- hedged reads -----------------------------------------------------------

// blackhole accepts connections and reads forever without answering —
// the canonical straggler.
func blackhole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestHedgedReadBeatsStraggler(t *testing.T) {
	// Shard 0's preferred replica is a blackhole; the standby is real.
	// Without hedging the read would burn the whole client timeout; with
	// it, the hedge fires after HedgeAfter and wins.
	real := startReplica(t, allIDs())
	hole := blackhole(t)
	topo := cluster.Topology{Shards: []cluster.Shard{{Replicas: []string{hole, real.addr}}}}
	co, err := cluster.New(cluster.Config{
		Topology:      topo,
		Timeout:       2 * time.Second,
		Retries:       0,
		HedgeAfter:    25 * time.Millisecond,
		ProbeInterval: -1,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	start := time.Now()
	res, err := co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatalf("hedged read failed: %v", err)
	}
	if got := len(res.Val.Rel.Rows); got != oracleRows {
		t.Fatalf("hedged select returned %d rows, want %d", got, oracleRows)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("hedged read took %v — the hedge did not cut the straggler short", elapsed)
	}
	st := co.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}
}

// --- backpressure -----------------------------------------------------------

func TestCoordinatorBackpressure(t *testing.T) {
	tc := bootCluster(t, 1, 1, func(c *cluster.Config) { c.MaxInflight = 1 })

	gate := tc.co.Gate()
	if werr := gate.Enter(); werr != nil {
		t.Fatalf("first enter refused: %v", werr)
	}
	werr := gate.Enter()
	if werr == nil {
		t.Fatal("second enter passed a full gate")
	}
	if werr.Code != ship.CodeOverloaded {
		t.Fatalf("refusal code %s, want %s", werr.Code, ship.CodeOverloaded)
	}
	if werr.RetryAfterMs == 0 {
		t.Fatal("refusal carries no retry-after hint")
	}
	gate.Leave()
	if werr := gate.Enter(); werr != nil {
		t.Fatalf("enter after leave refused: %v", werr)
	}
	gate.Leave()
	if tc.co.Stats().Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

// --- the wire front end ------------------------------------------------------

func TestCoordinatorWireFrontEnd(t *testing.T) {
	tc := bootCluster(t, 3, 1, nil)
	fe := cluster.NewServer(tc.co)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})

	c, err := client.Dial(ln.Addr().String(), client.Options{
		Timeout: 30 * time.Second, Client: "fe-test", Retries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Install fans out: the module must exist on every shard afterwards.
	modSrc := "module clm export inc let inc(a : Int) : Int = a + 1 end"
	if _, err := c.Install(modSrc); err != nil {
		t.Fatal(err)
	}
	for s, reps := range tc.replicas {
		sc, err := client.Dial(reps[0].addr, client.Options{Timeout: 30 * time.Second, Client: "shard-check"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Call("clm", "inc", ship.WVal{Kind: ship.WInt, Int: int64(s)})
		sc.Close()
		if err != nil {
			t.Fatalf("module clm not callable on shard %d: %v", s, err)
		}
		if res.Val.Int != int64(s)+1 {
			t.Fatalf("shard %d: inc(%d) = %s", s, s, res.Val.Show())
		}
	}

	// Module call through the coordinator (routed).
	res, err := c.Call("clm", "inc", ship.WVal{Kind: ship.WInt, Int: 41})
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("routed call = %s, want 42", res.Val.Show())
	}

	// Scatter select over the wire matches the oracle.
	res, err = c.SubmitTML("sel", selectSrc, relBind(), true, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Val.Rel.Rows); got != oracleRows {
		t.Fatalf("wire scatter select returned %d rows, want %d", got, oracleRows)
	}

	// Save and call back through the wire (the client keys the submit
	// itself since retries are on; exactly-once end-to-end).
	res, err = c.SubmitTML("", "(+ 40 2 e cont(n) (k n))", nil, false, "wired")
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("saving submit = %s", res.Val.Show())
	}
	res, err = c.Call("", "wired")
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.Int != 42 {
		t.Fatalf("call @wired = %s", res.Val.Show())
	}

	// Stats carry the cluster block.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster == nil {
		t.Fatal("coordinator stats carry no cluster block")
	}
	if stats.Cluster.Shards != 3 {
		t.Fatalf("cluster stats report %d shards, want 3", stats.Cluster.Shards)
	}
	if stats.Cluster.Scatter == 0 || stats.Cluster.Routed == 0 {
		t.Fatalf("cluster counters flat: %+v", stats.Cluster)
	}
	if len(stats.Cluster.Replicas) != 3 {
		t.Fatalf("cluster stats report %d replicas, want 3", len(stats.Cluster.Replicas))
	}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthy cluster reports %q", h.Status)
	}
}

// TestFrontEndRejectsWatch: the coordinator front end does not speak
// WATCH (push streaming is a single-store feature for now). A verb it
// does not know — which is exactly what a newer client sends an older
// server — must be refused with a definitive protocol error, not hang
// or kill the listener.
func TestFrontEndRejectsWatch(t *testing.T) {
	tc := bootCluster(t, 1, 1, nil)
	fe := cluster.NewServer(tc.co)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := ship.WriteFrame(conn, ship.VHello, (&ship.Hello{Version: ship.ProtoVersion, Client: "new-client"}).Encode()); err != nil {
		t.Fatal(err)
	}
	if verb, _, err := ship.ReadFrame(conn, 0); err != nil || verb != ship.VWelcome {
		t.Fatalf("handshake: verb %s, err %v", verb, err)
	}
	if err := ship.WriteFrame(conn, ship.VWatch, (&ship.Watch{Patterns: []string{"*"}}).Encode()); err != nil {
		t.Fatal(err)
	}
	verb, body, err := ship.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if verb != ship.VError {
		t.Fatalf("old server answered watch with %s, want error", verb)
	}
	we, err := ship.DecodeWireError(body)
	if err != nil {
		t.Fatal(err)
	}
	if we.Code != ship.CodeProto {
		t.Fatalf("refused with %s, want proto", we.Code)
	}

	// The refusal is per-request: the same session still works.
	if err := ship.WriteFrame(conn, ship.VPing, nil); err != nil {
		t.Fatal(err)
	}
	if verb, _, err := ship.ReadFrame(conn, 0); err != nil || verb != ship.VPong {
		t.Fatalf("after refusal: verb %s, err %v", verb, err)
	}
}

// --- replica repair: handoff, catch-up, anti-entropy -------------------------

// bootRepairCluster is bootCluster with handoff enabled and both the
// probe and repair loops under test control.
func bootRepairCluster(t *testing.T, nShards, nReplicas int) (*testCluster, cluster.Config) {
	t.Helper()
	var cfg cluster.Config
	tc := bootCluster(t, nShards, nReplicas, func(c *cluster.Config) {
		c.HandoffDir = t.TempDir()
		c.RepairInterval = -1 // tests call RepairNow by hand
		c.AllowPartial = true
		cfg = *c
	})
	return tc, cfg
}

// replicaStat digs one replica's stat row out of a cluster snapshot.
func replicaStat(t *testing.T, st *ship.ClusterStats, addr string) ship.ReplicaStat {
	t.Helper()
	for _, r := range st.Replicas {
		if r.Addr == addr {
			return r
		}
	}
	t.Fatalf("no stat row for replica %s in %+v", addr, st.Replicas)
	return ship.ReplicaStat{}
}

// saveSubmit builds a saving submit owned by the given shard whose
// evaluated value is i+1 (the name search never changes the value).
func saveSubmit(t *testing.T, topo cluster.Topology, shard, i int) *ship.Submit {
	t.Helper()
	var name string
	for j := i; ; j += 1000 {
		name = fmt.Sprintf("save-%d", j)
		if topo.ShardFor(name) == shard {
			break
		}
	}
	return &ship.Submit{
		Name: "w", PTML: mustPTML(t, fmt.Sprintf("(+ %d 1 e cont(n) (k n))", i)), Save: name,
	}
}

// TestHandoffRepairRoundTrip is the tentpole path end to end: a write
// finding a replica down is acked anyway and parked in the handoff log,
// the replica revives, repair replays the backlog in order under the
// original keys, the digest audit passes, and the replica returns to
// reads holding every acked write.
func TestHandoffRepairRoundTrip(t *testing.T) {
	tc, _ := bootRepairCluster(t, 2, 2)
	target := tc.replicas[1][1]
	target.kill(t)

	// Writes routed to the wounded shard must still succeed.
	var saved []string
	for i := 0; i < 5; i++ {
		req := saveSubmit(t, tc.topo, 1, i)
		if _, err := tc.co.Submit(req); err != nil {
			t.Fatalf("write %d with one replica down: %v", i, err)
		}
		saved = append(saved, req.Save)
	}

	st := tc.co.Stats()
	if st.HandoffWrites != 5 {
		t.Fatalf("HandoffWrites = %d, want 5", st.HandoffWrites)
	}
	rs := replicaStat(t, st, target.addr)
	if rs.State != "lagging" || rs.Backlog != 5 {
		t.Fatalf("wounded replica state=%s backlog=%d, want lagging/5", rs.State, rs.Backlog)
	}

	// Reads keep flowing (served by the healthy replica) and stay right.
	res, err := tc.co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatalf("select during lag: %v", err)
	}
	if res.Partial || len(res.Val.Rel.Rows) != oracleRows {
		t.Fatalf("select during lag: partial=%v rows=%d, want full %d", res.Partial, len(res.Val.Rel.Rows), oracleRows)
	}

	// Repair must wait for connectivity: a pass now is a no-op.
	tc.co.RepairNow()
	if rs := replicaStat(t, tc.co.Stats(), target.addr); rs.State != "lagging" {
		t.Fatalf("repair ran against a dead replica: state=%s", rs.State)
	}

	target.revive(t)
	tc.co.MarkAllUp()
	tc.co.RepairNow()

	st = tc.co.Stats()
	rs = replicaStat(t, st, target.addr)
	if rs.State != "live" || rs.Backlog != 0 {
		t.Fatalf("after repair: state=%s backlog=%d, want live/0", rs.State, rs.Backlog)
	}
	if st.RepairShipped != 5 || st.Repairs != 1 || st.RepairMismatch != 0 {
		t.Fatalf("repair counters shipped=%d repairs=%d mismatch=%d, want 5/1/0",
			st.RepairShipped, st.Repairs, st.RepairMismatch)
	}
	if rs.LastRepairCSN == 0 {
		t.Fatal("repair did not record the replica's CSN")
	}

	// The real proof: every write acked during the outage is callable
	// directly on the revived replica, not just through the coordinator.
	c, err := client.Dial(target.addr, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, name := range saved {
		res, err := c.Call("", name)
		if err != nil {
			t.Fatalf("replayed save %s not callable on revived replica: %v", name, err)
		}
		if want := int64(i + 1); res.Val.Int != want {
			t.Fatalf("replayed save %s = %d, want %d", name, res.Val.Int, want)
		}
	}
}

// TestScatterSumDuringLag: a merge=sum scatter started while a replica
// is lagging must keep satisfying the never-wrong-answers oracle — the
// healthy replica serves its shard in full, and the lagging replica is
// never consulted even though its process answers probes.
func TestScatterSumDuringLag(t *testing.T) {
	tc, _ := bootRepairCluster(t, 2, 2)
	target := tc.replicas[0][1]
	target.kill(t)

	// Latch the replica lagging with a real deferred write.
	if _, err := tc.co.Submit(saveSubmit(t, tc.topo, 0, 0)); err != nil {
		t.Fatalf("write with one replica down: %v", err)
	}
	// Revive it immediately: the process is back and would answer reads
	// with stale rows if the read path trusted the health latch alone.
	target.revive(t)
	tc.co.MarkAllUp()

	countReq := &ship.Submit{Name: "cnt", PTML: mustPTML(t, "(count r e k)"), Binds: relBind(), Merge: ship.MergeSum}
	res, err := tc.co.Submit(countReq)
	if err != nil {
		t.Fatalf("sum scatter during lag: %v", err)
	}
	if res.Partial || res.Val.Int != 1000 {
		t.Fatalf("sum scatter during lag: partial=%v sum=%d, want full 1000", res.Partial, res.Val.Int)
	}

	// With the whole shard wounded (second replica down too) the scatter
	// degrades to a partial naming exactly that shard's ranges — still
	// never a wrong number served as a complete one.
	tc.replicas[0][0].kill(t)
	pres, err := tc.co.Submit(selectSubmit(t))
	if err != nil {
		t.Fatalf("partial scatter: %v", err)
	}
	if !pres.Partial || len(pres.Missing) != 1 || pres.Missing[0] != tc.topo.MissingName(0) {
		t.Fatalf("scatter over wounded shard: partial=%v missing=%v, want shard 0's range", pres.Partial, pres.Missing)
	}

	// After repair the sum is whole again.
	tc.replicas[0][0].revive(t)
	tc.co.MarkAllUp()
	tc.co.RepairNow()
	if rs := replicaStat(t, tc.co.Stats(), target.addr); rs.State != "live" {
		t.Fatalf("replica not repaired: %+v", rs)
	}
	res, err = tc.co.Submit(countReq)
	if err != nil || res.Val.Int != 1000 {
		t.Fatalf("sum after repair = %v, %v, want 1000", res.Val.Int, err)
	}
}

// TestRepairMismatchFailsLoud: a replica that diverged in a way replay
// cannot explain (an extra row smuggled into its store) drains its
// backlog but fails the anti-entropy audit: it stays out of reads, the
// mismatch counter trips and stays tripped, and only the operator lever
// re-arms the audit.
func TestRepairMismatchFailsLoud(t *testing.T) {
	tc, _ := bootRepairCluster(t, 1, 2)
	target := tc.replicas[0][1]
	target.kill(t)
	if _, err := tc.co.Submit(saveSubmit(t, tc.topo, 0, 0)); err != nil {
		t.Fatalf("write with one replica down: %v", err)
	}
	target.revive(t)

	// Diverge the revived replica's store behind the cluster's back.
	oid, ok := target.st.Root("rel:t")
	if !ok {
		t.Fatal("revived replica lost rel:t")
	}
	if err := target.srv.Manager().InsertRow(oid, []store.Val{store.IntVal(9999), store.IntVal(1)}); err != nil {
		t.Fatal(err)
	}

	// A quiescent digest disagreement must repeat on a second consecutive
	// pass before it latches: one pass is a strike, not a verdict.
	tc.co.MarkAllUp()
	tc.co.RepairNow()
	if st := tc.co.Stats(); st.RepairMismatch != 0 {
		t.Fatalf("mismatch latched on the first strike: %d", st.RepairMismatch)
	}
	tc.co.RepairNow()
	st := tc.co.Stats()
	rs := replicaStat(t, st, target.addr)
	if rs.State != "lagging" {
		t.Fatalf("diverged replica state=%s, want lagging (out of reads)", rs.State)
	}
	if st.RepairMismatch != 1 || st.Repairs != 0 {
		t.Fatalf("mismatch=%d repairs=%d, want 1/0", st.RepairMismatch, st.Repairs)
	}
	if rs.Backlog != 0 {
		t.Fatalf("backlog=%d, want 0 (drain succeeded, audit failed)", rs.Backlog)
	}

	// The mismatch is latched: another pass does not thrash the audit.
	tc.co.RepairNow()
	if st := tc.co.Stats(); st.RepairMismatch != 1 {
		t.Fatalf("mismatch counter moved on a latched replica: %d", st.RepairMismatch)
	}

	// Reads never touch the diverged replica: the count stays right even
	// though its store holds a 1001st row.
	countReq := &ship.Submit{Name: "cnt", PTML: mustPTML(t, "(count r e k)"), Binds: relBind(), Merge: ship.MergeSum}
	res, err := tc.co.Submit(countReq)
	if err != nil || res.Val.Int != 1000 {
		t.Fatalf("count with diverged replica latched = %v, %v, want 1000", res.Val.Int, err)
	}

	// MarkAllUp is the operator's re-audit lever: it clears the latch and
	// the strike count, so latching again takes two fresh passes.
	tc.co.MarkAllUp()
	tc.co.RepairNow()
	tc.co.RepairNow()
	if st := tc.co.Stats(); st.RepairMismatch != 2 {
		t.Fatalf("re-armed audit did not run: mismatch=%d, want 2", st.RepairMismatch)
	}
}

// TestHandoffSurvivesCoordinatorRestart: the handoff log is write-ahead
// state, not session state — a new coordinator over the same directory
// boots the replica lagging and finishes the repair the old one never
// got to.
func TestHandoffSurvivesCoordinatorRestart(t *testing.T) {
	tc, cfg := bootRepairCluster(t, 1, 2)
	target := tc.replicas[0][1]
	target.kill(t)
	req := saveSubmit(t, tc.topo, 0, 7)
	if _, err := tc.co.Submit(req); err != nil {
		t.Fatalf("write with one replica down: %v", err)
	}
	tc.co.Close()

	co2, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	rs := replicaStat(t, co2.Stats(), target.addr)
	if rs.State != "lagging" || rs.Backlog != 1 {
		t.Fatalf("rebooted coordinator: state=%s backlog=%d, want lagging/1", rs.State, rs.Backlog)
	}

	target.revive(t)
	co2.MarkAllUp()
	co2.RepairNow()
	if rs := replicaStat(t, co2.Stats(), target.addr); rs.State != "live" || rs.Backlog != 0 {
		t.Fatalf("after rebooted repair: state=%s backlog=%d, want live/0", rs.State, rs.Backlog)
	}
	c, err := client.Dial(target.addr, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res, err := c.Call("", req.Save); err != nil || res.Val.Int != 8 {
		t.Fatalf("save replayed by rebooted coordinator: %v, %v", res, err)
	}
}
