package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/cluster"
	"tycoon/internal/fsck"
	"tycoon/internal/netfault"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// ClusterConfig shapes one cluster chaos run: N single-replica shards,
// each behind its own fault proxy, fronted by an in-process coordinator
// the workers drive over the wire. The controllers kill/restart and
// partition/heal individual shards mid-query.
type ClusterConfig struct {
	// Seed drives every random choice in the run.
	Seed int64
	// Shards is the shard count; Workers the concurrent clients; Ops the
	// operations each performs. Zeros mean 3, 4 and 40.
	Shards  int
	Workers int
	Ops     int
	// Restarts is how many kill/restart cycles hit randomly chosen
	// shards; Partitions how many partition/heal windows. Zeros mean 3
	// each.
	Restarts   int
	Partitions int
	// Dir is where the shard stores live (Dir/shardN.tyst); required.
	Dir string
	// Net is the per-shard fault mix; its Seed is derived from Seed. The
	// zero value gets a default mix (milder than the single-node run:
	// the coordinator multiplies every client request into shard fan-out,
	// so the same probabilities bite harder).
	Net netfault.Config
}

// ClusterReport is what a cluster run measured.
type ClusterReport struct {
	// AckedSaves is the number of acked save= submits, each verified
	// callable with the acked value through a fresh coordinator after
	// the final restart.
	AckedSaves int
	// Failures counts requests that returned an error to a worker; all
	// must be classified wire/transport errors.
	Failures int
	// Partials counts scatter reads answered degraded; every one named
	// ranges consistent with its row count.
	Partials int
	// FullReads counts scatter reads answered complete; every one
	// matched the oracle exactly.
	FullReads int
	// KeyedWrites is the number of logical keyed writes issued (saving
	// submits, each applying on exactly one single-replica shard);
	// KeyedScatter the keyed scatter reads (each forwarded to all
	// shards, where record-on-effect may record it if its execution
	// allocated — e.g. the first compilation persisting code).
	// AppliedTotal sums the shard dedup Applied counters; the
	// exactly-once invariant is
	// AppliedTotal <= KeyedWrites + Shards*KeyedScatter.
	KeyedWrites  int64
	KeyedScatter int64
	AppliedTotal int64
	DedupedTotal int64
	// Retries is the total retry count across worker clients.
	Retries int64
	// Restarts and Partitions are the controller cycles that completed.
	Restarts   int
	Partitions int
	// Failovers/Hedges/Shed are the coordinator's own counters.
	Coord ship.ClusterStats
}

// shardProc is one shard's live state: its store and dedup table (which
// outlive incarnations) and the current server generation.
type shardProc struct {
	index int
	path  string
	st    *store.Store
	dedup *server.Dedup
	proxy *netfault.Proxy

	mu   sync.Mutex
	srv  *server.Server
	ln   net.Listener
	addr string // real backend address of the live incarnation
}

// loadRows fills relation t with this shard's partition of the
// benchmark rows (id, id%97).
func loadRows(srv *server.Server, ids []int) error {
	mg := srv.Manager()
	oid, err := mg.CreateRelation("t", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "val", Type: store.ColInt},
	}, 0)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := mg.InsertRow(oid, []store.Val{store.IntVal(int64(id)), store.IntVal(int64(id % 97))}); err != nil {
			return err
		}
	}
	return nil
}

func (sp *shardProc) start(firstBoot bool, ids []int) error {
	srv, err := server.New(sp.st, server.Config{
		Dedup:       sp.dedup,
		MaxInflight: 32,
		WallBudget:  10 * time.Second,
		RetryAfter:  5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	if firstBoot {
		if err := loadRows(srv, ids); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	sp.mu.Lock()
	sp.srv = srv
	sp.ln = ln
	sp.addr = ln.Addr().String()
	sp.mu.Unlock()
	if sp.proxy != nil {
		sp.proxy.SetBackend(sp.addr)
	}
	return nil
}

func (sp *shardProc) drain() error {
	sp.mu.Lock()
	srv := sp.srv
	sp.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// clusterSelectSrc is the benchmark selection (val < 50); over the full
// 1000-row relation it returns 530 rows.
const clusterSelectSrc = `(select proc(x !ce !cc)
  ([] x 1 cont(a) (< a 50 cont() (cc true) cont() (cc false)))
  r e k)`

const clusterOracleRows = 530

func encodePTML(src string) ([]byte, error) {
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		return nil, err
	}
	return ptml.EncodeApp(app)
}

// RunCluster executes one cluster chaos run and verifies its
// invariants; any violation is an error.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 3
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Ops == 0 {
		cfg.Ops = 60
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 3
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 3
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: ClusterConfig.Dir is required")
	}
	if cfg.Net == (netfault.Config{}) {
		cfg.Net = netfault.Config{
			DelayProb:      0.05,
			MaxDelay:       2 * time.Millisecond,
			ResetProb:      0.01,
			TruncateProb:   0.02,
			CorruptProb:    0.02,
			ShortWriteProb: 0.05,
		}
	}

	// Partition the benchmark rows the way the coordinator's ring does,
	// so partial answers are predictable to the row.
	topoShape := cluster.Topology{Shards: make([]cluster.Shard, cfg.Shards)}
	parts := make([][]int, cfg.Shards)
	partSelected := make([]int, cfg.Shards) // rows with val<50 per shard
	for id := 0; id < 1000; id++ {
		s := topoShape.ShardFor(fmt.Sprintf("row:%d", id))
		parts[s] = append(parts[s], id)
		if id%97 < 50 {
			partSelected[s]++
		}
	}

	// Boot the shards, each behind its own fault proxy.
	shards := make([]*shardProc, cfg.Shards)
	defer func() {
		for _, sp := range shards {
			if sp == nil {
				continue
			}
			if sp.proxy != nil {
				sp.proxy.Close()
			}
			if sp.st != nil {
				sp.st.Close()
			}
		}
	}()
	for i := 0; i < cfg.Shards; i++ {
		sp := &shardProc{
			index: i,
			path:  filepath.Join(cfg.Dir, fmt.Sprintf("shard%d.tyst", i)),
			dedup: server.NewDedup(0),
		}
		st, err := store.Open(sp.path)
		if err != nil {
			return nil, err
		}
		sp.st = st
		shards[i] = sp
		if err := sp.start(true, parts[i]); err != nil {
			return nil, err
		}
		nfc := cfg.Net
		nfc.Seed = cfg.Seed*31 + int64(i)
		proxy, err := netfault.NewProxy(sp.addr, nfc)
		if err != nil {
			return nil, err
		}
		sp.proxy = proxy
		topoShape.Shards[i].Replicas = []string{proxy.Addr()}
	}

	// The coordinator plans over the proxies and allows partial answers;
	// its front end is what the workers dial.
	co, err := cluster.New(cluster.Config{
		Topology:      topoShape,
		Timeout:       5 * time.Second,
		Retries:       4,
		RetryBase:     2 * time.Millisecond,
		RetryMax:      20 * time.Millisecond,
		RetryAfter:    5 * time.Millisecond,
		HedgeAfter:    250 * time.Millisecond,
		AllowPartial:  true,
		ProbeInterval: 25 * time.Millisecond,
		Seed:          cfg.Seed*104729 + 1,
	})
	if err != nil {
		return nil, err
	}
	fe := cluster.NewServer(co)
	feLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		co.Close()
		return nil, err
	}
	go fe.Serve(feLn)
	feDown := false
	defer func() {
		if !feDown {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			fe.Shutdown(ctx)
			cancel()
		}
	}()

	selPTML, err := encodePTML(clusterSelectSrc)
	if err != nil {
		return nil, err
	}
	countPTML, err := encodePTML("(count r e k)")
	if err != nil {
		return nil, err
	}
	relBinds := []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}

	rep := &ClusterReport{}
	var mu sync.Mutex // guards rep counters and acked
	var acked []ackedSave

	// missingOK validates a partial answer's Missing list and returns
	// the expected selected-row deficit and count deficit.
	missingDeficits := func(missing []string) (selDef, cntDef int, err error) {
		seen := make(map[int]bool)
		for _, m := range missing {
			idx, ok := cluster.ParseMissing(m)
			if !ok || idx < 0 || idx >= cfg.Shards {
				return 0, 0, fmt.Errorf("unparseable missing range %q", m)
			}
			if seen[idx] {
				return 0, 0, fmt.Errorf("shard %d named missing twice", idx)
			}
			seen[idx] = true
			selDef += partSelected[idx]
			cntDef += len(parts[idx])
		}
		return selDef, cntDef, nil
	}

	// Fault controllers: kill/restart and partition/heal random shards
	// while the workers run.
	stopCtl := make(chan struct{})
	ctlDone := make(chan error, 2)
	go func() { // kill/restart controller
		rng := rand.New(rand.NewSource(cfg.Seed*7 + 1))
		var err error
		defer func() { ctlDone <- err }()
		for i := 0; i < cfg.Restarts; i++ {
			select {
			case <-stopCtl:
				return
			case <-time.After(time.Duration(20+rng.Intn(30)) * time.Millisecond):
			}
			sp := shards[rng.Intn(len(shards))]
			// Point the proxy at a dead port first so new connections fail
			// fast rather than racing the drain.
			sp.proxy.SetBackend("127.0.0.1:1")
			sp.proxy.DropAll()
			if err = sp.drain(); err != nil {
				err = fmt.Errorf("chaos: shard %d drain: %w", sp.index, err)
				return
			}
			// A dead window long enough to outlast the coordinator's
			// retry budget, so scatter reads genuinely degrade to
			// partials and routed writes genuinely bounce to refusals.
			select {
			case <-stopCtl:
			case <-time.After(time.Duration(40+rng.Intn(40)) * time.Millisecond):
			}
			if err = sp.start(false, nil); err != nil {
				err = fmt.Errorf("chaos: shard %d restart: %w", sp.index, err)
				return
			}
			mu.Lock()
			rep.Restarts++
			mu.Unlock()
		}
	}()
	go func() { // partition/heal controller
		rng := rand.New(rand.NewSource(cfg.Seed*13 + 2))
		var err error
		defer func() { ctlDone <- err }()
		for i := 0; i < cfg.Partitions; i++ {
			select {
			case <-stopCtl:
				return
			case <-time.After(time.Duration(30+rng.Intn(40)) * time.Millisecond):
			}
			sp := shards[rng.Intn(len(shards))]
			sp.proxy.SetBackend("127.0.0.1:1") // the partition
			sp.proxy.DropAll()
			select {
			case <-stopCtl:
			case <-time.After(time.Duration(30+rng.Intn(30)) * time.Millisecond):
			}
			sp.mu.Lock()
			addr := sp.addr
			sp.mu.Unlock()
			sp.proxy.SetBackend(addr) // heal
			mu.Lock()
			rep.Partitions++
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	workerErrs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(w)))
			c, err := client.Dial(feLn.Addr().String(), client.Options{
				Timeout:   10 * time.Second,
				Client:    fmt.Sprintf("cchaos-%d", w),
				Retries:   24,
				RetryBase: 2 * time.Millisecond,
				RetryMax:  100 * time.Millisecond,
				Seed:      cfg.Seed*7919 + int64(w) + 1,
			})
			if err != nil {
				workerErrs <- fmt.Errorf("worker %d: dial coordinator: %w", w, err)
				return
			}
			defer c.Close()
			var mySaves []ackedSave
			for op := 0; op < cfg.Ops; op++ {
				var err error
				switch draw := rng.Intn(10); {
				case draw < 3: // saving submit: the exactly-once workload
					a, b := rng.Int63n(1000), rng.Int63n(1000)
					name := fmt.Sprintf("cw%d-op%d", w, op)
					src := fmt.Sprintf("(+ %d %d e cont(n) (k n))", a, b)
					mu.Lock()
					rep.KeyedWrites++
					mu.Unlock()
					var res *ship.Result
					res, err = c.SubmitTML("", src, nil, false, name)
					if err == nil {
						if res.Val.Int != a+b {
							workerErrs <- fmt.Errorf("worker %d: save %s acked %d, want %d",
								w, name, res.Val.Int, a+b)
							return
						}
						mySaves = append(mySaves, ackedSave{name, a + b})
					}
				case draw < 6: // scatter select: full or honestly partial
					mu.Lock()
					rep.KeyedScatter++
					mu.Unlock()
					var res *ship.Result
					res, err = c.Submit(&ship.Submit{Name: "sel", PTML: selPTML, Binds: relBinds, Optimize: true})
					if err == nil {
						got := len(res.Val.Rel.Rows)
						if res.Partial {
							selDef, _, merr := missingDeficits(res.Missing)
							if merr != nil {
								workerErrs <- fmt.Errorf("worker %d: %v", w, merr)
								return
							}
							if len(res.Missing) == 0 || got != clusterOracleRows-selDef {
								workerErrs <- fmt.Errorf("worker %d: partial select %d rows, missing %v implies %d",
									w, got, res.Missing, clusterOracleRows-selDef)
								return
							}
							mu.Lock()
							rep.Partials++
							mu.Unlock()
						} else {
							if got != clusterOracleRows {
								workerErrs <- fmt.Errorf("worker %d: full select %d rows, oracle %d",
									w, got, clusterOracleRows)
								return
							}
							mu.Lock()
							rep.FullReads++
							mu.Unlock()
						}
					}
				case draw < 7: // scatter count under merge=sum
					mu.Lock()
					rep.KeyedScatter++
					mu.Unlock()
					var res *ship.Result
					res, err = c.Submit(&ship.Submit{Name: "cnt", PTML: countPTML, Binds: relBinds, Merge: ship.MergeSum})
					if err == nil {
						want := int64(1000)
						if res.Partial {
							_, cntDef, merr := missingDeficits(res.Missing)
							if merr != nil {
								workerErrs <- fmt.Errorf("worker %d: %v", w, merr)
								return
							}
							want -= int64(cntDef)
							mu.Lock()
							rep.Partials++
							mu.Unlock()
						}
						if res.Val.Int != want {
							workerErrs <- fmt.Errorf("worker %d: count = %d, want %d (missing %v)",
								w, res.Val.Int, want, res.Missing)
							return
						}
					}
				case draw < 8: // call back an earlier acked save
					if len(mySaves) == 0 {
						continue
					}
					s := mySaves[rng.Intn(len(mySaves))]
					var res *ship.Result
					res, err = c.Call("", s.name)
					if err == nil && res.Val.Int != s.want {
						workerErrs <- fmt.Errorf("worker %d: call %s = %d, want %d",
							w, s.name, res.Val.Int, s.want)
						return
					}
				case draw < 9:
					err = c.Ping()
				default:
					_, err = c.Health()
				}
				if err != nil {
					mu.Lock()
					rep.Failures++
					mu.Unlock()
				}
			}
			mu.Lock()
			acked = append(acked, mySaves...)
			rep.Retries += c.Retries()
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stopCtl)
	for i := 0; i < 2; i++ {
		if err := <-ctlDone; err != nil {
			return nil, err
		}
	}
	close(workerErrs)
	for err := range workerErrs {
		return nil, err
	}

	rep.AckedSaves = len(acked)
	rep.Coord = *co.Stats()

	// Drain the front end (closing the coordinator's shard sessions),
	// then every shard; no shard sessions may survive.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = fe.Shutdown(ctx)
	cancel()
	feDown = true
	if err != nil {
		return nil, fmt.Errorf("chaos: coordinator drain: %w", err)
	}
	for _, sp := range shards {
		if err := sp.drain(); err != nil {
			return nil, fmt.Errorf("chaos: shard %d final drain: %w", sp.index, err)
		}
		st := sp.srv.Stats()
		if st.Sessions != 0 {
			return nil, fmt.Errorf("chaos: shard %d leaked %d sessions", sp.index, st.Sessions)
		}
		applied, deduped := sp.dedup.Counters()
		rep.AppliedTotal += applied
		rep.DedupedTotal += deduped
		if err := sp.st.Close(); err != nil {
			return nil, fmt.Errorf("chaos: shard %d store close: %w", sp.index, err)
		}
		sp.st = nil
	}

	// Invariant: exactly-once across coordinator retries. Every save
	// applies on exactly one single-replica shard; a keyed scatter read
	// reaches all shards and each may record it at most once (it is
	// recorded only when its execution had a durable effect, e.g. the
	// first compilation persisting code to that shard's store). Retried
	// work re-executing instead of deduplicating would push the applied
	// total past this ceiling.
	ceiling := rep.KeyedWrites + int64(cfg.Shards)*rep.KeyedScatter
	if rep.AppliedTotal > ceiling {
		return rep, fmt.Errorf("chaos: %d writes + %d scatter reads issued over %d shards but %d applied — a retry re-executed",
			rep.KeyedWrites, rep.KeyedScatter, cfg.Shards, rep.AppliedTotal)
	}

	// Invariant: every shard store is fsck-clean in one audit.
	for _, sp := range shards {
		fr, err := fsck.CheckPath(sp.path)
		if err != nil {
			return rep, err
		}
		if !fr.OK() {
			return rep, fmt.Errorf("chaos: shard %d store not fsck-clean: %v", sp.index, fr.Findings)
		}
	}

	// Final verification: fresh shards over the recovered stores, a
	// fresh coordinator, no faults — the full oracle answer must be
	// back, and every acked save callable with its acked value.
	vTopo := cluster.Topology{Shards: make([]cluster.Shard, cfg.Shards)}
	var vShards []*shardProc
	defer func() {
		for _, sp := range vShards {
			sp.drain()
			sp.st.Close()
		}
	}()
	for i, sp := range shards {
		st, err := store.Open(sp.path)
		if err != nil {
			return rep, fmt.Errorf("chaos: shard %d store did not reopen: %w", i, err)
		}
		vsp := &shardProc{index: i, path: sp.path, st: st, dedup: server.NewDedup(0)}
		if err := vsp.start(false, nil); err != nil {
			st.Close()
			return rep, err
		}
		vShards = append(vShards, vsp)
		vTopo.Shards[i].Replicas = []string{vsp.addr}
	}
	vco, err := cluster.New(cluster.Config{Topology: vTopo, Timeout: 30 * time.Second, ProbeInterval: -1, Seed: 1})
	if err != nil {
		return rep, err
	}
	defer vco.Close()
	res, err := vco.Submit(&ship.Submit{Name: "sel", PTML: selPTML, Binds: relBinds, Optimize: true})
	if err != nil {
		return rep, fmt.Errorf("chaos: final scatter select: %w", err)
	}
	if res.Partial || len(res.Val.Rel.Rows) != clusterOracleRows {
		return rep, fmt.Errorf("chaos: final select partial=%v rows=%d, want full %d",
			res.Partial, len(res.Val.Rel.Rows), clusterOracleRows)
	}
	cres, err := vco.Submit(&ship.Submit{Name: "cnt", PTML: countPTML, Binds: relBinds, Merge: ship.MergeSum})
	if err != nil {
		return rep, fmt.Errorf("chaos: final count: %w", err)
	}
	if cres.Val.Int != 1000 {
		return rep, fmt.Errorf("chaos: final count = %d, want 1000", cres.Val.Int)
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].name < acked[j].name })
	for _, s := range acked {
		res, err := vco.Call("", s.name, nil)
		if err != nil {
			var we *ship.WireError
			if errors.As(err, &we) {
				return rep, fmt.Errorf("chaos: acked save %s lost: %w", s.name, err)
			}
			return rep, fmt.Errorf("chaos: acked save %s unreadable: %w", s.name, err)
		}
		if res.Val.Int != s.want {
			return rep, fmt.Errorf("chaos: acked save %s = %d, want %d", s.name, res.Val.Int, s.want)
		}
	}
	return rep, nil
}
