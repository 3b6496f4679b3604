// Replica-repair chaos: the write-ahead handoff invariants under a
// mid-run replica kill.
//
// The cluster chaos run (cluster.go) uses single-replica shards, so a
// dead shard makes writes bounce retryably. This run is the opposite
// regime: every shard has two replicas and the coordinator has a
// handoff directory, so killing one replica must cost NOTHING — every
// write keeps succeeding (parked in the victim's handoff log), every
// read keeps answering in full from the surviving replica, and after
// the victim revives the repair loop must converge it: backlog drained,
// digests agreeing, every acked write callable on BOTH replicas.
package chaos

import (
	"context"
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
	"tycoon/internal/handoff"
	"tycoon/internal/iofault"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// RepairConfig shapes one replica-repair chaos run.
type RepairConfig struct {
	// Seed drives every random choice in the run.
	Seed int64
	// Shards×Replicas is the fleet; Workers the concurrent clients; Ops
	// the operations each performs. Zeros mean 2, 2, 4 and 40.
	Shards   int
	Replicas int
	Workers  int
	Ops      int
	// Dir is where the stores (shardI-rJ.tyst) and handoff logs live;
	// required.
	Dir string
}

// RepairReport is what a repair run measured.
type RepairReport struct {
	// AckedSaves counts acked save= submits, each verified callable with
	// its acked value on every replica of its owner shard after repair.
	AckedSaves int
	// Failures counts worker requests that returned any error. The
	// surviving replicas cover every shard throughout the run, so the
	// invariant is zero: a replica kill must be free when handoff is on.
	Failures int
	// FullReads counts scatter reads; all must have been complete and
	// exactly the oracle (no partials are tolerated in this regime).
	FullReads int
	// KeyedWrites/KeyedScatter mirror the cluster run's accounting, per
	// logical request. AppliedTotal sums every replica's dedup Applied
	// counter; the exactly-once ceiling is
	// AppliedTotal <= Replicas*KeyedWrites + Shards*Replicas*KeyedScatter.
	KeyedWrites  int64
	KeyedScatter int64
	AppliedTotal int64
	DedupedTotal int64
	// Retries sums the worker clients' retry counters.
	Retries int64
	// Coord snapshots the coordinator counters after convergence; the
	// run requires HandoffWrites > 0 (the kill really deferred writes),
	// Repairs > 0 and RepairMismatch == 0.
	Coord ship.ClusterStats
}

// repReplica is one replica process: a store and dedup that outlive the
// kill, and the current server incarnation.
type repReplica struct {
	shard, index int
	path         string
	st           *store.Store
	dedup        *server.Dedup

	mu   sync.Mutex
	srv  *server.Server
	ln   net.Listener
	addr string
}

func (r *repReplica) start(firstBoot bool, ids []int) error {
	srv, err := server.New(r.st, server.Config{
		Dedup:       r.dedup,
		MaxInflight: 32,
		WallBudget:  10 * time.Second,
		RetryAfter:  5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	if firstBoot {
		if err := loadRows(r.st, ids); err != nil {
			return err
		}
	}
	// A revived replica must come back on its original address — that is
	// what the coordinator's topology and probe loop dial.
	listenAddr := "127.0.0.1:0"
	if r.addr != "" {
		listenAddr = r.addr
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", listenAddr)
		if err == nil {
			break
		}
		if attempt >= 100 {
			return fmt.Errorf("relisten %s: %w", listenAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go srv.Serve(ln)
	r.mu.Lock()
	r.srv = srv
	r.ln = ln
	r.addr = ln.Addr().String()
	r.mu.Unlock()
	return nil
}

func (r *repReplica) drain() error {
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// RunRepair executes one replica-repair chaos run and verifies its
// invariants; any violation is an error.
func RunRepair(cfg RepairConfig) (*RepairReport, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Ops == 0 {
		cfg.Ops = 40
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: RepairConfig.Dir is required")
	}
	if cfg.Replicas < 2 {
		return nil, fmt.Errorf("chaos: repair run needs at least 2 replicas per shard")
	}

	topoShape := cluster.Topology{Shards: make([]cluster.Shard, cfg.Shards)}
	parts := make([][]int, cfg.Shards)
	for id := 0; id < 1000; id++ {
		s := topoShape.ShardFor(fmt.Sprintf("row:%d", id))
		parts[s] = append(parts[s], id)
	}

	// Boot the fleet: every replica of shard i carries the same rows.
	replicas := make([][]*repReplica, cfg.Shards)
	var all []*repReplica
	defer func() {
		for _, r := range all {
			if r.st != nil {
				r.st.Close()
			}
		}
	}()
	for i := 0; i < cfg.Shards; i++ {
		for j := 0; j < cfg.Replicas; j++ {
			r := &repReplica{
				shard: i, index: j,
				path:  filepath.Join(cfg.Dir, fmt.Sprintf("shard%d-r%d.tyst", i, j)),
				dedup: server.NewDedup(0),
			}
			st, err := store.Open(r.path)
			if err != nil {
				return nil, err
			}
			r.st = st
			if err := r.start(true, parts[i]); err != nil {
				return nil, err
			}
			replicas[i] = append(replicas[i], r)
			all = append(all, r)
			topoShape.Shards[i].Replicas = append(topoShape.Shards[i].Replicas, r.addr)
		}
	}

	co, err := cluster.New(cluster.Config{
		Topology:       topoShape,
		Timeout:        5 * time.Second,
		Retries:        4,
		RetryBase:      2 * time.Millisecond,
		RetryMax:       20 * time.Millisecond,
		RetryAfter:     5 * time.Millisecond,
		AllowPartial:   true, // a partial would be a finding, not a crash
		ProbeInterval:  10 * time.Millisecond,
		HandoffDir:     cfg.Dir,
		RepairInterval: 10 * time.Millisecond,
		Seed:           cfg.Seed*104729 + 1,
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
	relBinds := []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}

	rep := &RepairReport{}
	var mu sync.Mutex
	var acked []ackedSave

	// The victim controller: kill one randomly chosen non-first replica
	// mid-run, hold it dead long enough for real writes to land in its
	// handoff log, then revive it. Replica 0 of each shard survives, so
	// the fleet always covers every shard.
	rng := rand.New(rand.NewSource(cfg.Seed*7 + 3))
	victim := replicas[rng.Intn(cfg.Shards)][1+rng.Intn(cfg.Replicas-1)]
	ctlDone := make(chan error, 1)
	stopCtl := make(chan struct{})
	go func() {
		var err error
		defer func() { ctlDone <- err }()
		select {
		case <-stopCtl:
			return
		case <-time.After(time.Duration(2+rng.Intn(8)) * time.Millisecond):
		}
		if err = victim.drain(); err != nil {
			err = fmt.Errorf("chaos: victim drain: %w", err)
			return
		}
		// Hold the victim down until the coordinator has really deferred
		// a write into its handoff log — a kill the workload never
		// noticed would exercise nothing — then a little longer so a few
		// more pile up behind it.
		holdUntil := time.Now().Add(5 * time.Second)
		for co.Stats().HandoffWrites == 0 && time.Now().Before(holdUntil) {
			select {
			case <-stopCtl:
				holdUntil = time.Now()
			case <-time.After(2 * time.Millisecond):
			}
		}
		select {
		case <-stopCtl:
		case <-time.After(time.Duration(20+rng.Intn(30)) * time.Millisecond):
		}
		if err = victim.start(false, nil); err != nil {
			err = fmt.Errorf("chaos: victim revive: %w", err)
		}
	}()

	var wg sync.WaitGroup
	workerErrs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(w)))
			c, err := client.Dial(feLn.Addr().String(), client.Options{
				Timeout:   10 * time.Second,
				Client:    fmt.Sprintf("rchaos-%d", w),
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
				switch draw := wrng.Intn(10); {
				case draw < 5: // saving submit: the handoff workload
					a, b := wrng.Int63n(1000), wrng.Int63n(1000)
					name := fmt.Sprintf("rw%d-op%d", w, op)
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
				case draw < 8: // scatter select: must stay full and exact
					mu.Lock()
					rep.KeyedScatter++
					mu.Unlock()
					var res *ship.Result
					res, err = c.Submit(&ship.Submit{Name: "sel", PTML: selPTML, Binds: relBinds, Optimize: true})
					if err == nil {
						if res.Partial {
							workerErrs <- fmt.Errorf("worker %d: scatter went partial (missing %v) with a replica per shard alive",
								w, res.Missing)
							return
						}
						if got := len(res.Val.Rel.Rows); got != clusterOracleRows {
							workerErrs <- fmt.Errorf("worker %d: select %d rows, oracle %d", w, got, clusterOracleRows)
							return
						}
						mu.Lock()
						rep.FullReads++
						mu.Unlock()
					}
				case draw < 9: // call back an earlier acked save
					if len(mySaves) == 0 {
						continue
					}
					s := mySaves[wrng.Intn(len(mySaves))]
					var res *ship.Result
					res, err = c.Call("", s.name)
					if err == nil && res.Val.Int != s.want {
						workerErrs <- fmt.Errorf("worker %d: call %s = %d, want %d", w, s.name, res.Val.Int, s.want)
						return
					}
				default:
					err = c.Ping()
				}
				if err != nil {
					mu.Lock()
					rep.Failures++
					mu.Unlock()
					workerErrs <- fmt.Errorf("worker %d op %d: a request failed with a replica per shard alive: %w", w, op, err)
					return
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
	if err := <-ctlDone; err != nil {
		return nil, err
	}
	close(workerErrs)
	for err := range workerErrs {
		return nil, err
	}
	rep.AckedSaves = len(acked)

	// Convergence: the probe revives the victim's connectivity, the
	// repair loop drains its handoff log and audits its digests. Every
	// replica must come back live with an empty backlog.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := co.Stats()
		converged := true
		for _, r := range st.Replicas {
			if r.State != "live" || r.Backlog != 0 {
				converged = false
			}
		}
		if converged {
			rep.Coord = *st
			break
		}
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("chaos: repair did not converge: %+v", st.Replicas)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep.Coord.HandoffWrites == 0 {
		return rep, fmt.Errorf("chaos: the kill deferred no writes; the run exercised nothing")
	}
	if rep.Coord.Repairs == 0 {
		return rep, fmt.Errorf("chaos: no repair completed despite %d handoff writes", rep.Coord.HandoffWrites)
	}
	if rep.Coord.RepairMismatch != 0 {
		return rep, fmt.Errorf("chaos: %d anti-entropy mismatches on honestly repaired replicas", rep.Coord.RepairMismatch)
	}

	// Anti-entropy ground truth, independent of the coordinator: every
	// shard's replicas must answer DIGEST with identical per-root maps.
	for i, reps := range replicas {
		maps := make([]map[string]string, len(reps))
		for j, r := range reps {
			dc, err := client.Dial(r.addr, client.Options{Timeout: 30 * time.Second})
			if err != nil {
				return rep, fmt.Errorf("chaos: dial shard %d replica %d: %w", i, j, err)
			}
			d, err := dc.Digest("")
			dc.Close()
			if err != nil {
				return rep, fmt.Errorf("chaos: digest shard %d replica %d: %w", i, j, err)
			}
			maps[j] = make(map[string]string, len(d.Roots))
			for _, rt := range d.Roots {
				maps[j][rt.Name] = rt.Digest
			}
		}
		for j := 1; j < len(maps); j++ {
			if len(maps[j]) != len(maps[0]) {
				return rep, fmt.Errorf("chaos: shard %d replicas disagree on root count: %d vs %d",
					i, len(maps[0]), len(maps[j]))
			}
			for name, dg := range maps[0] {
				if maps[j][name] != dg {
					return rep, fmt.Errorf("chaos: shard %d root %s digest differs between replicas", i, name)
				}
			}
		}
	}

	// Every acked save must be callable with its acked value on EVERY
	// replica of its owner shard — the repaired victim included.
	sort.Slice(acked, func(i, j int) bool { return acked[i].name < acked[j].name })
	for _, reps := range replicas {
		for _, r := range reps {
			dc, err := client.Dial(r.addr, client.Options{Timeout: 30 * time.Second})
			if err != nil {
				return rep, fmt.Errorf("chaos: dial shard %d replica %d: %w", r.shard, r.index, err)
			}
			for _, s := range acked {
				if topoShape.ShardFor(s.name) != r.shard {
					continue
				}
				res, err := dc.Call("", s.name)
				if err != nil {
					dc.Close()
					return rep, fmt.Errorf("chaos: acked save %s lost on shard %d replica %d: %w",
						s.name, r.shard, r.index, err)
				}
				if res.Val.Int != s.want {
					dc.Close()
					return rep, fmt.Errorf("chaos: acked save %s = %d on shard %d replica %d, want %d",
						s.name, res.Val.Int, r.shard, r.index, s.want)
				}
			}
			dc.Close()
		}
	}

	// Tear down: front end (closing the coordinator and its logs), then
	// every replica; collect the dedup counters and check the ceiling.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = fe.Shutdown(ctx)
	cancel()
	feDown = true
	if err != nil {
		return rep, fmt.Errorf("chaos: coordinator drain: %w", err)
	}
	for _, r := range all {
		if err := r.drain(); err != nil {
			return rep, fmt.Errorf("chaos: shard %d replica %d final drain: %w", r.shard, r.index, err)
		}
		applied, deduped := r.dedup.Counters()
		rep.AppliedTotal += applied
		rep.DedupedTotal += deduped
		if err := r.st.Close(); err != nil {
			return rep, fmt.Errorf("chaos: shard %d replica %d store close: %w", r.shard, r.index, err)
		}
		r.st = nil
	}

	// Exactly-once ceiling: a saving submit applies once per replica of
	// its owner shard (original write or replay, never both — the shared
	// idempotency key dedups); a keyed scatter read may record on every
	// replica it touched.
	ceiling := int64(cfg.Replicas)*rep.KeyedWrites + int64(cfg.Shards*cfg.Replicas)*rep.KeyedScatter
	if rep.AppliedTotal > ceiling {
		return rep, fmt.Errorf("chaos: %d writes + %d scatter reads over %d×%d replicas but %d applied — replay re-executed past the ceiling",
			rep.KeyedWrites, rep.KeyedScatter, cfg.Shards, cfg.Replicas, rep.AppliedTotal)
	}

	// Every store and every handoff log must audit clean.
	for _, r := range all {
		fr, err := fsck.CheckPath(r.path)
		if err != nil {
			return rep, err
		}
		if !fr.OK() {
			return rep, fmt.Errorf("chaos: shard %d replica %d store not fsck-clean: %v", r.shard, r.index, fr.Findings)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		for j := 0; j < cfg.Replicas; j++ {
			path := filepath.Join(cfg.Dir, fmt.Sprintf("shard%d-r%d.hlog", i, j))
			hr, err := handoff.Verify(iofault.OS(), path)
			if err != nil {
				return rep, fmt.Errorf("chaos: handoff log %s: %w", path, err)
			}
			if hr.Damage != nil {
				return rep, fmt.Errorf("chaos: handoff log %s damaged: %v", path, hr.Damage)
			}
			if hr.Pending != 0 {
				return rep, fmt.Errorf("chaos: handoff log %s holds %d records after convergence", path, hr.Pending)
			}
		}
	}
	return rep, nil
}
