package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tycoon"
	"tycoon/internal/client"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// The traced run: where the time of a workload goes, layer by layer.
// It is a separate run from the one that yields the end-to-end metrics
// and never contributes to them. It has three parts:
//
//	S, P  a served phase (half the usual length) between two STATS and
//	      /proc readings: counters the system already exports;
//	T     the same seeded op stream replayed in process, one goroutine,
//	      through the staged executor, every stage a span; every other
//	      block of requests runs with recording off (tracing overhead);
//	probes  a few one-off timings (store open, module install,
//	      reflective optimization) that are set-up cost, not request cost.
//
// cluster_scatter has no in-process replay (a coordinator is not a
// stage of a tycd session); its traced run is the direct-to-shard
// comparison instead.

// traceFileRequests caps how many requests' spans are written to the
// trace file; all spans are kept in memory and aggregated.
const traceFileRequests = 2000

func runTraced(e *env, wl *workload, seed int64, seconds int) (*report, error) {
	rep := newReport(e, wl, seed, seconds, true)
	w := wl.build(seed, 1)
	r, err := bringUp(e, wl, w)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	d := time.Duration(seconds) * time.Second / 2
	served, err := measure(r, 0, d)
	if err != nil {
		r.abandon()
		return nil, err
	}
	phases := []*phase{served}
	direct := served
	if wl.cluster {
		if direct, err = measureDirect(r, d/2); err != nil {
			r.abandon()
			return nil, err
		}
		phases = append(phases, direct)
	}
	servedMetrics(rep, wl, served, direct)
	finish(r, rep, phases...)

	// Everything below runs in this process on the drained store.
	t0 := time.Now()
	st, err := store.Open(r.paths[0])
	if err != nil {
		return nil, fmt.Errorf("reopen %s: %w", r.paths[0], err)
	}
	openReplay := time.Since(t0).Seconds()
	if err := st.Close(); err != nil {
		return nil, err
	}
	rep.set("store.open_replay_s", openReplay, "s")

	var rp *replay
	if !wl.cluster {
		if rp, err = replayInProcess(wl, w, r.paths[0], rep); err != nil {
			return nil, err
		}
		if err := rp.writeTrace(e, wl.name, seed); err != nil {
			return nil, err
		}
	}
	replayMetrics(rep, wl, rp, served)
	if err := probeMetrics(rep, wl, w); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// measureDirect sends the scatter kinds of the cluster's op streams
// straight to shard 0 — the coordinator's bypass. The expected answers
// come from a world that holds only that shard's rows.
func measureDirect(r *rig, d time.Duration) (*phase, error) {
	alone := *r.w
	alone.stores = r.w.stores[:1]
	conns, gens := r.conns, r.gens
	defer func() { r.conns, r.gens = conns, gens }()
	r.conns, r.gens = nil, nil
	for c := 0; c < connections; c++ {
		cl, err := client.Dial(r.shards[0].addr, client.Options{Timeout: 60 * time.Second, Retries: 3,
			Client: fmt.Sprintf("bench-direct-c%d", c), Seed: r.w.seed*1000 + int64(50+c)})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		gen := r.wl.stream(&alone, c)
		r.conns = append(r.conns, cl)
		r.gens = append(r.gens, func() op {
			for {
				if o := gen(); o.kind <= 1 { // scatter_count, scatter_select
					return o
				}
			}
		})
	}
	return measure(r, 0, d)
}

// servedMetrics fills the per-layer metrics that come from outside the
// program: the client's own latency tails, STATS deltas and /proc.
func servedMetrics(rep *report, wl *workload, p, direct *phase) {
	ops := float64(len(p.drive.samples))
	per := func(v float64) float64 { return ratio(v, ops) }
	all, reads, writes := p.latencies()
	rep.set("client.read_p50_us", quantile(reads, 0.50), "us")
	rep.set("client.read_p95_us", quantile(reads, 0.95), "us")
	rep.set("client.read_p99_us", quantile(reads, 0.99), "us")
	rep.set("client.read_max_us", quantile(reads, 1), "us")
	rep.set("client.write_mean_us", mean(writes), "us/op")
	rep.set("client.retries", float64(p.drive.retries), "count")
	rep.notef("served phase: %d ops in %.2fs; all ops p50 %.1f p95 %.1f p99 %.1f us; %d reads; %d writes p50 %.1f p95 %.1f p99 %.1f us",
		len(all), p.drive.wall.Seconds(), quantile(all, .5), quantile(all, .95), quantile(all, .99),
		len(reads), len(writes), quantile(writes, .5), quantile(writes, .95), quantile(writes, .99))

	// STATS deltas, summed over the tycd processes (the coordinator, when
	// there is one, is process 0 and carries the cluster block).
	var d struct {
		verbCount, verbMicros                 float64
		hits, misses, evictions               float64
		shed, idemApplied, idemDeduped        float64
		batches, batchTxns, conflicts         float64
		ixHits, ixBuilds, ixExtends, ixCopies float64
		scatter, routed, failovers, hedges    float64
	}
	first := 0
	if wl.cluster {
		first = 1
		a, b := p.after.stats[0].Cluster, p.before.stats[0].Cluster
		if a != nil && b != nil {
			d.scatter, d.routed = float64(a.Scatter-b.Scatter), float64(a.Routed-b.Routed)
			d.failovers, d.hedges = float64(a.Failovers-b.Failovers), float64(a.Hedges-b.Hedges)
			d.shed += float64(a.Shed - b.Shed)
		}
	}
	for i := first; i < len(p.after.stats); i++ {
		a, b := p.after.stats[i], p.before.stats[i]
		for _, verb := range []string{"submit", "call"} {
			d.verbCount += float64(a.Verbs[verb].Count - b.Verbs[verb].Count)
			d.verbMicros += float64(a.Verbs[verb].Micros - b.Verbs[verb].Micros)
		}
		d.hits += float64(a.Pipeline.Hits - b.Pipeline.Hits)
		d.misses += float64(a.Pipeline.Misses - b.Pipeline.Misses)
		d.evictions += float64(a.Pipeline.Evictions - b.Pipeline.Evictions)
		d.shed += float64(a.Shed - b.Shed)
		d.idemApplied += float64(a.IdemApplied - b.IdemApplied)
		d.idemDeduped += float64(a.IdemDeduped - b.IdemDeduped)
		if a.Store != nil && b.Store != nil {
			d.batches += float64(a.Store.Batches - b.Store.Batches)
			d.batchTxns += float64(a.Store.BatchTxns - b.Store.BatchTxns)
			d.conflicts += float64(a.Store.Conflicts - b.Store.Conflicts)
		}
		d.ixHits += float64(a.Indexes.Hits + a.Indexes.HorizonHits - b.Indexes.Hits - b.Indexes.HorizonHits)
		d.ixBuilds += float64(a.Indexes.Builds - b.Indexes.Builds)
		d.ixExtends += float64(a.Indexes.Extends - b.Indexes.Extends)
		d.ixCopies += float64(a.Indexes.Copies - b.Indexes.Copies)
	}
	rep.set("server.verb_us", ratio(d.verbMicros, d.verbCount), "us/op")
	rep.set("server.shed", d.shed, "count")
	rep.set("server.idem_applied", d.idemApplied, "count")
	rep.set("server.idem_deduped", d.idemDeduped, "count")
	var rss float64
	for _, ps := range p.after.procs {
		rss += ps.rssPeakMB
	}
	rep.set("server.rss_peak_mb", rss, "MB")
	user, sys := p.cpuSeconds()
	rep.set("server.cpu_user_us_per_op", per(user*1e6), "us/op")
	rep.set("server.cpu_sys_us_per_op", per(sys*1e6), "us/op")
	rep.set("pipeline.hit_ratio", ratio(d.hits, d.hits+d.misses), "ratio")
	rep.set("pipeline.evictions_per_op", per(d.evictions), "1/op")
	rep.set("store.txns_per_batch", ratio(d.batchTxns, d.batches), "ratio")
	rep.set("store.conflicts", d.conflicts, "count")
	grown := float64(p.after.logBytes - p.before.logBytes)
	rep.set("store.log_bytes_per_op", per(grown), "bytes")
	nw := 0
	for _, s := range p.drive.samples {
		if s.write {
			nw++
		}
	}
	rep.set("store.log_bytes_per_write", ratio(grown, float64(nw)), "bytes")
	rep.set("relalg.index_hits_per_op", per(d.ixHits), "1/op")
	rep.set("relalg.index_builds", d.ixBuilds, "count")
	rep.set("relalg.index_extends_per_op", per(d.ixExtends), "1/op")
	rep.set("relalg.index_copies_per_op", per(d.ixCopies), "1/op")
	rep.set("cluster.scatter_per_op", per(d.scatter), "1/op")
	rep.set("cluster.routed_per_op", per(d.routed), "1/op")
	rep.set("cluster.failovers", d.failovers, "count")
	rep.set("cluster.hedges", d.hedges, "count")

	// The coordinator's bypass: the same kinds with and without it. On a
	// single-server workload the served phase is its own bypass.
	directAll, _, _ := direct.latencies()
	var through []float64
	if direct == p {
		through = directAll
	} else {
		for _, s := range p.drive.samples {
			if s.kind <= 1 {
				through = append(through, float64(s.lat.Nanoseconds())/1e3)
			}
		}
		sort.Float64s(through)
	}
	rep.set("cluster.direct_shard_p50_us", quantile(directAll, 0.50), "us")
	rep.set("cluster.coord_overhead_ratio", ratio(quantile(through, 0.50), quantile(directAll, 0.50)), "ratio")
}

// ratio is num/den, and 0 where there is nothing to divide by: a layer
// the workload bypasses reports 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replay is the aggregated outcome of the in-process traced replay.
type replay struct {
	spans     []span
	kinds     []uint8 // kinds of the recorded requests, in order
	total     [numStages]float64
	requestUS []float64 // per-request root span, µs, sorted

	hits, misses             int
	hitUS, missUS            float64 // pipeline.run time on hits and on misses
	reqBytes, resBytes, ptml float64
	submits                  int
	roCommits, rwCommits     int
	roUS, rwUS               float64
	rewrites, nodesIn        float64
	nodesOut                 float64
	indexRewrites            int
	applyUS                  []float64 // per kind: total apply µs
	applyN                   []int
	steps, transfers         float64
	framesAlloc, vecRows     float64
	allocsPerRoundtrip       float64
	overhead                 float64 // mean recorded request time / mean plain request time
}

// replayInProcess replays the workload's op stream through the staged
// executor, recording spans for every other block of requests.
func replayInProcess(wl *workload, w *world, path string, rep *report) (*replay, error) {
	ip, err := openInproc(path)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	for _, mod := range w.optimize {
		if _, err := ip.sys.OptimizeFunction(mod, "run"); err != nil {
			return nil, fmt.Errorf("in-process optimize %s: %w", mod, err)
		}
	}
	gens := make([]func() op, connections)
	for c := range gens {
		gens[c] = wl.stream(w, c)
	}
	rp := &replay{applyUS: make([]float64, len(wl.kinds)), applyN: make([]int, len(wl.kinds))}

	// Recording alternates in blocks of one full schedule cycle of both
	// connections: recorded and plain requests then see the same kinds,
	// the same store and the same moment, and the ratio of their mean
	// wall times is what recording costs.
	var keep []keptRequest
	cycle := connections * wl.period
	var nTraced, nPlain int
	var wallTraced, wallPlain time.Duration
	ip.epoch = time.Now()
	for i := 0; i < wl.replay; i++ {
		ip.record = (i/cycle)%2 == 0
		o := gens[i%connections]()
		mark := len(ip.spans)
		t0 := time.Now()
		res, err := ip.exec(&o)
		wall := time.Since(t0)
		rep.Attempted++
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", wl.kinds[o.kind], err)
		}
		if !o.want.ok(res.Val) {
			rep.Failed++
			rep.notef("replay: %s answered %s", wl.kinds[o.kind], res.Val.Show())
		}
		if !ip.record {
			wallPlain, nPlain = wallPlain+wall, nPlain+1
			continue
		}
		wallTraced, nTraced = wallTraced+wall, nTraced+1
		if len(keep) < 256 {
			keep = append(keep, keptRequest{o, res})
		}
		rp.kinds = append(rp.kinds, uint8(o.kind))
		rp.observe(ip, &o, ip.spans[mark:])
	}
	if nTraced > 0 && nPlain > 0 {
		rp.overhead = (wallTraced.Seconds() / float64(nTraced)) / (wallPlain.Seconds() / float64(nPlain))
	}
	rp.spans = ip.spans
	for _, s := range rp.spans {
		us := float64(s.End-s.Start) / 1e3
		rp.total[s.Stage] += us
		if s.Stage == stRequest {
			rp.requestUS = append(rp.requestUS, us)
		}
	}
	sort.Float64s(rp.requestUS)
	rp.allocsPerRoundtrip = codecAllocs(keep)
	return rp, nil
}

// observe folds the facts of the request just executed into the totals
// that spans alone do not carry.
func (rp *replay) observe(ip *inproc, o *op, spans []span) {
	dur := func(st stage) float64 {
		for _, s := range spans {
			if s.Stage == st {
				return float64(s.End-s.Start) / 1e3
			}
		}
		return 0
	}
	rp.reqBytes += float64(ip.last.reqBytes)
	rp.resBytes += float64(ip.last.resBytes)
	if ip.last.submit {
		rp.submits++
		rp.ptml += float64(ip.last.ptmlBytes)
		if ip.last.hit {
			rp.hits++
			rp.hitUS += dur(stPipeline)
		} else {
			rp.misses++
			rp.missUS += dur(stPipeline)
			for i, p := range ip.last.passes {
				rp.rewrites += float64(p.Rewrites)
				rp.indexRewrites += p.Rules["index-scan"]
				if i == 0 {
					rp.nodesIn += float64(p.NodesAfter) // the source pass
				}
				if p.Name == "codegen" {
					rp.nodesOut += float64(p.NodesBefore)
				}
			}
		}
	}
	if ip.last.mutated {
		rp.rwCommits++
		rp.rwUS += dur(stCommit)
	} else {
		rp.roCommits++
		rp.roUS += dur(stCommit)
	}
	rp.applyUS[o.kind] += dur(stApply)
	rp.applyN[o.kind]++
	prof := ip.m.Profile()
	rp.steps += float64(prof.Steps)
	rp.transfers += float64(prof.Transfers)
	rp.framesAlloc += float64(prof.FramesAlloc)
	rp.vecRows += float64(prof.VecRows)
}

// keptRequest is one replayed request with the answer it got, kept to
// count codec allocations afterwards, outside every timed stage.
type keptRequest struct {
	o   op
	res *ship.Result
}

// codecAllocs counts the heap allocations of one round trip through the
// wire codec alone — request out and in, result out and in — averaged
// over the kept requests.
func codecAllocs(kept []keptRequest) float64 {
	if len(kept) == 0 {
		return 0
	}
	var buf bytes.Buffer
	roundtrip := func(k *keptRequest) {
		buf.Reset()
		if k.o.submit != nil {
			body, _ := k.o.submit.Encode()
			_ = ship.WriteFrame(&buf, ship.VSubmit, body)
			_, in, _ := ship.ReadFrame(&buf, 0)
			_, _ = ship.DecodeSubmit(in)
		} else {
			body, _ := k.o.call.Encode()
			_ = ship.WriteFrame(&buf, ship.VCall, body)
			_, in, _ := ship.ReadFrame(&buf, 0)
			_, _ = ship.DecodeCall(in)
		}
		buf.Reset()
		body, _ := k.res.Encode()
		_ = ship.WriteFrame(&buf, ship.VResult, body)
		_, in, _ := ship.ReadFrame(&buf, 0)
		_, _ = ship.DecodeResult(in)
	}
	for i := range kept { // grow the buffer before counting
		roundtrip(&kept[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range kept {
		roundtrip(&kept[i])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(kept))
}

// selfTime is a stage's time minus the part its child spans cover.
func (rp *replay) selfTime(st stage) float64 {
	t := rp.total[st]
	for c := stage(0); c < numStages; c++ {
		if c != st && stageParent[c] == st {
			t -= rp.total[c]
		}
	}
	return t
}

// replayMetrics fills the per-layer metrics of the in-process replay; a
// nil replay (cluster_scatter) reports zeros, honestly: no request of
// that workload was staged.
func replayMetrics(rep *report, wl *workload, rp *replay, served *phase) {
	if rp == nil {
		rp = &replay{applyUS: make([]float64, len(wl.kinds)), applyN: make([]int, len(wl.kinds))}
	}
	ops := float64(len(rp.kinds))
	per := func(v float64) float64 { return ratio(v, ops) }
	rep.set("ship.encode_request_us", per(rp.selfTime(stEncodeReq)), "us/op")
	rep.set("ship.decode_request_us", per(rp.selfTime(stDecodeReq)), "us/op")
	rep.set("ship.encode_result_us", per(rp.selfTime(stEncodeRes)), "us/op")
	rep.set("ship.decode_result_us", per(rp.selfTime(stDecodeRes)), "us/op")
	rep.set("ship.request_bytes", per(rp.reqBytes), "bytes")
	rep.set("ship.result_bytes", per(rp.resBytes), "bytes")
	rep.set("ship.allocs_per_roundtrip", rp.allocsPerRoundtrip, "count")
	rep.set("ptml.hash_us", per(rp.selfTime(stHash)), "us/op")
	rep.set("ptml.decode_us", per(rp.selfTime(stPtmlDecode)), "us/op")
	rep.set("ptml.bytes", ratio(rp.ptml, float64(rp.submits)), "bytes")
	rep.set("pipeline.run_hit_us", ratio(rp.hitUS, float64(rp.hits)), "us/op")
	rep.set("pipeline.run_miss_us", ratio(rp.missUS, float64(rp.misses)), "us/op")
	rep.set("pipeline.pass_us.source", per(rp.selfTime(stPassSource)), "us/op")
	rep.set("pipeline.pass_us.reduce", per(rp.selfTime(stPassReduce)), "us/op")
	rep.set("pipeline.pass_us.expand", per(rp.selfTime(stPassExpand)), "us/op")
	rep.set("pipeline.pass_us.codegen", per(rp.selfTime(stPassCodegen)), "us/op")
	rep.set("pipeline.pass_us.encode-tam", per(rp.selfTime(stPassEncodeTAM)), "us/op")
	rep.set("pipeline.pass_us.encode-ptml", per(rp.selfTime(stPassEncodePTML)), "us/op")
	rep.set("opt.rewrites_per_compile", ratio(rp.rewrites, float64(rp.misses)), "count")
	rep.set("opt.nodes_in", ratio(rp.nodesIn, float64(rp.misses)), "count")
	rep.set("opt.nodes_out", ratio(rp.nodesOut, float64(rp.misses)), "count")
	rep.set("qopt.indexscan_rewrites", float64(rp.indexRewrites), "count")
	rep.set("store.begin_us", per(rp.selfTime(stBegin)), "us/op")
	rep.set("store.commit_ro_us", ratio(rp.roUS, float64(rp.roCommits)), "us/op")
	rep.set("store.commit_rw_us", ratio(rp.rwUS, float64(rp.rwCommits)), "us/op")

	// machine.Apply has no children visible from outside, so each op kind
	// books its apply time to the layer that does its work.
	var machineUS, relalgUS float64
	var machineN, relalgN int
	for k := range wl.kinds {
		if wl.relational[k] {
			relalgUS, relalgN = relalgUS+rp.applyUS[k], relalgN+rp.applyN[k]
		} else {
			machineUS, machineN = machineUS+rp.applyUS[k], machineN+rp.applyN[k]
		}
	}
	rep.set("machine.apply_us", ratio(machineUS, float64(machineN)), "us/op")
	rep.set("relalg.apply_us", ratio(relalgUS, float64(relalgN)), "us/op")
	rep.set("machine.steps_per_op", per(rp.steps), "count")
	rep.set("machine.frames_alloc_per_op", per(rp.framesAlloc), "count")
	rep.set("machine.transfers_per_op", per(rp.transfers), "count")
	rep.set("relalg.vec_rows_per_op", per(rp.vecRows), "count")
	for _, name := range queryKindMetrics {
		var us float64
		var n int
		for k, m := range wl.queryMetric {
			if m == name {
				us, n = us+rp.applyUS[k], n+rp.applyN[k]
			}
		}
		rep.set(name, ratio(us, float64(n)), "us/op")
	}

	// Layer shares of the in-process request time.
	req := rp.total[stRequest]
	share := func(us float64) float64 { return 100 * ratio(us, req) }
	shipUS := rp.selfTime(stEncodeReq) + rp.selfTime(stDecodeReq) + rp.selfTime(stEncodeRes) + rp.selfTime(stDecodeRes)
	ptmlUS := rp.selfTime(stHash) + rp.selfTime(stPtmlDecode)
	pipeUS := rp.selfTime(stPipeline) + rp.selfTime(stPassSource) + rp.selfTime(stPassReduce) + rp.selfTime(stPassExpand) +
		rp.selfTime(stPassCodegen) + rp.selfTime(stPassEncodeTAM) + rp.selfTime(stPassEncodePTML)
	storeUS := rp.selfTime(stBegin) + rp.selfTime(stCommit)
	rep.set("share.ship", share(shipUS), "%")
	rep.set("share.ptml", share(ptmlUS), "%")
	rep.set("share.pipeline", share(pipeUS), "%")
	rep.set("share.store", share(storeUS), "%")
	rep.set("share.machine", share(machineUS), "%")
	rep.set("share.relalg", share(relalgUS), "%")

	// Do the layers add up? What the staged stages do not explain of the
	// served latency is socket, session loop, gates, dedup, scheduling.
	inproc := per(req)
	all, _, _ := served.latencies()
	servedMean := mean(all)
	rep.set("inproc.request_us", inproc, "us/op")
	rep.set("server.unattributed_us", servedMean-inproc, "us/op")
	rep.set("trace.overhead_ratio", rp.overhead, "ratio")
	if len(rp.requestUS) > 0 {
		rep.notef("in-process request p50 %.1f us over %d ops; served p50 %.1f us; served mean %.1f us = staged %.1f + unattributed %.1f",
			quantile(rp.requestUS, .5), len(rp.requestUS), quantile(all, .5), servedMean, inproc, servedMean-inproc)
		for k, kind := range wl.kinds {
			if rp.applyN[k] > 0 {
				rep.notef("apply %s: %.1f us/op over %d ops", kind, rp.applyUS[k]/float64(rp.applyN[k]), rp.applyN[k])
			}
		}
	}
}

// probeMetrics times the set-up-side layers once, in process: module
// installation (linker/tl) and, where the workload has optimized copies,
// reflective optimization and the paper's E2 ratios.
func probeMetrics(rep *report, wl *workload, w *world) error {
	sys, err := tycoon.Open("")
	if err != nil {
		return err
	}
	defer sys.Close()
	var installUS float64
	for _, src := range w.modules {
		t0 := time.Now()
		if _, err := sys.Install(src); err != nil {
			return fmt.Errorf("probe install: %w", err)
		}
		installUS += float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	if n := len(w.modules); n > 0 {
		installUS /= float64(n)
	}
	rep.set("linker.install_us", installUS, "us/op")

	var optimizeUS, rawSteps, optSteps, rawNS, optNS float64
	if len(w.optimize) > 0 {
		// The same argument on both sides, so the ratios compare like
		// with like: the program as installed against its optimized copy.
		run := func(module string, n int64) (steps, ns float64, err error) {
			best := time.Duration(1 << 62)
			for i := 0; i < 5; i++ {
				sys.ResetSteps()
				t0 := time.Now()
				if _, err := sys.Call(module, "run", tycoon.Int(n)); err != nil {
					return 0, 0, err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
				steps = float64(sys.Steps())
			}
			return steps, float64(best.Nanoseconds()), nil
		}
		for _, p := range stanfordPrograms {
			copyName, _ := optCopy(p)
			s, ns, err := run(p.name, p.rawN)
			if err != nil {
				return err
			}
			rawSteps, rawNS = rawSteps+s, rawNS+ns
			t0 := time.Now()
			if _, err := sys.OptimizeFunction(copyName, "run"); err != nil {
				return err
			}
			optimizeUS += float64(time.Since(t0).Nanoseconds()) / 1e3
			if s, ns, err = run(copyName, p.rawN); err != nil {
				return err
			}
			optSteps, optNS = optSteps+s, optNS+ns
		}
		optimizeUS /= float64(len(stanfordPrograms))
	}
	rep.set("reflectopt.optimize_us", optimizeUS, "us/op")
	rep.set("reflectopt.steps_ratio", ratio(rawSteps, optSteps), "ratio")
	rep.set("reflectopt.wall_ratio", ratio(rawNS, optNS), "ratio")
	rep.set("machine.raw_ns_per_step", ratio(rawNS, rawSteps), "ns/step")
	rep.set("machine.opt_ns_per_step", ratio(optNS, optSteps), "ns/step")
	return nil
}

// writeTrace writes the first traceFileRequests requests' spans to
// benchmark/out/trace-<workload>.json: one array per span, [request,
// stage, parent stage, start ns, end ns], with the stage names up front.
func (rp *replay) writeTrace(e *env, name string, seed int64) error {
	dir := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	fmt.Fprintf(out, "{\"workload\":%q,\"seed\":%d,\"requests_replayed\":%d,\"requests_written\":%d,\n\"stages\":[",
		name, seed, len(rp.kinds), min(len(rp.kinds), traceFileRequests))
	for i, s := range stageNames {
		if i > 0 {
			out.WriteByte(',')
		}
		fmt.Fprintf(out, "%q", s)
	}
	out.WriteString("],\n\"span_fields\":[\"request\",\"stage\",\"parent_stage\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	first := true
	written := make(map[int32]bool)
	for _, s := range rp.spans {
		if written[s.Req] = true; len(written) > traceFileRequests {
			break
		}
		if !first {
			out.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(out, "[%d,%d,%d,%d,%d]", s.Req, s.Stage, stageParent[s.Stage], s.Start, s.End)
	}
	out.WriteString("\n]}\n")
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
