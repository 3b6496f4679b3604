package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/ship"
)

// The load generator: bring a workload's processes up, warm them, and
// drive them from exactly two closed-loop connections in this one
// process — callers that wait for each reply, as tycsh and the gateway
// pool do, on a two-core box.

const connections = 2

// rig is one workload's running system: its stores, processes and the
// two load connections.
type rig struct {
	wl     *workload
	w      *world
	dir    string
	paths  []string // store files, one per tycd
	shards []*child
	coord  *child // nil for single-server workloads
	conns  []*client.Client
	gens   []func() op
	// monitors are STATS-only sessions, one per process (front first),
	// so reading counters never shares a session with the load.
	monitors []*client.Client
	// What the post-run audit must find, accumulated over every phase
	// driven on this rig (warm-up included): per connection the last
	// acknowledged value of each slot, and every acknowledged append.
	// triedEvents are appends that were sent, acknowledged or not: a row
	// outside this set and the seed data has no business in events.
	ackedSlot   [connections]map[int]int64
	ackedEvents [][3]int64
	triedEvents [][3]int64
}

// front is the address the load connects to.
func (r *rig) front() string {
	if r.coord != nil {
		return r.coord.addr
	}
	return r.shards[0].addr
}

func (r *rig) procs() []*child {
	if r.coord != nil {
		return append([]*child{r.coord}, r.shards...)
	}
	return r.shards
}

// bringUp is the whole set-up a user would pay before the first
// request: populate the stores through the facade, boot the servers
// (store open and log replay), connect, create the saved closures,
// reflectively optimize, and run the fixed-count warm-up. The caller
// times it as setup_s; building the binaries is not part of it.
func bringUp(e *env, wl *workload, w *world) (r *rig, err error) {
	dir, err := os.MkdirTemp(e.tmp, wl.name+"-")
	if err != nil {
		return nil, err
	}
	r = &rig{wl: wl, w: w, dir: dir}
	built := r // the deferred cleanup must see the rig even when r is returned nil
	defer func() {
		if err != nil {
			built.abandon()
			r = nil
		}
	}()
	for i, ds := range w.stores {
		path := filepath.Join(dir, fmt.Sprintf("s%d.tyst", i))
		if err = populate(path, ds, w.modules); err != nil {
			return
		}
		r.paths = append(r.paths, path)
	}
	for i, path := range r.paths {
		var c *child
		if c, err = e.spawn(fmt.Sprintf("tycd%d", i), "tycd", dir, "-store", path); err != nil {
			return
		}
		r.shards = append(r.shards, c)
	}
	if wl.cluster {
		var args []string
		for _, s := range r.shards {
			args = append(args, "-shard", s.addr)
		}
		if r.coord, err = e.spawn("tycc", "tycc", dir, args...); err != nil {
			return
		}
	}
	dial := func(addr, name string, lane int64) (*client.Client, error) {
		return client.Dial(addr, client.Options{Timeout: 60 * time.Second, Retries: 3,
			Client: name, Seed: w.seed*1000 + lane + 1})
	}
	for i, p := range r.procs() {
		var m *client.Client
		if m, err = dial(p.addr, "bench-monitor", int64(10+i)); err != nil {
			return
		}
		r.monitors = append(r.monitors, m)
	}
	for c := 0; c < connections; c++ {
		var cl *client.Client
		if cl, err = dial(r.front(), fmt.Sprintf("bench-c%d", c), int64(c)); err != nil {
			return
		}
		r.conns = append(r.conns, cl)
		r.gens = append(r.gens, wl.stream(w, c))
	}
	for name, term := range w.saved {
		var res *ship.Result
		if res, err = r.conns[0].SubmitTML(name, term, nil, false, name); err != nil {
			return nil, fmt.Errorf("set-up save %s: %w", name, err)
		}
		if res.Val.Int != savedAnswer {
			return nil, fmt.Errorf("set-up save %s answered %s", name, res.Val.Show())
		}
	}
	// Reflective optimization installs code in the optimizing session's
	// own machine, so every load connection optimizes for itself.
	for _, cl := range r.conns {
		for _, mod := range w.optimize {
			if _, err = cl.Optimize(mod, "run"); err != nil {
				return nil, fmt.Errorf("set-up optimize %s: %w", mod, err)
			}
		}
	}
	// One schedule cycle — every kind once — runs on connection 0 alone
	// before the two connections warm up side by side. A freshly booted
	// store loses the pre-boot state of an object at its first commit
	// (store.publishLocked starts the version chain without the replayed
	// base version), so a request whose snapshot was opened before the
	// first append to events and which reads events after it fails with
	// "object not found … (born after snapshot)": about one boot in 300
	// when the first appends of both connections race. That is the
	// system's bug to fix, not a cost to measure; a workload's operations
	// must not fail, so the first write to every object is made alone.
	conns, gens := r.conns, r.gens
	r.conns, r.gens = conns[:1], gens[:1]
	first := drive(r, wl.period, 0)
	r.conns, r.gens = conns, gens
	if first.failed > 0 {
		return nil, fmt.Errorf("first cycle: %d of %d operations failed: %s", first.failed, first.attempted, first.firstFailure)
	}
	warm := drive(r, wl.warmup, 0)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %s", warm.failed, warm.attempted, warm.firstFailure)
	}
	return r, nil
}

// childLogs says which processes of the rig have died and what they
// wrote (the servers run with -q: only what they say when they fail); it
// goes into the error when a process stops answering.
func (r *rig) childLogs() string {
	var b strings.Builder
	for _, p := range r.procs() {
		select {
		case <-p.done: // the log is only safe to read once its writer is gone
			fmt.Fprintf(&b, "%s exited (%v): %s\n", p.name, p.err, p.log.String())
		default:
			fmt.Fprintf(&b, "%s is still running\n", p.name)
		}
	}
	return b.String()
}

// abandon is the failure-path teardown: no draining, no audit.
func (r *rig) abandon() {
	for _, c := range append(r.conns, r.monitors...) {
		c.Close()
	}
	for _, p := range r.procs() {
		p.kill()
	}
	os.RemoveAll(r.dir)
}

// shutDown closes the sessions and drains every process with SIGTERM —
// coordinator first, so no shard disappears under a live fan-out. The
// stores stay on disk for the audit.
func (r *rig) shutDown() error {
	for _, c := range append(r.conns, r.monitors...) {
		c.Close()
	}
	var first error
	for _, p := range r.procs() {
		if err := p.drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sample is one completed operation of the measured phase.
type sample struct {
	kind  uint8
	write bool
	start time.Duration // since the phase began
	lat   time.Duration
}

// tick is one reading of the servers' cumulative CPU time, taken about
// once a second during a timed phase; consecutive ticks bound a slice.
type tick struct {
	at  time.Duration // since the phase began
	cpu float64       // user+system seconds of all server processes
}

// sliceLength is the spacing of ticks. A timed phase is cut into slices
// this long and every end-to-end figure is the median over the slices,
// so a burst of interference from the host's other tenants — which on a
// shared two-core box lasts a second or two and moves a whole-run figure
// by a tenth — costs one slice instead of the run.
const sliceLength = time.Second

// driveResult is the outcome of one closed-loop phase.
type driveResult struct {
	wall         time.Duration
	ticks        []tick   // timed phases only
	samples      []sample // successful operations of both connections
	attempted    int
	failed       int // errors after retries, refusals and wrong answers
	retries      int64
	firstFailure string
}

// send issues one op on a connection.
func send(c *client.Client, o *op) (*ship.Result, error) {
	if o.call != nil {
		return c.Call(o.call.Module, o.call.Fn, o.call.Args...)
	}
	return c.Submit(o.submit)
}

// drive runs both connections closed-loop until each has completed
// count operations (count > 0) or the duration has passed (count == 0).
// Only the request itself is inside an operation's latency; generating
// it and checking its answer count toward wall time, as they would for
// any real caller.
func drive(r *rig, count int, d time.Duration) *driveResult {
	type connOut struct {
		samples      []sample
		attempted    int
		failed       int
		slots        map[int]int64
		acked, tried [][3]int64
		firstFailure string
	}
	outs := make([]connOut, len(r.conns))
	before := make([]int64, len(r.conns))
	for i, c := range r.conns {
		before[i] = c.Retries()
	}
	var wg sync.WaitGroup
	begin := time.Now()
	var ticks []tick
	stopTicks, ticksDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer reapOnPanic()
		defer close(ticksDone)
		if count > 0 {
			return
		}
		t := time.NewTicker(sliceLength)
		defer t.Stop()
		for {
			var cpu float64
			for _, p := range r.procs() {
				if ps, err := p.sample(); err == nil {
					cpu += ps.cpuUser + ps.cpuSys
				}
			}
			ticks = append(ticks, tick{at: time.Since(begin), cpu: cpu})
			select {
			case <-t.C:
			case <-stopTicks:
				return
			}
		}
	}()
	for i := range r.conns {
		wg.Add(1)
		go func(i int) {
			defer reapOnPanic()
			defer wg.Done()
			c, gen := r.conns[i], r.gens[i]
			out := connOut{slots: make(map[int]int64)}
			defer func() { outs[i] = out }()
			streak := 0
			for n := 0; ; n++ {
				if count > 0 && n >= count {
					return
				}
				if count == 0 && time.Since(begin) >= d {
					return
				}
				o := gen()
				t0 := time.Now()
				res, err := send(c, &o)
				lat := time.Since(t0)
				out.attempted++
				if o.write && o.slot < 0 {
					out.tried = append(out.tried, o.event)
				}
				if err != nil || !o.want.ok(res.Val) {
					out.failed++
					if out.firstFailure == "" {
						if err != nil {
							out.firstFailure = fmt.Sprintf("%s: %v", r.wl.kinds[o.kind], err)
						} else {
							out.firstFailure = fmt.Sprintf("%s: wrong answer %s", r.wl.kinds[o.kind], res.Val.Show())
						}
					}
					// A dead server fails every request after its
					// retries; do not spin on it for the whole phase.
					if streak++; streak >= 20 {
						return
					}
					continue
				}
				streak = 0
				out.samples = append(out.samples, sample{kind: uint8(o.kind), write: o.write, start: t0.Sub(begin), lat: lat})
				if o.write {
					if o.slot >= 0 {
						out.slots[o.slot] = o.want.i
					} else {
						out.acked = append(out.acked, o.event)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(stopTicks)
	<-ticksDone
	res := &driveResult{wall: time.Since(begin), ticks: ticks}
	for i, out := range outs {
		res.samples = append(res.samples, out.samples...)
		res.attempted += out.attempted
		res.failed += out.failed
		if r.ackedSlot[i] == nil {
			r.ackedSlot[i] = make(map[int]int64)
		}
		for s, v := range out.slots {
			r.ackedSlot[i][s] = v
		}
		r.ackedEvents = append(r.ackedEvents, out.acked...)
		r.triedEvents = append(r.triedEvents, out.tried...)
		if res.firstFailure == "" {
			res.firstFailure = out.firstFailure
		}
		res.retries += r.conns[i].Retries() - before[i]
	}
	return res
}
