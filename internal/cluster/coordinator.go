package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/handoff"
	"tycoon/internal/iofault"
	"tycoon/internal/ship"
)

// Defaults for Config zero values.
const (
	DefaultTimeout        = 30 * time.Second
	DefaultRetries        = 3
	DefaultRetryBase      = 5 * time.Millisecond
	DefaultRetryMax       = 250 * time.Millisecond
	DefaultMaxInflight    = 128
	DefaultRetryAfter     = 50 * time.Millisecond
	DefaultProbeInterval  = 250 * time.Millisecond
	DefaultRepairInterval = 250 * time.Millisecond
)

// poolSize bounds the idle-session pool kept per replica.
const poolSize = 4

// Config tunes a Coordinator.
type Config struct {
	// Topology is the shard placement map; required.
	Topology Topology
	// Timeout bounds each shard request attempt; Retries, RetryBase and
	// RetryMax configure the per-shard retrying clients (see package
	// client). Zeros mean the defaults above.
	Timeout   time.Duration
	Retries   int
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeAfter launches a hedge request against another replica (or a
	// second session to the same one) when a shard read has not answered
	// after this long; first answer wins and the loser is aborted. 0
	// disables hedging.
	HedgeAfter time.Duration
	// AllowPartial lets a scatter read degrade to a partial result that
	// names the unreachable shards' hash ranges instead of failing.
	AllowPartial bool
	// MaxInflight bounds requests executing through the coordinator at
	// once; excess work is refused with CodeOverloaded and a RetryAfter
	// hint, composing with each shard's own inflight gate underneath. 0
	// means DefaultMaxInflight; negative disables the gate.
	MaxInflight int
	// RetryAfter is the hint attached to coordinator refusals.
	RetryAfter time.Duration
	// ProbeInterval paces the health probes that revive replicas marked
	// down by request failures. 0 means the default; negative disables
	// probing (tests drive MarkAllUp by hand).
	ProbeInterval time.Duration
	// HandoffDir enables replica repair: when a write-all application
	// finds a replica unreachable, the write is accepted anyway and
	// appended to a per-replica write-ahead handoff log under this
	// directory; a background loop later replays the log to the revived
	// replica in original order under the original idempotency keys and
	// re-admits it to reads only after an anti-entropy digest exchange.
	// Empty disables handoff: a down replica then fails the write with a
	// distinct replica-down refusal instead (fail closed, but say why).
	HandoffDir string
	// RepairInterval paces the background repair loop draining handoff
	// logs to revived replicas. 0 means the default; negative disables
	// the loop (tests drive RepairNow by hand).
	RepairInterval time.Duration
	// Seed makes client jitter and minted idempotency keys
	// deterministic; 0 seeds from the clock.
	Seed int64
	// MaxSessions and IdleTimeout tune the wire front end NewServer puts
	// before the coordinator: the bound on concurrently open client
	// sessions (0 means ship.DefaultMaxSessions) and how long a session may
	// sit without sending a request (0 disables the idle check).
	MaxSessions int
	IdleTimeout time.Duration
	// Out receives the coordinator's and its front end's log; nil
	// discards it.
	Out io.Writer
}

// Replica repair states. The down latch tracks connectivity (probe
// flips it back); state tracks whether the replica's store is known to
// hold every acked write. They move independently: a revived replica is
// up but still lagging until the repair loop drains its handoff log and
// the digest audit passes.
const (
	repLive      int32 = iota // holds every acked write; serves reads
	repLagging                // has a handoff backlog; held out of reads
	repRepairing              // repair loop is draining it right now
)

var repStateNames = [...]string{"live", "lagging", "repairing"}

// replica is one shard replica as the coordinator tracks it: a pool of
// idle sessions, a health latch flipped by request failures and probe
// successes, and — when handoff is enabled — the repair state machine
// around its write-ahead handoff log.
type replica struct {
	shard int
	addr  string

	mu   sync.Mutex
	idle []*client.Client

	down  atomic.Bool
	fails atomic.Int64

	// state is the repair latch (repLive/repLagging/repRepairing). lagMu
	// serialises lag transitions against handoff appends: the repair
	// loop's final lagging→live flip happens under lagMu only when the
	// log is empty, and writers append only after re-checking the state
	// under lagMu, so a write can never slip into a log nobody drains.
	state atomic.Int32
	lagMu sync.Mutex
	ho    *handoff.Log

	// mismatched latches a failed anti-entropy audit: the replica
	// diverged in a way replay cannot explain and stays out of reads
	// until an operator intervenes (MarkAllUp clears the latch).
	mismatched    atomic.Bool
	lastRepairCSN atomic.Uint64

	// appends counts handoff appends ever made for this replica; the
	// audit uses it to tell in-flight lag (a peer applied a write whose
	// handoff record is still landing) from genuine divergence.
	// auditStrikes counts consecutive quiescent digest disagreements;
	// only a second strike latches mismatched.
	appends      atomic.Int64
	auditStrikes atomic.Int32
}

// shard is one shard's replicas plus its ring slice.
type shard struct {
	index    int
	rng      Range
	replicas []*replica
}

// Coordinator plans distributed requests over the topology.
type Coordinator struct {
	cfg    Config
	shards []*shard

	gate *ship.Gate

	keyMu   sync.Mutex
	rng     *rand.Rand
	keyBase string
	keySeq  uint64

	scatter   atomic.Int64
	routed    atomic.Int64
	failovers atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	partials  atomic.Int64

	handoffWrites  atomic.Int64
	repairShipped  atomic.Int64
	repairs        atomic.Int64
	repairMismatch atomic.Int64

	stopProbe  chan struct{}
	probeWG    sync.WaitGroup
	stopRepair chan struct{}
	repairWG   sync.WaitGroup
	repairMu   sync.Mutex // serialises repair passes (loop, tests, drain)
	closed     atomic.Bool
}

// New builds a coordinator over the topology and starts its health
// probe loop.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.RepairInterval == 0 {
		cfg.RepairInterval = DefaultRepairInterval
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	co := &Coordinator{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(seed)),
		gate:       ship.NewGate(cfg.MaxInflight, cfg.RetryAfter, "coordinator"),
		stopProbe:  make(chan struct{}),
		stopRepair: make(chan struct{}),
	}
	co.keyBase = fmt.Sprintf("tycc-%08x", co.rng.Uint32())
	for i := range cfg.Topology.Shards {
		s := &shard{index: i, rng: cfg.Topology.RangeOf(i)}
		co.shards = append(co.shards, s)
		for j, addr := range cfg.Topology.Shards[i].Replicas {
			rep := &replica{shard: i, addr: addr}
			if cfg.HandoffDir != "" {
				path := filepath.Join(cfg.HandoffDir, fmt.Sprintf("shard%d-r%d.hlog", i, j))
				ho, err := handoff.Open(iofault.OS(), path)
				if err != nil {
					co.closeHandoff()
					return nil, fmt.Errorf("open handoff log %s: %w", path, err)
				}
				rep.ho = ho
				if n := ho.Len(); n > 0 {
					// The last run acked writes this replica never saw;
					// it must not serve reads until they are replayed.
					rep.state.Store(repLagging)
					co.logf("shard %d replica %s boots lagging: %d deferred writes in %s", i, addr, n, path)
				}
			}
			s.replicas = append(s.replicas, rep)
		}
	}
	if cfg.ProbeInterval > 0 {
		co.probeWG.Add(1)
		go co.probeLoop()
	}
	if cfg.HandoffDir != "" && cfg.RepairInterval > 0 {
		co.repairWG.Add(1)
		go co.repairLoop()
	}
	return co, nil
}

// closeHandoff closes every handoff log opened so far (New error path
// and Close).
func (co *Coordinator) closeHandoff() {
	for _, s := range co.shards {
		for _, rep := range s.replicas {
			if rep.ho != nil {
				rep.ho.Close()
			}
		}
	}
}

// Close stops the probe and repair loops, closes every pooled session
// and closes the handoff logs. Undrained handoff records stay on disk;
// the next coordinator boot reopens them and resumes repair.
func (co *Coordinator) Close() {
	if co.closed.Swap(true) {
		return
	}
	close(co.stopProbe)
	close(co.stopRepair)
	co.probeWG.Wait()
	co.repairWG.Wait()
	for _, s := range co.shards {
		for _, rep := range s.replicas {
			rep.mu.Lock()
			for _, c := range rep.idle {
				c.Close()
			}
			rep.idle = nil
			rep.mu.Unlock()
		}
	}
	co.repairMu.Lock() // no repair pass mid-flight while logs close
	co.closeHandoff()
	co.repairMu.Unlock()
}

// Topology exposes the placement map.
func (co *Coordinator) Topology() Topology { return co.cfg.Topology }

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Out != nil {
		fmt.Fprintf(co.cfg.Out, "tycc: "+format+"\n", args...)
	}
}

// nextKey mints an idempotency key for a logical write the end client
// did not key itself: the key is chosen once per logical request, so
// replica fan-out and coordinator retries all dedup to one application.
func (co *Coordinator) nextKey() string {
	co.keyMu.Lock()
	defer co.keyMu.Unlock()
	co.keySeq++
	return fmt.Sprintf("%s-%d", co.keyBase, co.keySeq)
}

func (co *Coordinator) clientSeed() int64 {
	co.keyMu.Lock()
	defer co.keyMu.Unlock()
	return co.rng.Int63() + 1
}

// Gate is the coordinator's inflight bound. The refusal happens before
// any shard is contacted, composing with each shard's own gate.
func (co *Coordinator) Gate() *ship.Gate { return co.gate }

// --- replica sessions -------------------------------------------------------

// get pops an idle session or dials a fresh one.
func (rep *replica) get(co *Coordinator) (*client.Client, error) {
	rep.mu.Lock()
	if n := len(rep.idle); n > 0 {
		c := rep.idle[n-1]
		rep.idle = rep.idle[:n-1]
		rep.mu.Unlock()
		return c, nil
	}
	rep.mu.Unlock()
	c, err := client.Dial(rep.addr, client.Options{
		Timeout:   co.cfg.Timeout,
		Client:    fmt.Sprintf("tycc→shard%d", rep.shard),
		Retries:   co.cfg.Retries,
		RetryBase: co.cfg.RetryBase,
		RetryMax:  co.cfg.RetryMax,
		Seed:      co.clientSeed(),
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// put returns a session to the pool, or closes it when the pool is full.
func (rep *replica) put(co *Coordinator, c *client.Client) {
	rep.mu.Lock()
	if len(rep.idle) < poolSize && !co.closed.Load() {
		rep.idle = append(rep.idle, c)
		rep.mu.Unlock()
		return
	}
	rep.mu.Unlock()
	c.Close()
}

// dropIdle empties the pool (the sessions' connections are presumed
// dead after the replica failed).
func (rep *replica) dropIdle() {
	rep.mu.Lock()
	idle := rep.idle
	rep.idle = nil
	rep.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

func (co *Coordinator) markDown(rep *replica, err error) {
	rep.fails.Add(1)
	if !rep.down.Swap(true) {
		co.logf("shard %d replica %s marked down: %v", rep.shard, rep.addr, err)
	}
	rep.dropIdle()
}

func (co *Coordinator) markUp(rep *replica) {
	if rep.down.Swap(false) {
		co.logf("shard %d replica %s back up", rep.shard, rep.addr)
	}
}

// probeLoop revives down replicas: a cheap HEALTH probe on a fresh
// connection flips the latch back once the replica answers again.
func (co *Coordinator) probeLoop() {
	defer co.probeWG.Done()
	t := time.NewTicker(co.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.stopProbe:
			return
		case <-t.C:
		}
		for _, s := range co.shards {
			for _, rep := range s.replicas {
				if !rep.down.Load() {
					continue
				}
				c, err := client.Dial(rep.addr, client.Options{
					Timeout: co.cfg.Timeout,
					Client:  "tycc-probe",
					Seed:    co.clientSeed(),
				})
				if err != nil {
					continue
				}
				if _, err := c.Health(); err == nil {
					co.markUp(rep)
				}
				c.Close()
			}
		}
	}
}

// liveFirst orders a shard's replicas for reads: up ones first, each
// group in index order, so reads prefer healthy replicas but still walk
// the whole list when every latch is down (the latch may be stale).
// Replicas that are lagging or under repair are excluded outright — a
// replica with a handoff backlog is missing acked writes, and a stale
// read from it would be a wrong answer, which is strictly worse than a
// degraded (partial or refused) one.
func (s *shard) liveFirst() []*replica {
	out := make([]*replica, 0, len(s.replicas))
	for _, rep := range s.replicas {
		if rep.state.Load() == repLive && !rep.down.Load() {
			out = append(out, rep)
		}
	}
	for _, rep := range s.replicas {
		if rep.state.Load() == repLive && rep.down.Load() {
			out = append(out, rep)
		}
	}
	return out
}

// errAllLagging marks a shard whose every replica is held out of reads
// by the repair state machine.
var errAllLagging = errors.New("every replica is lagging behind the handoff log")

// unavailable wraps the last availability error of a shard into the
// retryable refusal the coordinator answers with: the request was not
// (observably) executed, so the client may retry it for every verb.
func (co *Coordinator) unavailable(shardIdx int, err error) *ship.WireError {
	return &ship.WireError{
		Code:         ship.CodeOverloaded,
		Msg:          fmt.Sprintf("shard %d unavailable: %v", shardIdx, err),
		RetryAfterMs: uint32(co.cfg.RetryAfter / time.Millisecond),
	}
}

// replicaDown is the write-side refusal when handoff is not configured:
// the write-all invariant cannot be met with a replica unreachable, and
// unlike the generic overload refusal this one names the condition so
// clients and operators can tell "retry in a moment" from "a replica is
// down and writes will keep failing until it returns or handoff is
// enabled". Nothing was observably executed, so it is retryable.
func (co *Coordinator) replicaDown(shardIdx int, rep *replica, err error) *ship.WireError {
	cause := "unreachable"
	if err != nil {
		cause = err.Error()
	}
	return &ship.WireError{
		Code: ship.CodeReplicaDown,
		Msg: fmt.Sprintf("shard %d replica %s down and no handoff log configured (-handoff-dir): %s",
			shardIdx, rep.addr, cause),
		RetryAfterMs: uint32(co.cfg.RetryAfter / time.Millisecond),
	}
}

// --- reads: failover + hedging ----------------------------------------------

// raceAttempt is one in-flight read attempt in a shard race.
type raceAttempt struct {
	mu        sync.Mutex
	c         *client.Client
	cancelled bool
	hedge     bool
	rep       *replica
}

type raceOutcome struct {
	att  *raceAttempt
	res  *ship.Result
	err  error
	conn *client.Client
}

// readShard performs one read against a shard: the preferred replica
// first, failover to the next on availability errors, and — when
// HedgeAfter is set — a hedge attempt racing the straggler, first
// answer wins, loser aborted so its server session frees now.
func (co *Coordinator) readShard(s *shard, op func(*client.Client) (*ship.Result, error)) (*ship.Result, error) {
	order := s.liveFirst()
	if len(order) == 0 {
		// Every replica is lagging or under repair: serving the read
		// would risk a wrong (stale) answer, so degrade instead.
		return nil, co.unavailable(s.index, errAllLagging)
	}
	// One attempt per replica, plus one extra hedge slot for the
	// single-replica case (a second session to the same replica re-rolls
	// connection-level misfortune).
	maxAttempts := len(order) + 1
	outcomes := make(chan raceOutcome, maxAttempts)
	var atts []*raceAttempt

	launch := func(rep *replica, hedge bool) {
		att := &raceAttempt{hedge: hedge, rep: rep}
		atts = append(atts, att)
		go func() {
			c, err := rep.get(co)
			if err != nil {
				outcomes <- raceOutcome{att: att, err: err}
				return
			}
			att.mu.Lock()
			if att.cancelled {
				att.mu.Unlock()
				c.Close()
				outcomes <- raceOutcome{att: att, err: client.ErrAborted}
				return
			}
			att.c = c
			att.mu.Unlock()
			res, err := op(c)
			outcomes <- raceOutcome{att: att, res: res, err: err, conn: c}
		}()
	}

	cancelOthers := func(winner *raceAttempt) {
		for _, att := range atts {
			if att == winner {
				continue
			}
			att.mu.Lock()
			att.cancelled = true
			if att.c != nil {
				att.c.Abort()
			}
			att.mu.Unlock()
		}
	}

	next := 0
	launch(order[next], false)
	next++
	launched, pending := 1, 1

	var hedgeTimer <-chan time.Time
	if co.cfg.HedgeAfter > 0 {
		hedgeTimer = time.After(co.cfg.HedgeAfter)
	}

	// drain disposes of straggler outcomes after the race is decided:
	// aborted sessions are closed, intact ones pooled.
	drain := func(n int) {
		if n <= 0 {
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				o := <-outcomes
				if o.conn == nil {
					continue
				}
				if o.err != nil {
					o.conn.Close()
				} else {
					o.att.rep.put(co, o.conn)
				}
			}
		}()
	}

	var firstErr error
	for {
		select {
		case o := <-outcomes:
			pending--
			if o.err == nil {
				co.markUp(o.att.rep)
				cancelOthers(o.att)
				o.att.rep.put(co, o.conn)
				if o.att.hedge {
					co.hedgeWins.Add(1)
				}
				if o.att.hedge || next > 1 && o.att.rep != order[0] {
					// Count a read served by other than the preferred
					// replica's primary attempt as a failover win.
					if !o.att.hedge {
						co.failovers.Add(1)
					}
				}
				drain(pending)
				return o.res, nil
			}
			if o.conn != nil {
				o.conn.Close()
			}
			if o.att.cancelled {
				// A loser we aborted; not evidence about the replica.
				if pending == 0 {
					if firstErr == nil {
						firstErr = o.err
					}
					return nil, firstErr
				}
				continue
			}
			if ship.Definitive(o.err) != nil {
				// The shard answered; that IS the result of the read.
				cancelOthers(o.att)
				drain(pending)
				return nil, o.err
			}
			co.markDown(o.att.rep, o.err)
			if firstErr == nil {
				firstErr = o.err
			}
			if next < len(order) {
				co.failovers.Add(1)
				launch(order[next], false)
				next++
				launched++
				pending++
			} else if pending == 0 {
				return nil, firstErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if launched >= maxAttempts {
				continue
			}
			rep := order[0]
			if next < len(order) {
				rep = order[next]
				next++
			}
			co.hedges.Add(1)
			launch(rep, true)
			launched++
			pending++
		}
	}
}

// --- writes: all replicas, one idempotency key ------------------------------

// shardWrite is one keyed write as writeShard fans it out: the live op
// for reachable replicas, plus the original verb, idempotency key and
// encoded body that a handoff record preserves for later replay.
type shardWrite struct {
	verb ship.Verb
	key  string
	body []byte
	op   func(*client.Client) (*ship.Result, error)
}

// writeShard applies a keyed write to every replica of a shard in
// order; all must ack for the write to be acked (write-all), reads may
// then be served by any replica (read-any). The shared idempotency key
// makes the fan-out and any coordinator or client retry converge to
// exactly one application per replica store.
//
// With handoff enabled, a replica that is down does not fail the write:
// its ack is replaced by a durable append to the replica's write-ahead
// handoff log, and the replica is latched lagging (out of reads) until
// the repair loop replays the log and the digest audit passes. The
// appends happen only after at least one replica actually executed the
// write — an entirely unreachable shard still refuses (retryable), so a
// never-acked write can never reappear out of a handoff log.
func (co *Coordinator) writeShard(s *shard, wr *shardWrite) (*ship.Result, error) {
	var first *ship.Result
	var deferred []*replica
	for _, rep := range s.replicas {
		if rep.state.Load() != repLive {
			// Already lagging: order the write behind its backlog.
			deferred = append(deferred, rep)
			continue
		}
		c, err := rep.get(co)
		if err == nil {
			var res *ship.Result
			res, err = wr.op(c)
			if err == nil {
				co.markUp(rep)
				rep.put(co, c)
				if first == nil {
					first = res
				}
				continue
			}
			c.Close()
			if ship.Definitive(err) != nil {
				return nil, err
			}
		}
		co.markDown(rep, err)
		if rep.ho == nil {
			return nil, co.replicaDown(s.index, rep, err)
		}
		rep.lagMu.Lock()
		rep.state.CompareAndSwap(repLive, repLagging)
		rep.lagMu.Unlock()
		co.logf("shard %d replica %s lagging, deferring writes to handoff: %v", s.index, rep.addr, err)
		deferred = append(deferred, rep)
	}
	if first == nil {
		if len(deferred) == 0 {
			// A shard with zero replicas cannot validate; unreachable.
			return nil, co.unavailable(s.index, errors.New("no replicas"))
		}
		// No replica executed the write, so there is no result to ack
		// and nothing may be handed off (an unacked write must not
		// replay later). Refuse retryably instead.
		return nil, co.replicaDown(s.index, deferred[0], nil)
	}
	for _, rep := range deferred {
		if werr := co.deferWrite(s, rep, wr); werr != nil {
			return nil, werr
		}
	}
	return first, nil
}

// deferWrite durably appends one write to a lagging replica's handoff
// log, standing in for that replica's ack. The append happens under
// lagMu after re-checking the state: the repair loop flips lagging→live
// under the same lock only when the log is empty, so either our record
// lands while the latch holds (a repair pass will drain it) or the
// replica went live and we apply the write directly.
func (co *Coordinator) deferWrite(s *shard, rep *replica, wr *shardWrite) *ship.WireError {
	for {
		rep.lagMu.Lock()
		if rep.state.Load() != repLive {
			_, err := rep.ho.Append(byte(wr.verb), wr.key, wr.body)
			if err == nil {
				rep.appends.Add(1)
			}
			rep.lagMu.Unlock()
			if err != nil {
				// The handoff log itself failed (disk): the replica's
				// ack cannot be stood in for, fail the write closed.
				co.logf("shard %d replica %s handoff append failed: %v", s.index, rep.addr, err)
				return co.unavailable(s.index, err)
			}
			co.handoffWrites.Add(1)
			return nil
		}
		rep.lagMu.Unlock()
		// Repair finished while this write was in flight; the replica is
		// live again, so give it the write directly like any other.
		c, err := rep.get(co)
		if err == nil {
			_, err = wr.op(c)
			if err == nil {
				co.markUp(rep)
				rep.put(co, c)
				return nil
			}
			c.Close()
			if we := ship.Definitive(err); we != nil {
				return we
			}
		}
		co.markDown(rep, err)
		rep.lagMu.Lock()
		rep.state.CompareAndSwap(repLive, repLagging)
		rep.lagMu.Unlock()
	}
}

// --- the distributed verbs --------------------------------------------------

// Submit routes a submit: a saving submit is a keyed write applied to
// every replica of the shard owning the save name; everything else is a
// scatter read fanned to all shards and merged under the request's
// merge policy.
func (co *Coordinator) Submit(req *ship.Submit) (*ship.Result, error) {
	if req.Save != "" {
		co.routed.Add(1)
		fwd := *req
		fwd.Merge = ship.MergeAuto
		if fwd.IdemKey == "" {
			// Key the logical write once here, so the replica fan-out
			// and every retry layer dedups to one application.
			fwd.IdemKey = co.nextKey()
		}
		s := co.shards[co.cfg.Topology.ShardFor(req.Save)]
		body, err := fwd.Encode()
		if err != nil {
			return nil, &ship.WireError{Code: ship.CodeBadRequest, Msg: err.Error()}
		}
		return co.writeShard(s, &shardWrite{
			verb: ship.VSubmit,
			key:  fwd.IdemKey,
			body: body,
			op: func(c *client.Client) (*ship.Result, error) {
				return c.Submit(&fwd)
			},
		})
	}
	co.scatter.Add(1)
	fwd := *req
	fwd.Merge = ship.MergeAuto
	return co.scatterSubmit(&fwd, req.Merge)
}

// scatterSubmit fans one submit to every shard in parallel and merges.
func (co *Coordinator) scatterSubmit(fwd *ship.Submit, policy ship.Merge) (*ship.Result, error) {
	n := len(co.shards)
	results := make([]*ship.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, s := range co.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			results[i], errs[i] = co.readShard(s, func(c *client.Client) (*ship.Result, error) {
				return c.Submit(fwd)
			})
		}(i, s)
	}
	wg.Wait()

	var missing []int
	var lastErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if ship.Definitive(err) != nil {
			// One shard's real answer (an exec error, a compile error)
			// is the query's answer, exactly as on a single node.
			return nil, err
		}
		missing = append(missing, i)
		lastErr = err
	}
	if len(missing) == n {
		return nil, co.unavailable(missing[0], lastErr)
	}
	if len(missing) > 0 && !co.cfg.AllowPartial {
		return nil, co.unavailable(missing[0], lastErr)
	}
	merged, err := mergeResults(policy, results)
	if err != nil {
		return nil, err
	}
	// An explain answer concatenates the per-shard plans, labelled: the
	// cluster's "plan" is what each shard actually executed.
	var plans []string
	for i, r := range results {
		if r != nil && r.Explain != "" {
			plans = append(plans, fmt.Sprintf("shard%d:\n%s", i, r.Explain))
		}
	}
	if len(plans) > 0 {
		merged.Explain = strings.Join(plans, "\n")
	}
	if len(missing) > 0 {
		co.partials.Add(1)
		merged.Partial = true
		for _, i := range missing {
			merged.Missing = append(merged.Missing, co.cfg.Topology.MissingName(i))
		}
	}
	return merged, nil
}

// Call routes a call to the shard owning the target name (read-any
// with failover): saved closures live on the shard their save was
// routed to; module functions are installed everywhere, so hashing the
// qualified name spreads the load while keeping routing deterministic.
func (co *Coordinator) Call(module, fn string, args []ship.WVal) (*ship.Result, error) {
	co.routed.Add(1)
	key := fn
	if module != "" {
		key = module + "." + fn
	}
	s := co.shards[co.cfg.Topology.ShardFor(key)]
	return co.readShard(s, func(c *client.Client) (*ship.Result, error) {
		return c.Call(module, fn, args...)
	})
}

// Install fans a module install to every replica of every shard — a
// distributed query's predicate may run anywhere, so the module must
// exist everywhere. One idempotency key covers the whole fan-out.
func (co *Coordinator) Install(req *ship.Install) (*ship.Result, error) {
	co.routed.Add(1)
	fwd := *req
	if fwd.IdemKey == "" {
		fwd.IdemKey = co.nextKey()
	}
	body := fwd.Encode()
	var first *ship.Result
	for _, s := range co.shards {
		res, err := co.writeShard(s, &shardWrite{
			verb: ship.VInstall,
			key:  fwd.IdemKey,
			body: body,
			op: func(c *client.Client) (*ship.Result, error) {
				return c.InstallReq(&fwd)
			},
		})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		}
	}
	return first, nil
}

// Optimize fans a reflective optimization to every shard through
// readShard, so on each shard it reaches the replica a read would, not
// every replica. The install lives in that replica's code table only:
// the shard's other replicas, a restarted replica and a failover target
// keep running unoptimized code, and a retry does not change that.
// Partial application is harmless, since optimized and unoptimized code
// answer alike.
func (co *Coordinator) Optimize(module, fn string) (*ship.Result, error) {
	co.routed.Add(1)
	var first *ship.Result
	for _, s := range co.shards {
		res, err := co.readShard(s, func(c *client.Client) (*ship.Result, error) {
			return c.Optimize(module, fn)
		})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		}
	}
	return first, nil
}

// Ping probes one live replica per shard.
func (co *Coordinator) Ping() error {
	for _, s := range co.shards {
		_, err := co.readShard(s, func(c *client.Client) (*ship.Result, error) {
			return nil, c.Ping()
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Health aggregates cluster health: ok when every shard has a live
// replica, degraded when some shard is entirely down (scatter reads
// would go partial), and the shard servers' own degraded latches
// propagate too.
func (co *Coordinator) Health() ship.Health {
	h := ship.Health{Status: "ok"}
	for _, s := range co.shards {
		allDown := true
		for _, rep := range s.replicas {
			// A lagging replica serves no reads, so it does not keep a
			// shard out of the degraded state.
			if rep.state.Load() == repLive && !rep.down.Load() {
				allDown = false
			}
		}
		if allDown {
			h.Degraded = true
			h.Reason = fmt.Sprintf("shard %d has no live replica", s.index)
			h.Status = "degraded"
		}
	}
	h.Inflight = co.gate.Inflight()
	return h
}

// Stats snapshots the coordinator counters.
func (co *Coordinator) Stats() *ship.ClusterStats {
	st := &ship.ClusterStats{
		Shards:         len(co.shards),
		Scatter:        co.scatter.Load(),
		Routed:         co.routed.Load(),
		Failovers:      co.failovers.Load(),
		Hedges:         co.hedges.Load(),
		HedgeWins:      co.hedgeWins.Load(),
		Partials:       co.partials.Load(),
		Shed:           co.gate.Shed(),
		HandoffWrites:  co.handoffWrites.Load(),
		RepairShipped:  co.repairShipped.Load(),
		RepairMismatch: co.repairMismatch.Load(),
	}
	for _, s := range co.shards {
		for _, rep := range s.replicas {
			rep.mu.Lock()
			idle := len(rep.idle)
			rep.mu.Unlock()
			backlog := 0
			if rep.ho != nil {
				backlog = rep.ho.Len()
			}
			st.Replicas = append(st.Replicas, ship.ReplicaStat{
				Shard:         s.index,
				Addr:          rep.addr,
				Down:          rep.down.Load(),
				Fails:         rep.fails.Load(),
				Idle:          idle,
				State:         repStateNames[rep.state.Load()],
				Backlog:       backlog,
				LastRepairCSN: rep.lastRepairCSN.Load(),
			})
		}
	}
	// After the states: a repair is counted before its replica turns live.
	st.Repairs = co.repairs.Load()
	return st
}

// --- merging ----------------------------------------------------------------

// mergeResults combines per-shard answers: relation results concatenate
// in shard order (deterministic output), scalars combine under the
// policy. Entries may be nil (missing shards); at least one must be
// present.
func mergeResults(policy ship.Merge, results []*ship.Result) (*ship.Result, error) {
	present := make([]*ship.Result, 0, len(results))
	for _, r := range results {
		if r != nil {
			present = append(present, r)
		}
	}
	if len(present) == 0 {
		return nil, &ship.WireError{Code: ship.CodeInternal, Msg: "merge of zero shard results"}
	}
	out := &ship.Result{}
	for _, r := range present {
		out.Info.Steps += r.Info.Steps
		out.Info.Rewrites += r.Info.Rewrites
		out.Info.Inlined += r.Info.Inlined
		if r.Info.Micros > out.Info.Micros {
			out.Info.Micros = r.Info.Micros // shards ran in parallel
		}
		if r.Info.Shared {
			out.Info.Shared = true
		}
	}
	// The cache-hit flag is the conjunction: "this distributed query hit
	// the compiled-code cache" means every shard reused its compilation.
	out.Info.CacheHit = true
	for _, r := range present {
		if !r.Info.CacheHit {
			out.Info.CacheHit = false
		}
	}

	if present[0].Val.Kind == ship.WRel {
		t := &ship.WTable{}
		for _, r := range present {
			if r.Val.Kind != ship.WRel || r.Val.Rel == nil {
				return nil, &ship.WireError{Code: ship.CodeInternal,
					Msg: "shards disagree on result shape (relation vs scalar)"}
			}
			if len(t.Cols) == 0 {
				t.Cols = r.Val.Rel.Cols
			}
			t.Rows = append(t.Rows, r.Val.Rel.Rows...)
		}
		out.Val = ship.WVal{Kind: ship.WRel, Rel: t}
		return out, nil
	}

	v, err := mergeScalars(policy, present)
	if err != nil {
		return nil, err
	}
	out.Val = v
	return out, nil
}

func mergeScalars(policy ship.Merge, present []*ship.Result) (ship.WVal, error) {
	internal := func(format string, args ...any) (ship.WVal, error) {
		return ship.WVal{}, &ship.WireError{Code: ship.CodeInternal, Msg: fmt.Sprintf(format, args...)}
	}
	first := present[0].Val
	switch policy {
	case ship.MergeAuto:
		for _, r := range present[1:] {
			if !scalarEqual(first, r.Val) {
				return internal("shards disagree on a scalar answer (%s vs %s); "+
					"use merge=sum/any/all for partitioned aggregates", first.Show(), r.Val.Show())
			}
		}
		return first, nil
	case ship.MergeSum:
		switch first.Kind {
		case ship.WInt:
			var sum int64
			for _, r := range present {
				if r.Val.Kind != ship.WInt {
					return internal("merge=sum over non-integer answer %s", r.Val.Show())
				}
				sum += r.Val.Int
			}
			return ship.WVal{Kind: ship.WInt, Int: sum}, nil
		case ship.WReal:
			var sum float64
			for _, r := range present {
				if r.Val.Kind != ship.WReal {
					return internal("merge=sum over non-real answer %s", r.Val.Show())
				}
				sum += r.Val.Real
			}
			return ship.WVal{Kind: ship.WReal, Real: sum}, nil
		default:
			return internal("merge=sum over %s", first.Show())
		}
	case ship.MergeAny, ship.MergeAll:
		acc := policy == ship.MergeAll
		for _, r := range present {
			if r.Val.Kind != ship.WBool {
				return internal("merge=%s over non-boolean answer %s", policy, r.Val.Show())
			}
			if policy == ship.MergeAny {
				acc = acc || r.Val.Bool
			} else {
				acc = acc && r.Val.Bool
			}
		}
		return ship.WVal{Kind: ship.WBool, Bool: acc}, nil
	default:
		return internal("unknown merge policy %d", byte(policy))
	}
}

// scalarEqual compares wire scalars for the agreement check.
func scalarEqual(a, b ship.WVal) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case ship.WNil:
		return true
	case ship.WInt:
		return a.Int == b.Int
	case ship.WReal:
		return a.Real == b.Real
	case ship.WBool:
		return a.Bool == b.Bool
	case ship.WChar:
		return a.Ch == b.Ch
	case ship.WStr, ship.WRoot:
		return a.Str == b.Str
	case ship.WRef:
		return a.Ref == b.Ref
	default:
		return false
	}
}

// MarkAllUp resets every replica's health latch (tests and operators).
// It also clears the anti-entropy mismatch latch — the operator's "I
// fixed it, audit again" lever — but never the lagging state itself:
// only a drained handoff log and a passing digest audit restore a
// replica to reads.
func (co *Coordinator) MarkAllUp() {
	for _, s := range co.shards {
		for _, rep := range s.replicas {
			co.markUp(rep)
			rep.mismatched.Store(false)
			rep.auditStrikes.Store(0)
		}
	}
}
