// Package server implements tycd, the multi-session Tycoon database
// server: N concurrent client sessions sharing one persistent store, one
// relational index cache, one code table of reflectively optimized
// closures, the execution machines their requests borrow and — the point
// of the exercise — one compilation pipeline. A PTML tree submitted by any
// session is compiled (and optionally reflectively optimized) exactly
// once; every other session submitting the α-same term against the
// same bindings gets the cached code, and concurrent first submissions
// are deduplicated through the pipeline's singleflight group. The
// persistent intermediate representation the paper keeps in the store
// for years is here also the unit that crosses the wire between
// processes (paper §6: code shipping).
//
// Transport is the TYWR01 frame protocol of package ship: every request
// and response is one CRC-guarded frame, so a corrupt byte stream is
// detected before any payload is interpreted, answered with a typed
// protocol error, and the connection closed — never a crash, never a
// leaked session.
package server

import (
	"io"
	"sync"
	"time"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/reflectopt"
	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tyclib"
)

// Defaults for Config zero values.
const (
	DefaultWallBudget = 30 * time.Second
	// DefaultMaxInflight bounds requests executing concurrently across
	// all sessions; work beyond the bound is shed with CodeOverloaded
	// rather than queued unboundedly.
	DefaultMaxInflight = 128
	// DefaultRetryAfter is the backoff hint attached to overload
	// refusals.
	DefaultRetryAfter = 50 * time.Millisecond
)

// Config tunes a Server.
type Config struct {
	// MaxSessions bounds concurrently open sessions; further connections
	// are refused with a bad-request error. 0 means ship.DefaultMaxSessions.
	MaxSessions int
	// StepBudget bounds the abstract machine steps of one request; 0
	// means machine.DefaultMaxSteps.
	StepBudget int64
	// WallBudget bounds the wall-clock time of one request's execution;
	// 0 means DefaultWallBudget, negative disables the budget.
	WallBudget time.Duration
	// IdleTimeout closes sessions that send no request for this long;
	// 0 disables the idle check.
	IdleTimeout time.Duration
	// LocalOpt applies compile-time optimization when installing modules.
	LocalOpt bool
	// MaxInflight bounds requests executing concurrently across all
	// sessions; excess work verbs are refused with CodeOverloaded and a
	// retry-after hint instead of queueing unboundedly. 0 means
	// DefaultMaxInflight; negative disables the bound.
	MaxInflight int
	// RetryAfter is the backoff hint attached to CodeOverloaded
	// refusals; 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// WatchBacklog bounds the committed root changes retained for WATCH
	// resume-from-CSN; 0 means DefaultWatchBacklog. WatchQueue bounds one
	// subscriber's undelivered events before it is dropped (it resumes by
	// CSN); 0 means DefaultWatchQueue.
	WatchBacklog int
	WatchQueue   int
	// Dedup optionally supplies the idempotency record table; nil
	// creates a fresh one. The chaos harness passes one table across
	// drain/restart incarnations over the same store so keyed retries
	// stay exactly-once through a restart.
	Dedup *Dedup
	// Out receives the server log; nil discards it.
	Out io.Writer
}

// Server is a running tycd instance over one store. The wire front end
// — Serve, ListenAndServe, Shutdown, Stats, Health — is the embedded
// serving core's; this package supplies the verbs.
type Server struct {
	*ship.FrontEnd
	st   *store.Store
	cfg  Config
	comp *tl.Compiler
	lk   *linker.Linker
	pipe *pipeline.Pipeline
	ropt *reflectopt.Optimizer
	mg   *relalg.Manager
	// code is the server's one code image: every machine links persistent
	// closures and decodes code blobs into it, once per server, and
	// OPTIMIZE installs into it, so optimized code serves every session,
	// not only the one that asked.
	code *machine.CodeTable

	// idle holds the machines no request is running on (see run). It
	// never holds more than ran at once, which the overload gate and the
	// session limit bound; a sync.Pool would drop them at GC and the next
	// request would rebuild their stacks, frames and memos.
	idleMu sync.Mutex
	idle   []*machine.Machine

	// installMu serialises module compilation and installation: the TL
	// compiler accumulates module signatures and is not safe for
	// concurrent Compile calls.
	installMu sync.Mutex

	// dedup is the idempotency record table (see dedup.go).
	dedup *Dedup
	// watch fans committed root changes out to WATCH subscribers, fed by
	// the store's root hook (see watch.go).
	watch *hub
	// gate is the overload bound in front of the work verbs.
	gate *ship.Gate

	mu        sync.Mutex
	degraded  bool
	degReason string
}

// New builds a server over the store: linker, TL compiler with the
// standard library (installed only into a store that lacks it), the
// shared compilation pipeline (injected into the reflective optimizer so
// SUBMIT compilations and reflective optimizations share one cache), and
// the relational substrate manager. Installed modules are found through
// their module: roots, so a restart rebuilds no module table.
func New(st *store.Store, cfg Config) (*Server, error) {
	if cfg.WallBudget == 0 {
		cfg.WallBudget = DefaultWallBudget
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Dedup == nil {
		cfg.Dedup = NewDedup(0)
	}
	level := linker.OptNone
	if cfg.LocalOpt {
		level = linker.OptLocal
	}
	lk := linker.New(linker.Config{Level: level})
	// The library installs (into a store that lacks it) as one commit.
	tx := st.Begin()
	comp, err := tyclib.Install(tx, lk)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	pipe := pipeline.New(st, pipeline.Config{})
	s := &Server{
		st:    st,
		cfg:   cfg,
		comp:  comp,
		lk:    lk,
		pipe:  pipe,
		ropt:  reflectopt.New(st, reflectopt.Options{Pipe: pipe}),
		mg:    relalg.NewManager(st),
		code:  new(machine.CodeTable),
		dedup: cfg.Dedup,
		gate:  ship.NewGate(cfg.MaxInflight, cfg.RetryAfter, "server"),
	}
	s.watch = newHub(cfg.WatchBacklog, cfg.WatchQueue, st.CSN())
	st.SetRootHook(s.watch.publish)
	s.FrontEnd = ship.NewFrontEnd(ship.Daemon{
		Name:        "tycd",
		MaxSessions: cfg.MaxSessions,
		IdleTimeout: cfg.IdleTimeout,
		Out:         cfg.Out,
		Session:     func(c *ship.Session) map[ship.Verb]ship.Handler { return newSession(s, c).verbs() },
		Stats:       s.fillStats,
		Health: func(h *ship.Health) {
			h.Degraded, h.Reason = s.Degraded()
			h.Inflight = s.gate.Inflight()
		},
		// Watch sessions block on their subscriber queue, not a read: mark
		// every subscription dead with a shutdown reason before idle
		// sessions are nudged, so that when the nudge fires a stream's
		// parked reader, its final flush already finds the terminal error.
		BeforeDrain: s.watch.drain,
		// The store itself stays open; the owner closes it. Draining
		// flushes any backlog a failed commit left queued.
		AfterDrain: st.Flush,
	})
	return s, nil
}

// Pipeline exposes the shared compilation pipeline.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// run lends f a machine for one request: an idle one, or a new one over
// the server's code image with the step budget and the query executors.
// The machine runs against view, from a zero step count and under the
// request's wall deadline; afterwards it forgets both and goes back to
// the idle list. A machine whose run panicked is not put back: whatever
// state the panic left behind is never lent again.
func (s *Server) run(view store.View, f func(*machine.Machine) error) error {
	var m *machine.Machine
	s.idleMu.Lock()
	if n := len(s.idle); n > 0 {
		m = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	}
	s.idleMu.Unlock()
	if m == nil {
		m = machine.New(nil)
		m.Code = s.code
		m.MaxSteps = s.cfg.StepBudget
		s.mg.Register(m)
	}
	m.Store = view
	m.ResetSteps()
	if w := s.cfg.WallBudget; w > 0 {
		m.Deadline = time.Now().Add(w)
	}
	err := f(m)
	m.Store, m.Deadline = nil, time.Time{}
	s.idleMu.Lock()
	s.idle = append(s.idle, m)
	s.idleMu.Unlock()
	return err
}

// enterDegraded latches the advisory degraded flag: this writer's commit
// failed to reach the disk. Since the MVCC refactor the flag is
// per-writer in effect: only the failing request is answered with
// CodeDegraded, while other sessions' transactions, snapshots and pure
// reads keep working — their own commits answer for their own
// durability. The store keeps the failed records queued as backlog, so
// the next successful flush (any later commit, or ClearDegraded's probe)
// makes them durable and clears the flag.
func (s *Server) enterDegraded(err error) {
	s.mu.Lock()
	first := !s.degraded
	s.degraded = true
	s.degReason = err.Error()
	s.mu.Unlock()
	if first {
		s.Logf("degraded: store commits failing: %v", err)
	}
}

// noteCommit folds one commit outcome into the degraded flag: a failure
// latches it, a successful durable commit clears it (the disk is
// provably writable again, and the store's group committer has flushed
// the backlog of any earlier failure along the way).
func (s *Server) noteCommit(err error) {
	if err != nil {
		s.enterDegraded(err)
		return
	}
	s.mu.Lock()
	cleared := s.degraded
	s.degraded = false
	s.degReason = ""
	s.mu.Unlock()
	if cleared {
		s.Logf("leaving degraded mode: store commits again")
	}
}

// Degraded reports the read-only mode and its cause.
func (s *Server) Degraded() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degReason
}

// ClearDegraded probes the store with a flush and, if it succeeds,
// leaves degraded mode. The probe is a real write: whatever
// failed-commit backlog accumulated before the mode latched gets durable
// too.
func (s *Server) ClearDegraded() error {
	err := s.st.Flush()
	s.noteCommit(err)
	return err
}

// fillStats adds tycd's counters to the front end's snapshot.
func (s *Server) fillStats(out *ship.ServerStats) {
	s.mu.Lock()
	out.Degraded, out.DegradedReason = s.degraded, s.degReason
	s.mu.Unlock()
	out.Inflight, out.Shed = s.gate.Inflight(), s.gate.Shed()
	out.IdemApplied, out.IdemDeduped = s.dedup.Counters()
	out.Pipeline = s.pipe.CacheStats()
	out.Indexes = s.mg.IndexStats()
	tx := s.st.TxStats()
	out.Store = &tx
	out.Watch = s.watch.stats()
}
