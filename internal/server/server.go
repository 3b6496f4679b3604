// Package server implements tycd, the multi-session Tycoon database
// server: N concurrent client sessions, each with its own execution
// machine, sharing one persistent store, one relational index cache, one
// code table of reflectively optimized closures and — the point of the
// exercise — one compilation pipeline. A PTML tree submitted by any
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
	// code is the server's one code table: OPTIMIZE installs into it and
	// every session's machine consults it before its own lazy links, so
	// optimized code serves every session, not only the one that asked.
	code *machine.CodeTable

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
	modules   map[string]store.OID
	degraded  bool
	degReason string
}

// New builds a server over the store: linker, TL compiler with the
// standard library installed, the shared compilation pipeline (injected
// into the reflective optimizer so SUBMIT compilations and reflective
// optimizations share one cache), and the relational substrate manager.
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
	lk := linker.New(st, linker.Config{Level: level})
	comp, err := tyclib.Install(st, lk)
	if err != nil {
		return nil, err
	}
	pipe := pipeline.New(st, pipeline.Config{})
	s := &Server{
		st:      st,
		cfg:     cfg,
		comp:    comp,
		lk:      lk,
		pipe:    pipe,
		ropt:    reflectopt.New(st, reflectopt.Options{Pipe: pipe}),
		mg:      relalg.NewManager(st),
		code:    new(machine.CodeTable),
		modules: make(map[string]store.OID),
		dedup:   cfg.Dedup,
		gate:    ship.NewGate(cfg.MaxInflight, cfg.RetryAfter, "server"),
	}
	for _, root := range st.Roots() {
		if len(root) > len(linker.ModuleRoot) && root[:len(linker.ModuleRoot)] == linker.ModuleRoot {
			if oid, ok := st.Root(root); ok {
				s.modules[root[len(linker.ModuleRoot):]] = oid
			}
		}
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
		// The store itself stays open; the owner closes it.
		AfterDrain: st.Commit,
	})
	return s, nil
}

// Manager exposes the shared relational substrate so embedders (tests,
// the server benchmark) can create relations in-process before serving.
func (s *Server) Manager() *relalg.Manager { return s.mg }

// Pipeline exposes the shared compilation pipeline.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// module resolves an installed module by name.
func (s *Server) module(name string) (store.OID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oid, ok := s.modules[name]
	return oid, ok
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

// ClearDegraded probes the store with a commit and, if it succeeds,
// leaves degraded mode. The probe is a real commit: whatever dirty
// state and failed-commit backlog accumulated before the mode latched
// gets durable too.
func (s *Server) ClearDegraded() error {
	err := s.st.Commit()
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
