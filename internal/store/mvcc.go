package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// This file implements multi-version concurrency control over the store:
// per-OID version chains, snapshot reads pinned at a commit sequence
// number (CSN), per-session transactions with first-committer-wins
// conflict detection, and a group committer that batches concurrent
// commits into one fsync under a single commit trailer of the existing
// v2 log format (the trailer already frames N records, so grouped
// transactions need no format change and stay tycfsck-auditable).
//
// The legacy single-writer API (Alloc/Get/Update/MarkDirty/Commit) keeps
// its exact semantics: it operates on the live head state and publishes a
// new version per mutation, so snapshots opened concurrently still read
// consistently. The one caveat is in-place mutation of arrays through the
// raw-store API: the old and new version share the object pointer, so
// such changes are visible through older snapshots too. The transactional
// path never mutates in place — writers work on private copies published
// at commit — which is what the server uses for all sessions.

// ErrConflict is the sentinel wrapped by first-committer-wins aborts: a
// transaction tried to commit a write to an object (or root binding) that
// another transaction committed to after this one's snapshot was taken.
// The transaction has been rolled back; nothing it wrote is visible.
// Retrying the whole transaction against a fresh snapshot is always safe.
var ErrConflict = errors.New("store: transaction conflict")

// version is one committed state of an object. Chains are ordered newest
// first; prev pointers are immutable once published (truncation rewrites
// only the link out of the oldest reachable version, under s.mu).
type version struct {
	csn  uint64
	obj  Object
	rows int // relation row horizon at publication; -1 for other kinds
	prev *version
}

// publishLocked makes obj the live state of oid and pushes it as the new
// head version at the current CSN, then reclaims chain tail versions no
// snapshot can reach. Caller holds s.mu and has already advanced s.csn to
// the publishing event's CSN.
func (s *Store) publishLocked(oid OID, obj Object) {
	s.seedBaseLocked(oid)
	s.objects[oid] = obj
	s.vers[oid] = &version{csn: s.csn, obj: obj, rows: rowHorizon(obj), prev: s.vers[oid]}
	s.gcChainLocked(oid)
}

// seedBaseLocked starts the version chain of an object that has none but
// exists — one replayed from the log and not republished since — with
// that base state as a CSN-0 version, so a snapshot opened before the
// object's first commit of this boot still resolves it (to the old state)
// afterwards instead of finding only versions born after it. publishLocked
// calls it; a writer that moves a relation's row horizon before
// publishing (Txn.Commit's append merge) calls it first. Caller holds s.mu.
func (s *Store) seedBaseLocked(oid OID) {
	if s.vers[oid] != nil {
		return
	}
	if base, ok := s.objects[oid]; ok {
		s.vers[oid] = &version{obj: base, rows: rowHorizon(base)}
	}
}

// rowHorizon is the row count a version of obj pins: a relation's current
// length, -1 for every other kind.
func rowHorizon(obj Object) int {
	if r, ok := obj.(*Relation); ok {
		return r.NumRows()
	}
	return -1
}

// gcChainLocked truncates oid's version chain below the oldest pinned
// snapshot: every snapshot at CSN p is served by the newest version with
// csn <= p, so versions older than the one serving the minimum pin are
// unreachable and reclaimed. With no snapshots open the chain collapses
// to its head.
func (s *Store) gcChainLocked(oid OID) {
	v := s.vers[oid]
	if v == nil {
		return
	}
	min := s.minPinLocked()
	for v.csn > min && v.prev != nil {
		v = v.prev
	}
	v.prev = nil
}

// minPinLocked returns the smallest pinned snapshot CSN, or the maximum
// CSN when no snapshot is open. Caller holds s.mu.
func (s *Store) minPinLocked() uint64 {
	min := ^uint64(0)
	for csn := range s.pins {
		if csn < min {
			min = csn
		}
	}
	return min
}

// resolveAt resolves oid as of snapshot (csn, nextAt). OIDs allocated
// after the snapshot opened (oid >= nextAt) read through to the live
// head: they are unreachable from the snapshot's roots except through
// the reading transaction's own writes, so serving the head is sound and
// lets a request read objects it allocated mid-flight (e.g. compiled
// code published by the pipeline). The returned rows value is the
// relation row horizon of the resolved version (-1: use the live count).
func (s *Store) resolveAt(oid OID, csn uint64, nextAt OID) (Object, int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[oid]
	if !ok {
		return nil, 0, fmt.Errorf("%w: oid 0x%x", ErrNotFound, uint64(oid))
	}
	v := s.vers[oid]
	if oid >= nextAt || v == nil {
		// Allocated after the snapshot opened, or never republished since
		// replay (base state, visible to every snapshot).
		return obj, -1, nil
	}
	for v != nil && v.csn > csn {
		v = v.prev
	}
	if v == nil {
		// Every version postdates the snapshot: the object was born after it.
		return nil, 0, fmt.Errorf("%w: oid 0x%x (born after snapshot)", ErrNotFound, uint64(oid))
	}
	return v.obj, v.rows, nil
}

// relView builds a read view of a live relation pinned at a row horizon:
// schema and rows share the live object's storage (rows are append-only,
// so the covered prefix is immutable), and the three-index slice forces
// any append through the view to reallocate instead of scribbling the
// shared backing array. canon links the view back to the live relation,
// so a clean view (no private appends past its horizon) is served from
// the live relation's derived cache: columns and index lookups alike.
func relView(live *Relation, horizon int) *Relation {
	rows := live.RowsSnapshot()
	if horizon < 0 || horizon > len(rows) {
		horizon = len(rows)
	}
	return &Relation{
		Name:      live.Name,
		Schema:    live.Schema,
		Indexes:   live.Indexes,
		Rows:      rows[:horizon:horizon],
		canon:     live,
		canonRows: horizon,
	}
}

// --- snapshots --------------------------------------------------------------

// Snap is an immutable snapshot of the store pinned at a CSN: reads see
// exactly the state committed at open time, with no locking beyond a
// brief read-lock per object resolution. Release unpins it so version
// chains can be reclaimed; an unreleased snapshot pins every version it
// might still read.
type Snap struct {
	s        *Store
	csn      uint64
	nextAt   OID
	roots    map[string]OID // copy-on-write: never mutated after capture
	released bool
}

// Snapshot opens a snapshot of the current committed state.
func (s *Store) Snapshot() *Snap {
	s.mu.Lock()
	sn := &Snap{s: s, csn: s.csn, nextAt: s.next, roots: s.roots}
	s.pins[sn.csn]++
	s.snaps++
	s.mu.Unlock()
	return sn
}

// CSN reports the commit sequence number the snapshot is pinned at.
func (sn *Snap) CSN() uint64 { return sn.csn }

// Get resolves an OID as of the snapshot. Relations come back as
// horizon-pinned views: rows committed after the snapshot never appear.
func (sn *Snap) Get(oid OID) (Object, error) {
	obj, rows, err := sn.s.resolveAt(oid, sn.csn, sn.nextAt)
	if err != nil {
		return nil, err
	}
	if r, ok := obj.(*Relation); ok {
		return relView(r, rows), nil
	}
	return obj, nil
}

// Root resolves a root name as of the snapshot.
func (sn *Snap) Root(name string) (OID, bool) {
	oid, ok := sn.roots[name]
	return oid, ok
}

// Release unpins the snapshot. Idempotent; must be called by the owner
// goroutine when the snapshot is no longer needed.
func (sn *Snap) Release() {
	if sn.released {
		return
	}
	sn.released = true
	s := sn.s
	s.mu.Lock()
	if n := s.pins[sn.csn]; n <= 1 {
		delete(s.pins, sn.csn)
	} else {
		s.pins[sn.csn] = n - 1
	}
	s.snaps--
	s.mu.Unlock()
}

// --- transactions -----------------------------------------------------------

// writeClass classifies a transaction's write to one OID, mirroring the
// legacy API's epoch rules: updates (and root changes) advance the
// binding epoch, in-place dirty mutations do not, and fresh allocations
// can never conflict.
type writeClass uint8

const (
	classAlloc  writeClass = iota + 1 // fresh allocation, conflict-free
	classUpdate                       // identity replacement, bumps epoch
	classDirty                        // in-place mutation (array store, row append)
)

// Txn is a snapshot-isolated transaction: reads come from a pinned
// snapshot, writes go to a private buffer, and Commit publishes all of
// them atomically under one CSN — or aborts with ErrConflict if another
// transaction committed a conflicting write first (first-committer-wins
// on the write sets; reads are isolated by the snapshot). Relation row
// appends commute: two transactions appending to the same relation both
// commit, their rows merged in commit order. A Txn is owned by one
// goroutine; it implements View, so a machine can execute against it.
type Txn struct {
	s        *Store
	snap     *Snap
	local    map[OID]Object
	class    map[OID]writeClass
	base     map[OID]*Relation // live relation a view was derived from
	baseRows map[OID]int       // committed row horizon of that view
	rootW    map[string]OID
	done     bool
}

// Begin opens a transaction over a fresh snapshot.
func (s *Store) Begin() *Txn {
	return &Txn{
		s:        s,
		snap:     s.Snapshot(),
		local:    make(map[OID]Object),
		class:    make(map[OID]writeClass),
		base:     make(map[OID]*Relation),
		baseRows: make(map[OID]int),
		rootW:    make(map[string]OID),
	}
}

// Snapshot exposes the transaction's read snapshot.
func (t *Txn) Snapshot() *Snap { return t.snap }

// Mutated reports whether the transaction wrote anything (the server's
// dedup table records only executions with durable effects).
func (t *Txn) Mutated() bool { return len(t.class) > 0 || len(t.rootW) > 0 }

// Get resolves an OID: the transaction's own writes first, then the
// snapshot. Mutable kinds are localised on first access — arrays and
// byte arrays as private deep copies, relations as structurally-shared
// views — so in-place mutation through the returned object never touches
// shared state before Commit.
func (t *Txn) Get(oid OID) (Object, error) {
	if obj, ok := t.local[oid]; ok {
		return obj, nil
	}
	obj, rows, err := t.s.resolveAt(oid, t.snap.csn, t.snap.nextAt)
	if err != nil {
		return nil, err
	}
	switch o := obj.(type) {
	case *Relation:
		view := relView(o, rows)
		t.local[oid] = view
		t.base[oid] = o
		t.baseRows[oid] = view.canonRows
		return view, nil
	case *Array:
		cp := o.clone()
		t.local[oid] = cp
		return cp, nil
	case *ByteArray:
		cp := o.clone()
		t.local[oid] = cp
		return cp, nil
	default:
		// Immutable kinds are shared with the snapshot directly.
		return obj, nil
	}
}

// MustGet is Get for OIDs the caller knows resolve.
func (t *Txn) MustGet(oid OID) Object {
	obj, err := t.Get(oid)
	if err != nil {
		panic(err)
	}
	return obj
}

// Alloc stores obj under a fresh OID, private to the transaction until
// Commit. The OID is reserved globally (aborting leaves a hole, which
// the log format tolerates).
func (t *Txn) Alloc(obj Object) OID {
	t.s.mu.Lock()
	oid := t.s.next
	t.s.next++
	t.s.mu.Unlock()
	t.local[oid] = obj
	t.class[oid] = classAlloc
	return oid
}

// Update records a new state for oid, replacing its identity at Commit.
func (t *Txn) Update(oid OID, obj Object) error {
	if _, ok := t.local[oid]; !ok {
		if _, _, err := t.s.resolveAt(oid, t.snap.csn, t.snap.nextAt); err != nil {
			return err
		}
	}
	t.local[oid] = obj
	if t.class[oid] != classAlloc {
		t.class[oid] = classUpdate
	}
	// Drop any relation-view bookkeeping: an identity replacement is a
	// real write-write conflict with concurrent appends, not a merge.
	delete(t.base, oid)
	return nil
}

// MarkDirty schedules the transaction's localised copy of oid for
// publication at Commit (the in-place mutation entry point the machine's
// array stores and relalg's row appends use).
func (t *Txn) MarkDirty(oid OID) {
	if _, ok := t.local[oid]; !ok {
		if _, err := t.Get(oid); err != nil {
			return
		}
	}
	if _, ok := t.class[oid]; !ok {
		t.class[oid] = classDirty
	}
}

// SetRoot binds a root name, visible to other sessions at Commit.
func (t *Txn) SetRoot(name string, oid OID) {
	t.rootW[name] = oid
}

// Root resolves a root name: the transaction's writes, then the snapshot.
func (t *Txn) Root(name string) (OID, bool) {
	if oid, ok := t.rootW[name]; ok {
		return oid, true
	}
	return t.snap.Root(name)
}

// Abort rolls the transaction back: nothing it wrote becomes visible.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	mutated := t.Mutated()
	t.snap.Release()
	if mutated {
		t.s.mu.Lock()
		t.s.txAborted++
		t.s.mu.Unlock()
	}
}

// Commit validates and publishes the transaction. Conflict detection is
// first-committer-wins over the write set: a written OID whose head
// version postdates the snapshot aborts with ErrConflict — except
// relation row appends against an unchanged relation identity, which
// commute and merge. On success every write is published atomically
// under one new CSN and the encoded records are staged with the group
// committer; the call returns once a leader has fsynced them (batched
// with whatever other transactions queued meanwhile). A read-only commit
// is free. On ErrConflict the transaction rolled back; on an I/O error
// the writes are published in memory and their records stay queued — the
// next successful flush (any later commit, or Store.Flush) makes them
// durable, so the failure latches only this writer's durability answer,
// not the store.
func (t *Txn) Commit() error {
	if t.done {
		return errors.New("store: transaction already finished")
	}
	t.done = true
	defer t.snap.Release()
	if !t.Mutated() {
		return nil
	}
	s := t.s

	s.mu.Lock()
	// --- validate: first committer wins ---
	for oid, cl := range t.class {
		if cl == classAlloc {
			continue
		}
		head := s.vers[oid]
		if head == nil || head.csn <= t.snap.csn {
			continue
		}
		if cl == classDirty {
			if live, ok := t.base[oid]; ok && s.objects[oid] == Object(live) {
				// Row appends against the same live relation identity
				// commute with the committed writes (they were appends too).
				continue
			}
		}
		s.txConflicts++
		s.txAborted++
		s.mu.Unlock()
		return fmt.Errorf("%w: oid 0x%x modified since snapshot (csn %d)", ErrConflict, uint64(oid), t.snap.csn)
	}
	for name := range t.rootW {
		if s.roots[name] != t.snap.roots[name] {
			s.txConflicts++
			s.txAborted++
			s.mu.Unlock()
			return fmt.Errorf("%w: root %q rebound since snapshot", ErrConflict, name)
		}
	}

	// --- publish under one CSN ---
	s.csn++
	var recs bytes.Buffer
	count := 0
	oids := make([]OID, 0, len(t.class))
	for oid := range t.class {
		oids = append(oids, oid)
	}
	sortOIDs(oids)
	for _, oid := range oids {
		obj := t.local[oid]
		logObj := obj
		if live, ok := t.base[oid]; ok && t.class[oid] == classDirty {
			// Merge private appended rows into the live relation, then log
			// the merged state: encoding only this transaction's view would
			// lose a concurrent committer's rows under last-writer-wins
			// replay.
			view := obj.(*Relation)
			s.seedBaseLocked(oid)
			for _, row := range view.RowsSnapshot()[t.baseRows[oid]:] {
				live.AppendRow(row)
			}
			s.publishLocked(oid, live)
			logObj = relView(live, s.vers[oid].rows)
		} else {
			s.publishLocked(oid, obj)
		}
		if t.class[oid] == classUpdate {
			s.epoch++
		}
		logFormat.AppendRecord(&recs, s.version, objectRecord(oid, logObj))
		count++
	}
	if len(t.rootW) > 0 {
		next := make(map[string]OID, len(s.roots)+len(t.rootW))
		for k, v := range s.roots {
			next[k] = v
		}
		changes := make([]RootChange, 0, len(t.rootW))
		for _, name := range rootNames(t.rootW) {
			next[name] = t.rootW[name]
			s.epoch++
			logFormat.AppendRecord(&recs, s.version, rootRecord(name, t.rootW[name]))
			count++
			changes = append(changes, RootChange{Root: name, OID: t.rootW[name]})
		}
		s.roots = next
		if s.rootHook != nil {
			// One call for the whole commit, under s.mu: observers see the
			// batch at a single CSN, in CSN order, never torn.
			s.rootHook(s.csn, changes)
		}
	}
	s.txCommitted++
	var req *commitReq
	if s.file != nil {
		req = &commitReq{recs: recs, count: count}
		s.cm.stage(req)
	}
	s.mu.Unlock()

	if req == nil {
		return nil
	}
	return s.awaitCommit(req)
}

// --- group committer --------------------------------------------------------

// commitReq is one staged record batch awaiting durability. Records are
// encoded at stage time (under s.mu, preserving CSN order in the queue);
// a leader later writes every queued batch under one commit trailer and
// fsyncs once for all of them.
type commitReq struct {
	recs  bytes.Buffer
	count int
	done  bool
	err   error
	// absorbed marks a request satisfied by Compact's full rewrite while
	// a leader held it: the leader must not append its records again.
	absorbed bool
}

// committer is the group-commit engine. Committers stage their encoded
// records and wait; the first waiter to find the committer idle becomes
// the leader, drains the whole queue in one write+fsync, and wakes
// everyone. A failed flush keeps the records queued (the backlog) so a
// later commit — or an operator probe via Flush — retries them; only the
// requests in the failed batch observe the error.
type committer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*commitReq
	flushing bool
	batches  uint64 // fsync batches written
	grouped  uint64 // transactions covered by those batches
	lastErr  string
	// gate, when non-nil, delays each leader flush until a token arrives —
	// a test hook for forcing deterministic multi-transaction batches.
	gate chan struct{}
}

func (c *committer) init() {
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
}

// stage enqueues a request. Called with s.mu held, so queue order is
// commit (CSN) order.
func (c *committer) stage(req *commitReq) {
	c.mu.Lock()
	c.init()
	c.queue = append(c.queue, req)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// awaitCommit blocks until req is durable or its flush attempt failed,
// electing this goroutine leader when no flush is running.
func (s *Store) awaitCommit(req *commitReq) error {
	c := &s.cm
	c.mu.Lock()
	c.init()
	for !req.done {
		if !c.flushing && len(c.queue) > 0 {
			c.flushing = true
			batch := append([]*commitReq(nil), c.queue...)
			gate := c.gate
			c.mu.Unlock()
			if gate != nil {
				<-gate
			}
			err := s.flushBatch(batch)
			c.mu.Lock()
			c.flushing = false
			if err == nil {
				c.queue = removeReqs(c.queue, batch, false)
				var txns uint64
				for _, r := range batch {
					if !r.absorbed && r.count > 0 {
						txns++
					}
				}
				if txns > 0 {
					c.batches++
					c.grouped += txns
				}
				c.lastErr = ""
			} else {
				c.lastErr = err.Error()
				// Keep real batches queued for retry; drop satisfied probes.
				c.queue = removeReqs(c.queue, batch, true)
			}
			for _, r := range batch {
				r.done = true
				r.err = err
			}
			c.cond.Broadcast()
			continue
		}
		c.cond.Wait()
	}
	// Read under the lock: after a failed flush the request stays queued,
	// and the leader that retries it writes its outcome again.
	err := req.err
	c.mu.Unlock()
	return err
}

// removeReqs removes the given batch's requests from the queue by
// identity (queue membership may have changed while the leader flushed:
// Compact absorbs queued requests, and new commits stage behind them).
// With probesOnly set, only the batch's empty probe requests are removed
// — the failed-flush path, which keeps real records queued as backlog.
func removeReqs(queue []*commitReq, batch []*commitReq, probesOnly bool) []*commitReq {
	drop := make(map[*commitReq]bool, len(batch))
	for _, r := range batch {
		if !probesOnly || r.count == 0 {
			drop[r] = true
		}
	}
	kept := queue[:0]
	for _, r := range queue {
		if !drop[r] {
			kept = append(kept, r)
		}
	}
	return kept
}

// absorb marks every queued request durable and clears the queue:
// Compact calls it (under fileMu+s.mu) right before rewriting the log
// from the in-memory state, which covers everything the queue holds.
func (c *committer) absorb() {
	c.mu.Lock()
	for _, r := range c.queue {
		r.done = true
		r.absorbed = true
	}
	c.queue = nil
	c.cond.Broadcast()
	c.mu.Unlock()
}

// flushBatch writes every staged batch as one framed group: all records,
// one commit trailer, one fsync. The trailer's count field frames the
// whole group, so replay applies the grouped transactions all-or-nothing
// and tycfsck sees one well-formed batch.
func (s *Store) flushBatch(batch []*commitReq) error {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	// Skip requests already satisfied while this leader waited for the
	// file lock (Compact absorbed them into a full rewrite).
	c := &s.cm
	var raw bytes.Buffer
	count := 0
	c.mu.Lock()
	for _, r := range batch {
		if r.absorbed {
			continue
		}
		raw.Write(r.recs.Bytes())
		count += r.count
	}
	c.mu.Unlock()
	if count == 0 {
		return nil // probe-only batch: durability already verified by queue emptiness
	}
	if s.file == nil {
		return nil
	}
	info, err := s.file.Stat()
	if err != nil {
		return fmt.Errorf("store: stat: %w", err)
	}
	var out bytes.Buffer
	if info.Size() == 0 {
		logFormat.AppendHeader(&out, s.version)
	}
	out.Write(raw.Bytes())
	logFormat.AppendTrailer(&out, s.version, count, raw.Bytes())
	if _, err := s.file.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: seek: %w", err)
	}
	if _, err := s.file.Write(out.Bytes()); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Flush makes any backlogged commit records durable: it is the operator
// probe behind ClearDegraded (an empty-queue store answers nil without
// touching the disk) and the heal path after a failed commit.
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.file == nil {
		s.mu.Unlock()
		return nil
	}
	c := &s.cm
	c.mu.Lock()
	c.init()
	var req *commitReq
	if len(c.queue) > 0 || c.flushing {
		req = &commitReq{}
		c.queue = append(c.queue, req)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	s.mu.Unlock()
	if req == nil {
		return nil
	}
	return s.awaitCommit(req)
}

// --- stats ------------------------------------------------------------------

// TxStats is a snapshot of the store's MVCC counters; the server's STATS
// verb exposes it and tycsh prints it.
type TxStats struct {
	OpenSnapshots int     `json:"open_snapshots"`
	Committed     uint64  `json:"txns_committed"`
	Aborted       uint64  `json:"txns_aborted"`
	Conflicts     uint64  `json:"conflicts"`
	Batches       uint64  `json:"batches"`
	BatchTxns     uint64  `json:"batch_txns"`
	MeanBatch     float64 `json:"mean_batch"`
	Backlog       int     `json:"backlog,omitempty"`
	FlushErr      string  `json:"flush_err,omitempty"`
}

// TxStats reports the MVCC counters: open snapshots, transaction
// outcomes, and group-commit batching (BatchTxns/Batches = mean
// transactions per fsync).
func (s *Store) TxStats() TxStats {
	s.mu.RLock()
	st := TxStats{
		OpenSnapshots: s.snaps,
		Committed:     s.txCommitted,
		Aborted:       s.txAborted,
		Conflicts:     s.txConflicts,
	}
	s.mu.RUnlock()
	c := &s.cm
	c.mu.Lock()
	st.Batches = c.batches
	st.BatchTxns = c.grouped
	st.Backlog = len(c.queue)
	st.FlushErr = c.lastErr
	c.mu.Unlock()
	if st.Batches > 0 {
		st.MeanBatch = float64(st.BatchTxns) / float64(st.Batches)
	}
	return st
}
