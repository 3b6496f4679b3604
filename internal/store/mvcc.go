package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
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
// A transaction is the only way to write. The store itself is read-only:
// Get, Root and Snapshot read committed state, and nothing reaches the
// live state or the log except a Txn's Commit or Publish (a commit that
// does not wait for the disk and keeps the transaction open). Writers
// never mutate shared objects in place — a transaction works on private
// copies of the mutable kinds and publishes them at commit — so every
// snapshot reads exactly the state committed when it opened, arrays
// included, and a transaction that fails or is abandoned leaves no
// trace.

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
// snapshot can reach. With no snapshot open the chain is just its head,
// which is overwritten in place. Caller holds s.mu and has already
// advanced s.csn to the publishing event's CSN.
func (s *Store) publishLocked(oid OID, obj Object) {
	s.seedBaseLocked(oid)
	s.objects[oid] = obj
	if v := s.vers[oid]; v != nil && s.snaps == 0 {
		*v = version{csn: s.csn, obj: obj, rows: rowHorizon(obj)}
		return
	}
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
	sn := new(Snap)
	s.mu.Lock()
	s.pinLocked(sn)
	s.mu.Unlock()
	return sn
}

// pinLocked points sn at the current committed state and pins it.
// Caller holds s.mu.
func (s *Store) pinLocked(sn *Snap) {
	*sn = Snap{s: s, csn: s.csn, nextAt: s.next, roots: s.roots}
	s.pins[sn.csn]++
	s.snaps++
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
	s := sn.s
	s.mu.Lock()
	sn.releaseLocked()
	s.mu.Unlock()
}

// releaseLocked unpins the snapshot; caller holds s.mu.
func (sn *Snap) releaseLocked() {
	if sn.released {
		return
	}
	sn.released = true
	s := sn.s
	if n := s.pins[sn.csn]; n <= 1 {
		delete(s.pins, sn.csn)
	} else {
		s.pins[sn.csn] = n - 1
	}
	s.snaps--
}

// --- transactions -----------------------------------------------------------

// writeClass classifies a transaction's write to one OID: updates (and
// root changes) advance the binding epoch, in-place dirty mutations do
// not, and fresh allocations can never conflict.
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
	logBuf   []logObj // publish's records, copied by stage
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
// under one new CSN and staged with the group committer; the call
// returns once a leader has fsynced it (batched with whatever other
// transactions queued meanwhile). A read-only commit is free. On
// ErrConflict the transaction rolled back; on an I/O error the writes
// are published in memory and their records stay queued — the next
// successful flush (any later commit, or Store.Flush) makes them
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
	req, err := t.publish(false)
	if err != nil || req == nil {
		return err
	}
	return t.s.awaitCommit(req)
}

// Publish commits the writes so far as Commit does, without waiting for
// the disk, and keeps the transaction open over a snapshot that includes
// them. The next Commit, Store.Flush or Store.Close makes them durable;
// the queue flushes in commit order, so a crash loses only whole
// publications no durable commit followed. A relation it appended to
// stays localised, so publishing row by row copies no rows. On
// ErrConflict the transaction rolled back and is finished.
func (t *Txn) Publish() error {
	if t.done {
		return errors.New("store: transaction already finished")
	}
	if !t.Mutated() {
		return nil
	}
	if _, err := t.publish(true); err != nil {
		t.done = true
		t.snap.Release()
		return err
	}
	return nil
}

// publish validates the write set and publishes it under one new CSN,
// staging its records with the group committer (the returned request;
// nil for an in-memory store, which keeps no log). With next set the
// transaction goes on over a snapshot at the new CSN.
func (t *Txn) publish(next bool) (*commitReq, error) {
	s := t.s
	var small [4]OID // a publication writes few objects: no allocation
	oids := small[:0]
	for oid := range t.class {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	s.mu.Lock()
	// --- validate: first committer wins ---
	for _, oid := range oids {
		cl := t.class[oid]
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
		return nil, fmt.Errorf("%w: oid 0x%x modified since snapshot (csn %d)", ErrConflict, uint64(oid), t.snap.csn)
	}
	for name := range t.rootW {
		if s.roots[name] != t.snap.roots[name] {
			s.txConflicts++
			s.txAborted++
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: root %q rebound since snapshot", ErrConflict, name)
		}
	}

	// --- publish under one CSN ---
	// The snapshot has served its last read: unpin it first, so the
	// versions it alone kept alive are reclaimed by this very publish.
	t.snap.releaseLocked()
	s.csn++
	// An in-memory store keeps no log: its commits stage no records.
	logged := s.file != nil
	objs := t.logBuf[:0]
	for _, oid := range oids {
		obj := t.local[oid]
		cl := t.class[oid]
		if live, ok := t.base[oid]; ok && cl == classDirty {
			// Merge private appended rows into the live relation: logging
			// only this transaction's view would lose a concurrent
			// committer's rows under last-writer-wins replay. Unless
			// another writer appended meanwhile, the view's rows extend
			// the live ones, and the relation takes them over.
			s.seedBaseLocked(oid)
			merged := t.baseRows[oid]
			rows := obj.(*Relation).RowsSnapshot()
			if live.NumRows() == merged {
				live.adoptRows(rows)
			} else {
				for _, row := range rows[merged:] {
					live.AppendRow(row)
				}
				delete(t.base, oid) // the view no longer equals the relation
			}
			t.baseRows[oid] = len(rows)
			obj = live
		}
		s.publishLocked(oid, obj)
		if cl == classUpdate {
			s.epoch++
		}
		if logged {
			objs = append(objs, logObj{oid, obj, rowHorizon(obj)})
		}
	}
	t.logBuf = objs
	var changes []RootChange
	if len(t.rootW) > 0 {
		roots := make(map[string]OID, len(s.roots)+len(t.rootW))
		for k, v := range s.roots {
			roots[k] = v
		}
		changes = make([]RootChange, 0, len(t.rootW))
		for _, name := range rootNames(t.rootW) {
			roots[name] = t.rootW[name]
			s.epoch++
			changes = append(changes, RootChange{Root: name, OID: t.rootW[name]})
		}
		s.roots = roots
		if s.rootHook != nil {
			// One call for the whole commit, under s.mu: observers see the
			// batch at a single CSN, in CSN order, never torn.
			s.rootHook(s.csn, changes)
		}
	}
	s.txCommitted++
	var req *commitReq
	if logged {
		req = s.cm.stage(objs, changes, next)
	}
	if next {
		s.pinLocked(t.snap) // the released snapshot, repinned
		// Keep only the relation views the transaction appended to that
		// still equal their relation: every other localised object is
		// now shared or stale.
		if len(t.local) > len(oids) {
			for oid := range t.local {
				if _, written := t.class[oid]; !written {
					t.forget(oid)
				}
			}
		}
		for _, oid := range oids {
			if _, ok := t.base[oid]; !ok || t.class[oid] != classDirty {
				t.forget(oid)
			}
			delete(t.class, oid)
		}
		clear(t.rootW)
	}
	s.mu.Unlock()
	return req, nil
}

// forget drops the transaction's localised copy of oid.
func (t *Txn) forget(oid OID) {
	delete(t.local, oid)
	delete(t.base, oid)
	delete(t.baseRows, oid)
}

// --- group committer --------------------------------------------------------

// commitReq is one staged publication awaiting durability: the states it
// published and the roots it bound, staged under s.mu so the queue is in
// CSN order. A leader later encodes every queued request under one
// commit trailer and fsyncs once for all of them.
type commitReq struct {
	objs  []logObj
	roots []RootChange
	count int // records staged (0: a Flush probe)
	txns  int // publications staged into it
	done  bool
	err   error
	// absorbed marks a request satisfied by Compact's full rewrite while
	// a leader held it: the leader must not append its records again.
	absorbed bool
}

// logObj is one object state a publication logs, encoded at flush time:
// published objects never change, except that a relation grows, so it is
// logged as a view pinned at its published row count.
type logObj struct {
	oid  OID
	obj  Object
	rows int // relation row horizon (-1 for other kinds)
}

// record encodes w as a log record.
func (w logObj) record() []byte {
	if r, ok := w.obj.(*Relation); ok {
		return objectRecord(w.oid, relView(r, w.rows))
	}
	return objectRecord(w.oid, w.obj)
}

// committer is the group-commit engine. Committers stage their records
// and wait; the first waiter to find the committer idle becomes
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

// stage enqueues one publication's records as a request and returns it.
// Called with s.mu held, so queue order is commit (CSN) order. While no
// flush runs, an unawaited publication (Txn.Publish) joins the last
// request instead, replacing the newest state of an object it logs last.
func (c *committer) stage(objs []logObj, roots []RootChange, unawaited bool) *commitReq {
	c.mu.Lock()
	c.init()
	var req *commitReq
	if n := len(c.queue); unawaited && n > 0 && !c.flushing && c.queue[n-1].count > 0 {
		req = c.queue[n-1]
	} else {
		req = &commitReq{}
		c.queue = append(c.queue, req)
	}
	for _, w := range objs {
		if n := len(req.objs); n > 0 && req.objs[n-1].oid == w.oid {
			req.objs[n-1] = w
		} else {
			req.objs = append(req.objs, w)
		}
	}
	req.roots = append(req.roots, roots...)
	req.count = len(req.objs) + len(req.roots)
	req.txns++
	c.cond.Broadcast()
	c.mu.Unlock()
	return req
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
						txns += uint64(r.txns)
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
	var reqs []*commitReq
	c.mu.Lock()
	for _, r := range batch {
		if !r.absorbed {
			reqs = append(reqs, r)
		}
	}
	c.mu.Unlock()
	// No request of a batch in flight changes (stage merges into none),
	// so the records are encoded outside the lock.
	var raw bytes.Buffer
	count := 0
	for _, r := range reqs {
		for _, w := range r.objs {
			logFormat.AppendRecord(&raw, s.version, w.record())
		}
		for _, rc := range r.roots {
			logFormat.AppendRecord(&raw, s.version, rootRecord(rc.Root, rc.OID))
		}
		count += r.count
	}
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
