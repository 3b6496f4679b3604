package store

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"tycoon/internal/iofault"
)

// chainLen reports the version-chain length for oid (test helper).
func (s *Store) chainLen(oid OID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for v := s.vers[oid]; v != nil; v = v.prev {
		n++
	}
	return n
}

// setCommitGate installs a token channel that every group-commit leader
// must receive from before flushing; tests use it to force deterministic
// multi-transaction batches.
func (s *Store) setCommitGate(gate chan struct{}) {
	s.cm.mu.Lock()
	s.cm.gate = gate
	s.cm.mu.Unlock()
}

func TestSnapshotReadsArePinned(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	var oid OID
	write(t, s, func(tx *Txn) {
		oid = tx.Alloc(&Blob{Bytes: []byte("v1")})
		tx.SetRoot("r", oid)
	})

	snap := s.Snapshot()
	defer snap.Release()

	write(t, s, func(tx *Txn) {
		if err := tx.Update(oid, &Blob{Bytes: []byte("v2")}); err != nil {
			t.Fatal(err)
		}
		tx.SetRoot("r", tx.Alloc(&Blob{Bytes: []byte("new")}))
	})

	// Repeatable read: the snapshot still sees v1 and the old root.
	for i := 0; i < 2; i++ {
		obj, err := snap.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(obj.(*Blob).Bytes); got != "v1" {
			t.Fatalf("snapshot read %d = %q, want v1", i, got)
		}
	}
	if r, _ := snap.Root("r"); r != oid {
		t.Errorf("snapshot root = %v, want %v", r, oid)
	}
	// The live store sees the new state.
	if got := string(s.MustGet(oid).(*Blob).Bytes); got != "v2" {
		t.Errorf("live read = %q, want v2", got)
	}
}

func TestSnapshotRelationHorizon(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	rel := &Relation{Name: "t", Schema: []Column{{Name: "n", Type: ColInt}}}
	rel.AppendRow([]Val{IntVal(1)})
	oid := alloc(t, s, rel)

	snap := s.Snapshot()
	defer snap.Release()

	// Commit an append after the snapshot opened.
	appendRow(t, s, oid, []Val{IntVal(2)})

	obj, err := snap.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	view := obj.(*Relation)
	if view.NumRows() != 1 {
		t.Fatalf("snapshot sees %d rows, want 1", view.NumRows())
	}
	// Appending through the view must not scribble on the shared array.
	view.AppendRow([]Val{IntVal(99)})
	if got := s.MustGet(oid).(*Relation).NumRows(); got != 2 {
		t.Errorf("live relation has %d rows after view append, want 2", got)
	}
}

func TestTxnFirstCommitterWins(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	oid := alloc(t, s, &Blob{Bytes: []byte("base")})
	st0 := s.TxStats()

	t1 := s.Begin()
	t2 := s.Begin()
	if err := t1.Update(oid, &Blob{Bytes: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(oid, &Blob{Bytes: []byte("two")}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	if got := string(s.MustGet(oid).(*Blob).Bytes); got != "one" {
		t.Errorf("store state = %q, want one (loser must not apply)", got)
	}

	// Retry against a fresh snapshot succeeds.
	t3 := s.Begin()
	if err := t3.Update(oid, &Blob{Bytes: []byte("two")}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	st := s.TxStats()
	if st.Committed-st0.Committed != 2 || st.Conflicts != 1 || st.Aborted != 1 {
		t.Errorf("stats = %+v after %+v, want 2 more committed / 1 conflict / 1 aborted", st, st0)
	}
}

func TestTxnRootConflict(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	a := alloc(t, s, &Blob{Bytes: []byte("a")})
	b := alloc(t, s, &Blob{Bytes: []byte("b")})

	t1 := s.Begin()
	t2 := s.Begin()
	t1.SetRoot("mod", a)
	t2.SetRoot("mod", b)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("root rebind conflict err = %v, want ErrConflict", err)
	}
	if r, _ := s.Root("mod"); r != a {
		t.Errorf("root = %v, want first committer's %v", r, a)
	}
}

func TestTxnIsolationUntilCommit(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	oid := alloc(t, s, &Array{Elems: []Val{IntVal(0)}})

	tx := s.Begin()
	arr := tx.MustGet(oid).(*Array)
	arr.Elems[0] = IntVal(42)
	tx.MarkDirty(oid)

	// Uncommitted writes are invisible: no dirty reads.
	if got := s.MustGet(oid).(*Array).Elems[0].Int; got != 0 {
		t.Fatalf("dirty read: live store sees %d before commit", got)
	}
	other := s.Begin()
	if got := other.MustGet(oid).(*Array).Elems[0].Int; got != 0 {
		t.Fatalf("dirty read: other txn sees %d before commit", got)
	}
	other.Abort()

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.MustGet(oid).(*Array).Elems[0].Int; got != 42 {
		t.Errorf("after commit live store sees %d, want 42", got)
	}
}

func TestTxnAbortRollsBack(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	oid := alloc(t, s, &Blob{Bytes: []byte("keep")})
	st0 := s.TxStats()

	tx := s.Begin()
	if err := tx.Update(oid, &Blob{Bytes: []byte("drop")}); err != nil {
		t.Fatal(err)
	}
	fresh := tx.Alloc(&Blob{Bytes: []byte("orphan")})
	tx.SetRoot("r", fresh)
	tx.Abort()

	if got := string(s.MustGet(oid).(*Blob).Bytes); got != "keep" {
		t.Errorf("aborted update applied: %q", got)
	}
	if _, err := s.Get(fresh); !errors.Is(err, ErrNotFound) {
		t.Errorf("aborted alloc visible: err = %v", err)
	}
	if _, ok := s.Root("r"); ok {
		t.Error("aborted root binding visible")
	}
	if st := s.TxStats(); st.Aborted != 1 || st.Committed != st0.Committed {
		t.Errorf("stats = %+v after %+v, want 1 aborted", st, st0)
	}
}

func TestTxnRelationAppendsCommute(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	rel := &Relation{Name: "log", Schema: []Column{{Name: "n", Type: ColInt}}}
	oid := alloc(t, s, rel)

	t1 := s.Begin()
	t2 := s.Begin()
	r1 := t1.MustGet(oid).(*Relation)
	r1.AppendRow([]Val{IntVal(1)})
	t1.MarkDirty(oid)
	r2 := t2.MustGet(oid).(*Relation)
	r2.AppendRow([]Val{IntVal(2)})
	r2.AppendRow([]Val{IntVal(3)})
	t2.MarkDirty(oid)

	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2 (commuting append): %v", err)
	}
	got := s.MustGet(oid).(*Relation)
	if got.NumRows() != 3 {
		t.Fatalf("merged relation has %d rows, want 3", got.NumRows())
	}
	sum := int64(0)
	for _, row := range got.RowsSnapshot() {
		sum += row[0].Int
	}
	if sum != 6 {
		t.Errorf("merged rows sum = %d, want 6", sum)
	}
}

func TestTxnAppendVsReplaceConflicts(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	rel := &Relation{Name: "t", Schema: []Column{{Name: "n", Type: ColInt}}}
	oid := alloc(t, s, rel)

	appender := s.Begin()
	ra := appender.MustGet(oid).(*Relation)
	ra.AppendRow([]Val{IntVal(1)})
	appender.MarkDirty(oid)

	replacer := s.Begin()
	if err := replacer.Update(oid, &Relation{Name: "t", Schema: rel.Schema}); err != nil {
		t.Fatal(err)
	}
	if err := replacer.Commit(); err != nil {
		t.Fatal(err)
	}
	// The relation's identity changed under the appender: no merge.
	if err := appender.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("append over replaced identity err = %v, want ErrConflict", err)
	}
}

func TestVersionChainGC(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	oid := alloc(t, s, &Blob{Bytes: []byte("v0")})
	update := func(obj Object) {
		write(t, s, func(tx *Txn) {
			if err := tx.Update(oid, obj); err != nil {
				t.Fatal(err)
			}
		})
	}

	snap := s.Snapshot()
	for i := 1; i <= 5; i++ {
		update(&Blob{Bytes: []byte{byte(i)}})
	}
	// The pinned snapshot keeps its serving version plus everything newer.
	if n := s.chainLen(oid); n < 2 {
		t.Fatalf("chain length %d while snapshot pinned, want >= 2", n)
	}
	if got := string(mustSnapGet(t, snap, oid).(*Blob).Bytes); got != "v0" {
		t.Fatalf("pinned snapshot reads %q, want v0", got)
	}

	snap.Release()
	// Reclamation happens on the next publication.
	update(&Blob{Bytes: []byte("v6")})
	if n := s.chainLen(oid); n != 1 {
		t.Errorf("chain length %d after release+publish, want 1", n)
	}
	if st := s.TxStats(); st.OpenSnapshots != 0 {
		t.Errorf("open snapshots = %d, want 0", st.OpenSnapshots)
	}
}

// TestSnapshotOutlivesFirstCommitAfterReopen is the regression test for
// the version-chain seeding bug the end-to-end benchmark found: after a
// boot, an object replayed from the log has no version chain, and the
// first commit to it used to start one WITHOUT the replayed state — so a
// transaction whose snapshot predated that commit and read the object
// after it failed with "object not found … (born after snapshot)". The
// chain now starts with the replayed object as a CSN-0 version: the old
// snapshot keeps resolving it, to the old state, for every way a commit
// can publish (row-append merge, replacement, in one commit or a later
// one), and the base version is reclaimed like any other once no
// snapshot can reach it.
func TestSnapshotOutlivesFirstCommitAfterReopen(t *testing.T) {
	path := t.TempDir() + "/db.tyst"
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rel := &Relation{Name: "events", Schema: []Column{{Name: "n", Type: ColInt}}}
	rel.AppendRow([]Val{IntVal(1)})
	rel.AppendRow([]Val{IntVal(2)})
	var relOID, blobOID, rawOID OID
	write(t, s, func(tx *Txn) {
		relOID = tx.Alloc(rel)
		blobOID = tx.Alloc(&Blob{Bytes: []byte("old")})
		rawOID = tx.Alloc(&Blob{Bytes: []byte("old")})
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, oid := range []OID{relOID, blobOID, rawOID} {
		if n := s.chainLen(oid); n != 0 {
			t.Fatalf("replayed oid 0x%x has a %d-version chain, want base state only", uint64(oid), n)
		}
	}

	reader := s.Begin() // snapshot predates every commit of this boot
	defer reader.Abort()

	writer := s.Begin()
	wrel, err := writer.Get(relOID)
	if err != nil {
		t.Fatal(err)
	}
	wrel.(*Relation).AppendRow([]Val{IntVal(3)})
	writer.MarkDirty(relOID)
	if err := writer.Update(blobOID, &Blob{Bytes: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	update := func(oid OID, obj Object) {
		write(t, s, func(tx *Txn) {
			if err := tx.Update(oid, obj); err != nil {
				t.Fatal(err)
			}
		})
	}
	update(rawOID, &Blob{Bytes: []byte("new")})

	obj, err := reader.Get(relOID)
	if err != nil {
		t.Fatalf("old snapshot lost the replayed relation: %v", err)
	}
	if rows := obj.(*Relation).RowsSnapshot(); len(rows) != 2 || rows[1][0].Int != 2 {
		t.Errorf("old snapshot sees rows %v, want the two replayed rows", rows)
	}
	for _, oid := range []OID{blobOID, rawOID} {
		obj, err := reader.Get(oid)
		if err != nil {
			t.Fatalf("old snapshot lost replayed oid 0x%x: %v", uint64(oid), err)
		}
		if got := string(obj.(*Blob).Bytes); got != "old" {
			t.Errorf("old snapshot reads oid 0x%x as %q, want old", uint64(oid), got)
		}
	}
	fresh := s.Snapshot()
	if n := mustSnapGet(t, fresh, relOID).(*Relation).NumRows(); n != 3 {
		t.Errorf("fresh snapshot sees %d rows, want 3", n)
	}
	if got := string(mustSnapGet(t, fresh, blobOID).(*Blob).Bytes); got != "new" {
		t.Errorf("fresh snapshot reads %q, want new", got)
	}
	fresh.Release()

	// An object allocated in this boot still has no base version: nothing
	// older than its allocation may resolve it through the chain.
	if n := s.chainLen(alloc(t, s, &Blob{})); n != 1 {
		t.Errorf("fresh allocation has a %d-version chain, want 1", n)
	}
	// Once the old snapshot is gone the base versions are reclaimed.
	reader.Abort()
	update(rawOID, &Blob{Bytes: []byte("newer")})
	if n := s.chainLen(rawOID); n != 1 {
		t.Errorf("chain length %d after release+publish, want 1", n)
	}
}

func mustSnapGet(t *testing.T, sn *Snap, oid OID) Object {
	t.Helper()
	obj, err := sn.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestCompactRacingSnapshots(t *testing.T) {
	fs := iofault.NewMemFS(iofault.NewInjector(1))
	s, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	rel := &Relation{Name: "t", Schema: []Column{{Name: "n", Type: ColInt}}}
	rel.AppendRow([]Val{IntVal(1)})
	var oid, roid OID
	write(t, s, func(tx *Txn) {
		oid = tx.Alloc(&Blob{Bytes: []byte("old")})
		roid = tx.Alloc(rel)
	})

	snap := s.Snapshot()
	defer snap.Release()
	write(t, s, func(tx *Txn) {
		if err := tx.Update(oid, &Blob{Bytes: []byte("new")}); err != nil {
			t.Fatal(err)
		}
		tx.MustGet(roid).(*Relation).AppendRow([]Val{IntVal(2)})
		tx.MarkDirty(roid)
	})

	// Compact with the snapshot open, plus concurrent snapshot readers.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				if _, err := sn.Get(oid); err != nil {
					t.Error(err)
				}
				sn.Release()
			}
		}()
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// The pre-compaction snapshot still reads the old versions.
	if got := string(mustSnapGet(t, snap, oid).(*Blob).Bytes); got != "old" {
		t.Errorf("snapshot after compact reads %q, want old", got)
	}
	if got := mustSnapGet(t, snap, roid).(*Relation).NumRows(); got != 1 {
		t.Errorf("snapshot relation has %d rows after compact, want 1", got)
	}
	// The compacted log replays the new state.
	s.Close()
	re, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := string(re.MustGet(oid).(*Blob).Bytes); got != "new" {
		t.Errorf("replayed state = %q, want new", got)
	}
}

func TestGroupCommitBatchesConcurrentTxns(t *testing.T) {
	const writers = 8
	fs := iofault.NewMemFS(iofault.NewInjector(1))
	s, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]OID, writers)
	write(t, s, func(tx *Txn) {
		for i := range oids {
			oids[i] = tx.Alloc(&Blob{Bytes: []byte{0}})
		}
	})
	st0 := s.TxStats()

	gate := make(chan struct{})
	s.setCommitGate(gate)

	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			tx := s.Begin()
			if err := tx.Update(oids[i], &Blob{Bytes: []byte{byte(i + 1)}}); err != nil {
				errs <- err
				return
			}
			errs <- tx.Commit()
		}(i)
	}
	// Wait until every writer has staged its records, then release the
	// first leader; closing the gate lets any follow-up leader flush the
	// rest of the backlog as one group.
	waitBacklog(t, s, writers)
	gate <- struct{}{}
	close(gate)
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	st := s.TxStats()
	txns, batches := st.BatchTxns-st0.BatchTxns, st.Batches-st0.Batches
	if txns != writers {
		t.Errorf("batch txns = %d, want %d", txns, writers)
	}
	if batches >= writers {
		t.Errorf("batches = %d, want < %d (commits must group)", batches, writers)
	}

	// One trailer frames each group; the log replays all writes.
	s.Close()
	re, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, oid := range oids {
		if got := re.MustGet(oid).(*Blob).Bytes[0]; got != byte(i+1) {
			t.Errorf("oid %v replayed %d, want %d", oid, got, i+1)
		}
	}
	rep, err := VerifyLogFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("log not clean after group commit: %+v", rep)
	}
}

func waitBacklog(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		s.cm.mu.Lock()
		ql := len(s.cm.queue)
		s.cm.mu.Unlock()
		if ql >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("backlog never reached %d", n)
}

// TestCrashAtEveryOpGroupCommit drives transactional commits through the
// group committer with a crash injected at every single operation index,
// then verifies the reopened store is fsck-clean and transactionally
// consistent: each transaction writes an atomic pair (two OIDs with the
// same value), and a crash may lose a suffix of transactions but never
// tear one apart.
func TestCrashAtEveryOpGroupCommit(t *testing.T) {
	const txns = 4
	run := func(fs *iofault.MemFS) (pairs [][2]OID, err error) {
		s, err := OpenFS(fs, crashPath)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		for i := 0; i < txns; i++ {
			tx := s.Begin()
			a := tx.Alloc(&Blob{Bytes: []byte{0}})
			b := tx.Alloc(&Blob{Bytes: []byte{0}})
			pairs = append(pairs, [2]OID{a, b})
			if err := tx.Commit(); err != nil {
				return pairs, err
			}
			tx = s.Begin()
			if err := tx.Update(a, &Blob{Bytes: []byte{byte(i + 1)}}); err != nil {
				return pairs, err
			}
			if err := tx.Update(b, &Blob{Bytes: []byte{byte(i + 1)}}); err != nil {
				return pairs, err
			}
			if err := tx.Commit(); err != nil {
				return pairs, err
			}
		}
		return pairs, nil
	}

	probe := iofault.NewMemFS(iofault.NewInjector(3))
	if _, err := run(probe); err != nil {
		t.Fatal(err)
	}
	totalOps := probe.Injector().Ops()
	if totalOps < 10 {
		t.Fatalf("probe counted only %d ops", totalOps)
	}

	for crashAt := 1; crashAt <= totalOps; crashAt++ {
		inj := iofault.NewInjector(int64(crashAt))
		fs := iofault.NewMemFS(inj)
		inj.CrashAt(crashAt)
		pairs, err := run(fs)
		if err != nil && !errors.Is(err, iofault.ErrCrashed) {
			t.Fatalf("crash at %d: unexpected error %v", crashAt, err)
		}
		fs.Crash()

		re, err := OpenFS(fs, crashPath)
		if err != nil {
			t.Fatalf("crash at %d: reopen: %v", crashAt, err)
		}
		// Atomic pairs: both sides present with equal values, or the pair's
		// transaction never became durable.
		for i, p := range pairs {
			av, aerr := re.Get(p[0])
			bv, berr := re.Get(p[1])
			if aerr != nil || berr != nil {
				continue // pair allocation lost with the tail: fine
			}
			ab, bb := av.(*Blob).Bytes[0], bv.(*Blob).Bytes[0]
			if ab != bb {
				t.Fatalf("crash at %d: pair %d torn: %d vs %d", crashAt, i, ab, bb)
			}
		}
		re.Close()

		rep, err := VerifyLogFS(fs, crashPath)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // the log's name never became durable: an empty store
			}
			t.Fatalf("crash at %d: verify: %v", crashAt, err)
		}
		if rep.Damage != nil {
			t.Fatalf("crash at %d: log damaged: %v", crashAt, rep.Damage)
		}
	}
}

func TestFlushHealsBacklog(t *testing.T) {
	inj := iofault.NewInjector(9)
	fs := iofault.NewMemFS(inj)
	s, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	oid := alloc(t, s, &Blob{Bytes: []byte("x")})

	tx := s.Begin()
	if err := tx.Update(oid, &Blob{Bytes: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	inj.FailSyncAt(inj.Ops() + 1)
	if err := tx.Commit(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("commit err = %v, want injected sync failure", err)
	}
	st := s.TxStats()
	if st.Backlog == 0 || st.FlushErr == "" {
		t.Fatalf("stats after failed flush = %+v, want backlog + flush_err", st)
	}

	// The operator probe retries the backlog and heals.
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	st = s.TxStats()
	if st.Backlog != 0 || st.FlushErr != "" {
		t.Fatalf("stats after heal = %+v, want empty backlog", st)
	}

	fs.Crash()
	re, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := string(re.MustGet(oid).(*Blob).Bytes); got != "y" {
		t.Errorf("replayed %q, want y (backlog must persist via Flush)", got)
	}
}
