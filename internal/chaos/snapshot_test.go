package chaos_test

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"tycoon/internal/fsck"
	"tycoon/internal/iofault"
	"tycoon/internal/store"
)

// chaosSeed returns the seed for a chaos-style test: 1 (the fixed CI
// lane) unless CHAOS_SEED overrides it, which the CI seed matrix sets.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// TestSnapshotIsolation hammers the MVCC store's isolation invariants
// with concurrent writers, snapshot readers and a crash injected mid
// group-commit. The seed defaults to 1 and is overridden by CHAOS_SEED,
// so the test rides the same CI seed matrix as the end-to-end chaos run.
//
// Invariants checked:
//   - no dirty or torn reads: every snapshot (and every transaction's
//     own reads) sees atomic pairs — two objects always written together
//     in one transaction — with equal values;
//   - repeatable reads: re-reading through the same snapshot yields the
//     same values even while writers commit;
//   - first-committer-wins: a counter incremented read-modify-write by
//     racing transactions ends exactly at the number of successful
//     commits (no lost updates, conflicting commits never both apply);
//   - crash consistency: after a crash in the middle of group commits,
//     the log replays fsck-clean and the replayed state still holds the
//     pair invariant.
func TestSnapshotIsolation(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	inj := iofault.NewInjector(seed)
	fs := iofault.NewMemFS(inj)
	const path = "si.tyst"
	st, err := store.OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}

	const (
		npairs  = 4
		writers = 8
		iters   = 40
	)
	var pairs [npairs][2]store.OID
	setup := st.Begin()
	for i := range pairs {
		pairs[i][0] = setup.Alloc(&store.Blob{Bytes: []byte{0}})
		pairs[i][1] = setup.Alloc(&store.Blob{Bytes: []byte{0}})
	}
	counter := setup.Alloc(&store.Array{Elems: []store.Val{store.IntVal(0)}})
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	var increments atomic.Int64 // acked counter bumps (commit returned nil)
	var maybeInc atomic.Int64   // crash-ambiguous bumps: commit errored after the
	// crash fired, but its batch may already be durably framed (lost ack)
	var pairGen atomic.Int64 // next pair value, so writes are distinguishable

	readPair := func(get func(store.OID) (store.Object, error), p [2]store.OID) (byte, byte, error) {
		a, err := get(p[0])
		if err != nil {
			return 0, 0, err
		}
		b, err := get(p[1])
		if err != nil {
			return 0, 0, err
		}
		return a.(*store.Blob).Bytes[0], b.(*store.Blob).Bytes[0], nil
	}

	// writer runs one random transaction; it reports any invariant
	// violation on t and tolerates conflict aborts and injected faults.
	writer := func(rng *rand.Rand) {
		tx := st.Begin()
		defer tx.Abort()
		if rng.Intn(2) == 0 {
			// Atomic pair update: both sides must read equal, both get the
			// next generation value in one commit.
			p := pairs[rng.Intn(npairs)]
			a, b, err := readPair(tx.Get, p)
			if err != nil {
				t.Errorf("pair read: %v", err)
				return
			}
			if a != b {
				t.Errorf("torn pair inside transaction: %d vs %d", a, b)
				return
			}
			v := byte(pairGen.Add(1))
			if err := tx.Update(p[0], &store.Blob{Bytes: []byte{v}}); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Update(p[1], &store.Blob{Bytes: []byte{v}}); err != nil {
				t.Error(err)
				return
			}
			err = tx.Commit()
			if err != nil && !errors.Is(err, store.ErrConflict) && !errors.Is(err, iofault.ErrCrashed) && !errors.Is(err, iofault.ErrInjected) {
				t.Errorf("pair commit: %v", err)
			}
			return
		}
		// Counter increment: read-modify-write. Exactly the successful
		// commits may count — a lost update would show up as a final value
		// below the success count, both-apply of conflicting commits as
		// above it.
		obj, err := tx.Get(counter)
		if err != nil {
			t.Error(err)
			return
		}
		arr := obj.(*store.Array)
		arr.Elems[0] = store.IntVal(arr.Elems[0].Int + 1)
		tx.MarkDirty(counter)
		err = tx.Commit()
		if err == nil {
			increments.Add(1)
			return
		}
		switch {
		case errors.Is(err, store.ErrConflict):
			// Definitely not applied.
		case errors.Is(err, iofault.ErrCrashed), errors.Is(err, iofault.ErrInjected):
			// Ambiguous: the batch may have reached the durable log before
			// the crash killed the ack — the lost-ack window every durable
			// system has. Track it for the replay bound.
			maybeInc.Add(1)
		default:
			t.Errorf("counter commit: %v", err)
		}
	}

	// Phase 1: fault-free concurrency. Writers race; readers continuously
	// verify pair atomicity and repeatable reads through pinned snapshots.
	stop := make(chan struct{})
	var readersWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		readersWG.Add(1)
		go func(seed int64) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := st.Snapshot()
				p := pairs[rng.Intn(npairs)]
				a1, b1, err := readPair(sn.Get, p)
				if err != nil {
					t.Error(err)
					sn.Release()
					return
				}
				if a1 != b1 {
					t.Errorf("snapshot read tore a pair: %d vs %d", a1, b1)
				}
				a2, b2, err := readPair(sn.Get, p)
				if err != nil {
					t.Error(err)
					sn.Release()
					return
				}
				if a1 != a2 || b1 != b2 {
					t.Errorf("non-repeatable read: (%d,%d) then (%d,%d)", a1, b1, a2, b2)
				}
				sn.Release()
			}
		}(seed + int64(100+r))
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				writer(rng)
			}
		}(seed + int64(w))
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if got := st.MustGet(counter).(*store.Array).Elems[0].Int; got != increments.Load() {
		t.Fatalf("counter = %d, want exactly %d successful increments (first committer wins)", got, increments.Load())
	}
	for i, p := range pairs {
		a, b, err := readPair(st.Get, p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("pair %d inconsistent after phase 1: %d vs %d", i, a, b)
		}
	}
	stats := st.TxStats()
	if stats.Committed == 0 || stats.Batches == 0 {
		t.Fatalf("harness did no transactional work: %+v", stats)
	}
	t.Logf("seed %d phase 1: %+v", seed, stats)

	// Phase 2: crash in the middle of the group-commit traffic. Writers
	// race again; the injector kills the filesystem at a random operation
	// a short way in, so some batch is interrupted between its records,
	// trailer and fsync.
	inj.CrashAt(inj.Ops() + 2 + rng.Intn(60))
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				writer(rng)
			}
		}(seed + int64(1000+w))
	}
	writersWG.Wait()
	st.Close()
	fs.Crash()

	// The reopened store must replay clean: fsck finds no damage (a torn
	// tail or rolled-back uncommitted batch is a normal crash artifact,
	// corruption is not) and the pair invariant holds on the replayed
	// prefix.
	rep, err := fsck.CheckPathFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if f.Severity == fsck.Error {
			t.Errorf("fsck after crash: oid %d: %s", f.OID, f.Message)
		} else {
			t.Logf("fsck crash artifact (tolerated): %s", f.Message)
		}
	}
	re, err := store.OpenFS(fs, path)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	for i, p := range pairs {
		a, b, err := readPair(re.Get, p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("pair %d torn across the crash: %d vs %d", i, a, b)
		}
	}
	// Every acked increment was fsynced before its ack, so the replayed
	// counter is at least the acked count; it may exceed it only by
	// commits the crash made ambiguous (durable batch, lost ack).
	got := re.MustGet(counter).(*store.Array).Elems[0].Int
	lo, hi := increments.Load(), increments.Load()+maybeInc.Load()
	if got < lo || got > hi {
		t.Errorf("replayed counter %d outside [%d, %d] (acked + crash-ambiguous)", got, lo, hi)
	}
}
