package store

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"tycoon/internal/iofault"
)

// This file is the randomized crash-simulation harness: a deterministic
// workload of allocations, updates, root changes, commits and compactions
// runs over an iofault.MemFS, crashing at every single injectable
// operation in turn. After each crash the durable image must (a) open
// without error and (b) contain exactly the state of some framed-committed
// prefix of the workload: every successfully committed batch fully
// visible, no partially committed batch visible.

const crashPath = "d/crash.tyst"

// stateKey renders one store state as a comparable map: object encodings
// plus the root table.
func snapshotState(s *Store) map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := make(map[string]string, len(s.objects)+len(s.roots))
	for oid, obj := range s.objects {
		m[fmt.Sprintf("o:%x", uint64(oid))] = fmt.Sprintf("%d:%x", obj.Kind(), encodeObject(obj))
	}
	for name, oid := range s.roots {
		m["r:"+name] = fmt.Sprintf("%x", uint64(oid))
	}
	return m
}

// mutate applies a few random state changes to one transaction.
func mutate(tx *Txn, rng *rand.Rand, live *[]OID) {
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch {
		case len(*live) == 0 || rng.Intn(3) == 0:
			b := make([]byte, rng.Intn(24))
			rng.Read(b)
			*live = append(*live, tx.Alloc(&Blob{Bytes: b}))
		case rng.Intn(2) == 0:
			oid := (*live)[rng.Intn(len(*live))]
			tx.Update(oid, &Array{Elems: []Val{IntVal(rng.Int63()), StrVal("x")}})
		default:
			oid := (*live)[rng.Intn(len(*live))]
			tx.SetRoot(fmt.Sprintf("root-%d", rng.Intn(4)), oid)
		}
	}
}

// runCrashWorkload runs the workload until completion or the first
// injected fault. It returns the snapshots that are legal durable states:
// snaps[i] is the state as of the i-th successful commit (snaps[0] is the
// empty pre-commit state), and inFlight is the prospective state of a
// commit that died mid-write (nil if the fault hit elsewhere) — torn
// persistence may legally surface it if the whole batch reached the disk.
func runCrashWorkload(fsys iofault.FS, seed int64) (snaps []map[string]string, inFlight map[string]string, err error) {
	rng := rand.New(rand.NewSource(seed))
	snaps = []map[string]string{{}}
	s, err := OpenFS(fsys, crashPath)
	if err != nil {
		return snaps, nil, err
	}
	defer func() {
		if err != nil {
			s.mu.Lock()
			if s.file != nil {
				s.file.Close()
				s.file = nil
			}
			s.mu.Unlock()
		}
	}()
	var live []OID
	for i := 0; i < 8; i++ {
		tx := s.Begin()
		mutate(tx, rng, &live)
		// A commit publishes in memory before its flush, so the state
		// after it returns is the batch's prospective durable state,
		// whether or not the flush failed.
		err := tx.Commit()
		prospective := snapshotState(s)
		if err != nil {
			return snaps, prospective, err
		}
		snaps = append(snaps, prospective)
		if rng.Intn(4) == 0 {
			if err := s.Compact(); err != nil {
				return snaps, nil, err
			}
		}
	}
	if err := s.Close(); err != nil {
		return snaps, nil, err
	}
	return snaps, nil, nil
}

func TestCrashSimulationEveryPoint(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		// Fault-free run to count the injectable operations.
		probe := iofault.NewMemFS(iofault.NewInjector(seed))
		if _, _, err := runCrashWorkload(probe, seed); err != nil {
			t.Fatalf("seed %d: fault-free workload failed: %v", seed, err)
		}
		total := probe.Injector().Ops()
		if total < 20 {
			t.Fatalf("seed %d: workload too small (%d ops) to be interesting", seed, total)
		}
		for crashAt := 0; crashAt < total; crashAt++ {
			inj := iofault.NewInjector(seed*1000 + int64(crashAt))
			fs := iofault.NewMemFS(inj)
			inj.CrashAt(crashAt)
			snaps, inFlight, err := runCrashWorkload(fs, seed)
			// err may be nil when the crash point lands on a non-semantic
			// cleanup operation (compaction's temp-file removal); the
			// durable-state check below still applies.
			if err != nil && !errors.Is(err, iofault.ErrCrashed) {
				t.Fatalf("seed %d, crash at op %d/%d: workload died of %v, not the injected crash", seed, crashAt, total, err)
			}
			fs.Crash()

			st, err := OpenFS(fs, crashPath)
			if err != nil {
				t.Fatalf("seed %d, crash at op %d: store did not reopen: %v", seed, crashAt, err)
			}
			recovered := snapshotState(st)
			st.mu.Lock()
			st.file.Close()
			st.file = nil
			st.mu.Unlock()

			committed := snaps[len(snaps)-1]
			switch {
			case maps.Equal(recovered, committed):
				// All successfully committed batches, nothing else.
			case inFlight != nil && maps.Equal(recovered, inFlight):
				// The commit in flight at the crash happened to reach the
				// disk completely before power was lost: atomicity holds,
				// the caller's error was pessimistic.
			default:
				t.Errorf("seed %d, crash at op %d: recovered state matches neither the %d committed batches nor the in-flight commit\nrecovered: %v\ncommitted: %v",
					seed, crashAt, len(snaps)-1, recovered, committed)
			}
		}
	}
}

func TestCrashDuringCompactKeepsState(t *testing.T) {
	// Focused variant: populate, commit, then crash at every operation
	// inside Compact; the logical state must never change.
	build := func(fsys iofault.FS) (*Store, map[string]string, error) {
		s, err := OpenFS(fsys, crashPath)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < 5; i++ {
			tx := s.Begin()
			tx.SetRoot(fmt.Sprintf("r%d", i), tx.Alloc(&Blob{Bytes: []byte{byte(i)}}))
			if err := tx.Commit(); err != nil {
				return nil, nil, err
			}
		}
		return s, snapshotState(s), nil
	}

	probe := iofault.NewMemFS(iofault.NewInjector(7))
	s, want, err := build(probe)
	if err != nil {
		t.Fatal(err)
	}
	before := probe.Injector().Ops()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compactOps := probe.Injector().Ops() - before

	for off := 0; off < compactOps; off++ {
		inj := iofault.NewInjector(int64(100 + off))
		fs := iofault.NewMemFS(inj)
		s, _, err := build(fs)
		if err != nil {
			t.Fatal(err)
		}
		inj.CrashAt(inj.Ops() + off)
		// Compact may report nil if the crash only hit its deferred
		// temp-file cleanup; any other error than the injected crash is a
		// bug.
		if err := s.Compact(); err != nil && !errors.Is(err, iofault.ErrCrashed) {
			t.Fatalf("compact op %d: err = %v, want injected crash", off, err)
		}
		fs.Crash()
		st, err := OpenFS(fs, crashPath)
		if err != nil {
			t.Fatalf("compact crash at op %d: reopen failed: %v", off, err)
		}
		if got := snapshotState(st); !maps.Equal(got, want) {
			t.Errorf("compact crash at op %d: state changed\ngot:  %v\nwant: %v", off, got, want)
		}
	}
}

func TestFailedSyncIsRetryable(t *testing.T) {
	inj := iofault.NewInjector(5)
	fs := iofault.NewMemFS(inj)
	s, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	oid := tx.Alloc(&Blob{Bytes: []byte("v")})
	// Fail the commit's sync once: the commit must report the failure and
	// keep the batch queued, so a retried flush persists it.
	inj.FailSyncAt(inj.Ops() + 1) // next op is the write, then the sync
	if err := tx.Commit(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("commit with failing sync = %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("retried flush = %v", err)
	}
	fs.Crash()
	st, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(oid); err != nil {
		t.Fatalf("object lost after retried commit: %v (%v)", err, got)
	}
}
