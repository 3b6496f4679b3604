package handoff

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"tycoon/internal/frame"
	"tycoon/internal/iofault"
)

const testPath = "/handoff/shard0-r1.hlog"

func mustAppend(t *testing.T, l *Log, verb byte, key string, body []byte) uint64 {
	t.Helper()
	seq, err := l.Append(verb, key, body)
	if err != nil {
		t.Fatalf("append %q: %v", key, err)
	}
	return seq
}

func keys(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	return out
}

func TestAppendReopen(t *testing.T) {
	fs := iofault.NewMemFS(nil)
	l, err := Open(fs, testPath)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		seq := mustAppend(t, l, 7, fmt.Sprintf("k%d", i), []byte{byte(i), 0xff, byte(i)})
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("len %d, want 5", l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := Open(fs, testPath)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recs := l2.Snapshot()
	if len(recs) != 5 {
		t.Fatalf("reopened %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Verb != 7 || rec.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("record %d: %+v", i, rec)
		}
		if len(rec.Body) != 3 || rec.Body[0] != byte(i) {
			t.Fatalf("record %d body: %v", i, rec.Body)
		}
	}
	// Sequence numbering continues past the replayed records.
	if seq := mustAppend(t, l2, 7, "k5", nil); seq != 6 {
		t.Fatalf("post-reopen seq %d, want 6", seq)
	}
}

func TestTruncatePrefix(t *testing.T) {
	fs := iofault.NewMemFS(nil)
	l, err := Open(fs, testPath)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, l, 1, fmt.Sprintf("k%d", i), []byte("body"))
	}
	if err := l.TruncatePrefix(2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	got := keys(l.Snapshot())
	want := []string{"k2", "k3", "k4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after truncate: %v, want %v", got, want)
	}
	// Appends keep working on the rewritten file, and reopen sees the
	// same suffix with original sequence numbers.
	mustAppend(t, l, 1, "k5", nil)
	l.Close()
	l2, err := Open(fs, testPath)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recs := l2.Snapshot()
	if fmt.Sprint(keys(recs)) != fmt.Sprint([]string{"k2", "k3", "k4", "k5"}) {
		t.Fatalf("reopened keys: %v", keys(recs))
	}
	if recs[0].Seq != 3 || recs[3].Seq != 6 {
		t.Fatalf("reopened seqs: %d..%d, want 3..6", recs[0].Seq, recs[3].Seq)
	}
	// Truncating everything empties the log durably.
	if err := l2.TruncatePrefix(l2.Len()); err != nil {
		t.Fatalf("truncate all: %v", err)
	}
	l2.Close()
	rep, err := Verify(fs, testPath)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Clean() || rep.Pending != 0 {
		t.Fatalf("drained log not clean: %+v", rep)
	}
}

func TestTornTailRolledBack(t *testing.T) {
	fs := iofault.NewMemFS(nil)
	l, err := Open(fs, testPath)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustAppend(t, l, 1, "keep", []byte("payload"))
	l.Close()

	// Simulate a torn append: a record header that runs past EOF.
	f, err := fs.OpenFile(testPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("raw open: %v", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatalf("seek: %v", err)
	}
	f.Write([]byte{recWrite, 9, 9, 9})
	f.Sync()
	f.Close()

	rep, err := Verify(fs, testPath)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Clean() || rep.TornTailOffset < 0 || rep.Pending != 1 {
		t.Fatalf("want torn tail with 1 pending, got %+v", rep)
	}

	l2, err := Open(fs, testPath)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if got := keys(l2.Snapshot()); fmt.Sprint(got) != fmt.Sprint([]string{"keep"}) {
		t.Fatalf("recovered %v, want [keep]", got)
	}
	// Open trimmed the tear: the file verifies clean again.
	mustAppend(t, l2, 1, "more", nil)
	l2.Close()
	rep, err = Verify(fs, testPath)
	if err != nil {
		t.Fatalf("verify after trim: %v", err)
	}
	if !rep.Clean() || rep.Pending != 2 {
		t.Fatalf("want clean log with 2 pending, got %+v", rep)
	}
}

func TestDamageFailsLoud(t *testing.T) {
	fs := iofault.NewMemFS(nil)
	l, err := Open(fs, testPath)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustAppend(t, l, 1, "victim", []byte("payload"))
	mustAppend(t, l, 1, "after", []byte("payload"))
	l.Close()

	// Flip one payload bit in the first record's body.
	f, _ := fs.OpenFile(testPath, os.O_RDWR, 0o644)
	off := int64(frame.HeaderLen + recHeaderLen + len("victim") + 4)
	f.Seek(off, 0)
	f.Write([]byte{'P'})
	f.Sync()
	f.Close()

	if _, err := Open(fs, testPath); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over damage: %v, want ErrCorrupt", err)
	}
	rep, err := Verify(fs, testPath)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Damage == nil {
		t.Fatalf("verify missed the damage: %+v", rep)
	}
}

func TestVerifyMissingFile(t *testing.T) {
	rep, err := Verify(iofault.NewMemFS(nil), "/nope/none.hlog")
	if err != nil {
		t.Fatalf("verify missing: %v", err)
	}
	if !rep.Clean() || rep.Pending != 0 || rep.Size != 0 {
		t.Fatalf("missing file should verify as empty: %+v", rep)
	}
}

// crashWorkload drives a deterministic append/truncate mix and reports
// how far it got: acked = appends confirmed durable, truncAttempted /
// truncConfirmed describe the mid-run TruncatePrefix(2).
type crashOutcome struct {
	acked          int
	truncAttempted bool
	truncConfirmed bool
}

func runCrashWorkload(fs *iofault.MemFS) (crashOutcome, error) {
	var out crashOutcome
	l, err := Open(fs, testPath)
	if err != nil {
		return out, err
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(2, fmt.Sprintf("k%d", i), []byte("body")); err != nil {
			return out, err
		}
		out.acked++
	}
	out.truncAttempted = true
	if err := l.TruncatePrefix(2); err != nil {
		return out, err
	}
	out.truncConfirmed = true
	for i := 5; i < 8; i++ {
		if _, err := l.Append(2, fmt.Sprintf("k%d", i), []byte("body")); err != nil {
			return out, err
		}
		out.acked++
	}
	return out, nil
}

func TestCrashAtEveryOp(t *testing.T) {
	probe := iofault.NewMemFS(iofault.NewInjector(1))
	if _, err := runCrashWorkload(probe); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	total := probe.Injector().Ops()
	if total < 10 {
		t.Fatalf("workload too small (%d ops) to be interesting", total)
	}
	for crashAt := 0; crashAt < total; crashAt++ {
		inj := iofault.NewInjector(1000 + int64(crashAt))
		fs := iofault.NewMemFS(inj)
		inj.CrashAt(crashAt)
		out, err := runCrashWorkload(fs)
		if err != nil && !errors.Is(err, iofault.ErrCrashed) {
			t.Fatalf("crash at %d/%d: workload died of %v, not the injected crash", crashAt, total, err)
		}
		fs.Crash()

		l, err := Open(fs, testPath)
		if err != nil {
			t.Fatalf("crash at %d/%d: log did not reopen: %v", crashAt, total, err)
		}
		recs := l.Snapshot()
		l.Close()

		// The recovered log must be a contiguous key range k[start:end]:
		// start is 0, or 2 if the truncation ran; end covers every acked
		// append and at most one in-flight record that reached the disk
		// before the ack.
		start := 0
		if len(recs) > 0 {
			fmt.Sscanf(recs[0].Key, "k%d", &start)
		} else if out.truncConfirmed {
			start = 2
		}
		end := start + len(recs)
		for i, rec := range recs {
			if want := fmt.Sprintf("k%d", start+i); rec.Key != want {
				t.Fatalf("crash at %d: record %d is %q, want %q (recovered %v)",
					crashAt, i, rec.Key, want, keys(recs))
			}
			if i > 0 && recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("crash at %d: seqs not increasing: %v", crashAt, recs)
			}
		}
		if start != 0 && start != 2 {
			t.Errorf("crash at %d: recovered start k%d, want k0 or k2 (%v)", crashAt, start, keys(recs))
		}
		if start == 2 && !out.truncAttempted {
			t.Errorf("crash at %d: truncation visible but never attempted (%v)", crashAt, keys(recs))
		}
		if out.truncConfirmed && start != 2 {
			t.Errorf("crash at %d: confirmed truncation lost (%v)", crashAt, keys(recs))
		}
		if end < out.acked {
			t.Errorf("crash at %d: acked append lost: recovered to k%d, acked %d (%v)",
				crashAt, end-1, out.acked, keys(recs))
		}
		if end > out.acked+1 {
			t.Errorf("crash at %d: phantom records past the in-flight append: end %d, acked %d (%v)",
				crashAt, end, out.acked, keys(recs))
		}
	}
}
