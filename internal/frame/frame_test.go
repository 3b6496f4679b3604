package frame

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tycoon/internal/iofault"
)

// testFormat is a minimal vocabulary: tag 1, u8 length, payload.
var testFormat = Format{
	Magic: [8]byte{'F', 'R', 'A', 'M', 'E', 'T', 'S', 'T'},
	Pkg:   "frametest", What: "a test log",
	Current: 2, Oldest: 1, Framed: 2,
	RecLen: func(b []byte) int {
		switch {
		case b[0] != 1:
			return -1
		case len(b) < 2:
			return 0
		}
		return 2 + int(b[1])
	},
}

func rec(payload string) []byte { return append([]byte{1, byte(len(payload))}, payload...) }

// image builds a log of the given version: batches of records, each
// closed by a trailer (which unframed versions omit).
func image(version uint32, batches ...[]string) []byte {
	var out bytes.Buffer
	testFormat.AppendHeader(&out, version)
	for _, batch := range batches {
		start := out.Len()
		for _, p := range batch {
			testFormat.AppendRecord(&out, version, rec(p))
		}
		testFormat.AppendTrailer(&out, version, len(batch), out.Bytes()[start:])
	}
	return out.Bytes()
}

func TestScanRoundTrip(t *testing.T) {
	img := image(2, []string{"a", "bb"}, []string{"ccc"})
	sc, err := testFormat.Scan("p", img)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Version != 2 || sc.Batches != 2 || len(sc.Recs) != 3 || sc.Uncommitted != 0 || sc.TornOff != -1 || sc.Damage != nil {
		t.Fatalf("scan = %+v", sc)
	}
	for i, want := range []string{"a", "bb", "ccc"} {
		if sp := sc.Recs[i]; !sp.Committed || string(sp.Rec[2:]) != want || !bytes.Equal(img[sp.Off:sp.Off+int64(len(sp.Rec))], sp.Rec) {
			t.Errorf("record %d = %+v", i, sp)
		}
	}
	// An unframed version: bare records, each its own commit, no trailer.
	v1 := image(1, []string{"x", "yy"})
	if want := HeaderLen + len(rec("x")) + len(rec("yy")); len(v1) != want {
		t.Fatalf("v1 image is %d bytes, want %d (no CRCs, no trailer)", len(v1), want)
	}
	sc, err = testFormat.Scan("p", v1)
	if err != nil || len(sc.Recs) != 2 || !sc.Recs[1].Committed || sc.Batches != 0 {
		t.Fatalf("v1 scan = %+v, %v", sc, err)
	}
}

// TestScanEveryTruncation: every proper prefix of a log is a torn tail,
// never damage and never an error, and rolls back to a batch boundary.
func TestScanEveryTruncation(t *testing.T) {
	img := image(2, []string{"a", "bb"}, []string{"ccc"})
	firstBatchEnd := int64(len(image(2, []string{"a", "bb"})))
	for n := 0; n < len(img); n++ {
		sc, err := testFormat.Scan("p", img[:n])
		if err != nil || sc.Damage != nil {
			t.Fatalf("cut %d: err %v, damage %+v", n, err, sc.Damage)
		}
		committed := 0
		for _, sp := range sc.Recs {
			if sp.Committed {
				committed++
			}
		}
		want := 0
		if int64(n) >= firstBatchEnd {
			want = 2
		}
		if committed != want {
			t.Errorf("cut %d: %d committed records, want %d", n, committed, want)
		}
		clean := n == 0 || n == HeaderLen || int64(n) == firstBatchEnd
		if (sc.TornOff < 0 && sc.Uncommitted == 0) != clean {
			t.Errorf("cut %d: torn %d, uncommitted %d, want clean=%v", n, sc.TornOff, sc.Uncommitted, clean)
		}
	}
}

func TestScanDamage(t *testing.T) {
	img := image(2, []string{"a", "bb"}, []string{"ccc"})
	recOff := HeaderLen
	trailerOff := len(image(2, []string{"a", "bb"})) - TrailerLen
	for _, tc := range []struct {
		name   string
		off    int
		reason string
		hasRec bool
	}{
		{"payload", recOff + 2, "record checksum mismatch", true},
		{"record crc", recOff + 3, "record checksum mismatch", true},
		{"tag", recOff, "unknown record tag 254", false},
		{"trailer count", trailerOff + 1, "commit trailer checksum mismatch", false},
		{"trailer crc", trailerOff + 9, "commit trailer checksum mismatch", false},
	} {
		mut := append([]byte(nil), img...)
		mut[tc.off] ^= 0xff
		sc, err := testFormat.Scan("p", mut)
		if err != nil || sc.Damage == nil {
			t.Fatalf("%s: err %v, scan %+v", tc.name, err, sc)
		}
		if sc.Damage.Reason != tc.reason || (sc.Damage.Rec != nil) != tc.hasRec {
			t.Errorf("%s: damage %+v, want %q", tc.name, sc.Damage, tc.reason)
		}
	}
	// A trailer whose checksum is right but whose count is not.
	var out bytes.Buffer
	testFormat.AppendHeader(&out, 2)
	testFormat.AppendRecord(&out, 2, rec("a"))
	testFormat.AppendTrailer(&out, 2, 2, out.Bytes()[HeaderLen:])
	if sc, _ := testFormat.Scan("p", out.Bytes()); sc.Damage == nil || sc.Damage.Reason != "commit trailer frames 2 records, found 1" {
		t.Errorf("miscounted trailer: %+v", sc.Damage)
	}
	// A trailer in an unframed log.
	v1 := append(image(1, []string{"x"}), TagCommit)
	if sc, _ := testFormat.Scan("p", v1); sc.Damage == nil || sc.Damage.Reason != "commit trailer in a v1 log" {
		t.Errorf("trailer in v1: %+v", sc.Damage)
	}
	// Not ours at all.
	for _, data := range [][]byte{[]byte("FRAMEXXX"), []byte("nope"), image(3), image(0)} {
		if _, err := testFormat.Scan("p", data); err == nil {
			t.Errorf("%q scanned", data)
		}
	}
}

// TestEncodeHelpersDoNotAllocate pins what the store's group committer
// relies on: framing a record and closing a batch cost no allocation
// beyond the output buffer's own growth.
func TestEncodeHelpersDoNotAllocate(t *testing.T) {
	var out bytes.Buffer
	out.Grow(1 << 10)
	r := rec("payload")
	allocs := testing.AllocsPerRun(100, func() {
		out.Reset()
		testFormat.AppendHeader(&out, 2)
		testFormat.AppendRecord(&out, 2, r)
		testFormat.AppendTrailer(&out, 2, 1, out.Bytes()[HeaderLen:])
	})
	if allocs != 0 {
		t.Errorf("header+record+trailer allocate %.0f times, want 0", allocs)
	}
}

// TestReplaceFileCrashAtEveryOp sweeps the one replace-via-tmp+rename+
// sync-dir implementation Compact, Salvage and the handoff rewrite share:
// crash at every filesystem operation, reboot, and the file must hold
// exactly the old image or exactly the new one — the new one whenever
// ReplaceFile reported success.
func TestReplaceFileCrashAtEveryOp(t *testing.T) {
	const path, tmp = "/d/log", "/d/log.tmp"
	oldImg, newImg := image(2, []string{"old", "state"}), image(2, []string{"new"}, []string{"image"})
	setup := func(inj *iofault.Injector) *iofault.MemFS {
		fs := iofault.NewMemFS(inj)
		if err := ReplaceFile(fs, path, tmp, oldImg); err != nil {
			t.Fatalf("setup: %v", err)
		}
		return fs
	}
	probe := iofault.NewInjector(1)
	fs := setup(probe)
	base := probe.Ops()
	if err := ReplaceFile(fs, path, tmp, newImg); err != nil {
		t.Fatalf("fault-free replace: %v", err)
	}
	total := probe.Ops() - base
	if total < 4 {
		t.Fatalf("replace took %d ops; expected create, write, sync, rename, sync-dir", total)
	}
	for crashAt := 0; crashAt < total; crashAt++ {
		inj := iofault.NewInjector(100 + int64(crashAt))
		fs := setup(inj)
		inj.CrashAt(base + crashAt)
		err := ReplaceFile(fs, path, tmp, newImg)
		if err != nil && !errors.Is(err, iofault.ErrCrashed) {
			t.Fatalf("crash at %d/%d: died of %v, not the injected crash", crashAt, total, err)
		}
		fs.Crash()
		got, rerr := fs.ReadFile(path)
		if rerr != nil {
			t.Fatalf("crash at %d/%d: file lost: %v", crashAt, total, rerr)
		}
		switch {
		case bytes.Equal(got, newImg):
		case bytes.Equal(got, oldImg) && err != nil:
		default:
			t.Fatalf("crash at %d/%d (replace returned %v): file is neither image:\n got %x\n old %x\n new %x",
				crashAt, total, err, got, oldImg, newImg)
		}
		if err == nil {
			t.Fatalf("crash at %d/%d never fired", crashAt, total)
		}
	}
	// A transient sync failure leaves the old file in place and no litter.
	inj := iofault.NewInjector(7)
	fs = setup(inj)
	inj.FailSyncAt(base + 2) // create, write, sync
	if err := ReplaceFile(fs, path, tmp, newImg); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("failed sync: %v", err)
	}
	if got, _ := fs.ReadFile(path); !bytes.Equal(got, oldImg) {
		t.Error("failed replace disturbed the old file")
	}
	if names := fmt.Sprint(fs.Names()); names != "[/d/log]" {
		t.Errorf("failed replace left %s behind", names)
	}
}
