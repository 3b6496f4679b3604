package store

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"tycoon/internal/frame"
)

// Directed tests for the recovery paths of log format v2: torn tails
// mid-record and mid-batch, bit flips in payloads and headers, v1→v2
// migration, and salvage-mode quarantine.

// buildLog creates a store at path with a few committed batches and
// returns the OIDs of the committed objects, batch by batch.
func buildLog(t *testing.T, path string, batches int) [][]OID {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]OID
	for b := 0; b < batches; b++ {
		var oids []OID
		write(t, s, func(tx *Txn) {
			for i := 0; i < 3; i++ {
				oids = append(oids, tx.Alloc(&Blob{Bytes: bytes.Repeat([]byte{byte(b*16 + i)}, 20)}))
			}
			tx.SetRoot("latest", oids[0])
		})
		out = append(out, oids)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scanOf parses the log structurally so tests can aim at exact offsets.
func scanOf(t *testing.T, path string) *frame.Scanned {
	t.Helper()
	sc, err := logFormat.Scan(path, readAll(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Damage != nil {
		t.Fatalf("pristine log scans with damage: %v", sc.Damage)
	}
	return sc
}

func TestTornTailMidRecordRollsBackBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.tyst")
	batches := buildLog(t, path, 2)
	data := readAll(t, path)
	sc := scanOf(t, path)

	// Truncate inside the first record of batch 2: the whole batch must
	// vanish, batch 1 must survive, and Open must not error.
	rec := parseRec(sc.Recs[4]) // batch 2 starts at record index 4 (3 objects + 1 root per batch)
	if err := os.WriteFile(path, data[:rec.off+5], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail mid-record not tolerated: %v", err)
	}
	defer s.Close()
	for _, oid := range batches[0] {
		if _, err := s.Get(oid); err != nil {
			t.Errorf("batch 1 object 0x%x lost: %v", uint64(oid), err)
		}
	}
	for _, oid := range batches[1] {
		if _, err := s.Get(oid); err == nil {
			t.Errorf("object 0x%x of the torn batch replayed as committed", uint64(oid))
		}
	}
}

func TestTornTailMidBatchRollsBackBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "midbatch.tyst")
	batches := buildLog(t, path, 2)
	data := readAll(t, path)
	sc := scanOf(t, path)

	// Cut cleanly *between* two records of batch 2 (no byte-level tearing,
	// but the commit trailer is missing): atomic rollback of the batch.
	cut := sc.Recs[5].Off
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("unframed batch not tolerated: %v", err)
	}
	defer s.Close()
	if _, err := s.Get(batches[1][0]); err == nil {
		t.Error("record of an unframed batch replayed as committed")
	}
	if _, err := s.Get(batches[0][2]); err != nil {
		t.Errorf("framed batch lost: %v", err)
	}
	// The root was committed in both batches; the surviving value must be
	// batch 1's.
	if oid, ok := s.Root("latest"); !ok || oid != batches[0][0] {
		t.Errorf("root = %v, %v, want batch 1 value %v", oid, ok, batches[0][0])
	}
}

func TestBitFlipInPayloadDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.tyst")
	buildLog(t, path, 2)
	sc := scanOf(t, path)
	data := readAll(t, path)

	// Flip one bit in the middle of the first record's payload.
	rec := parseRec(sc.Recs[0])
	off := rec.off + objHeaderLen + 4
	data[off] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := Open(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip in payload not detected: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CorruptError: %v", err)
	}
	if ce.Offset != rec.off {
		t.Errorf("damage offset %d, want record offset %d", ce.Offset, rec.off)
	}
	if ce.OID != rec.oid {
		t.Errorf("damage OID 0x%x, want 0x%x", uint64(ce.OID), uint64(rec.oid))
	}
}

func TestBitFlipInHeaderDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fliphdr.tyst")
	buildLog(t, path, 2)
	sc := scanOf(t, path)
	data := readAll(t, path)

	// Flip a bit in the OID field of the second record's header: the
	// record CRC covers the header too.
	rec := parseRec(sc.Recs[1])
	data[rec.off+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bit flip in record header not detected: %v", err)
	}
	if ce.Offset != rec.off {
		t.Errorf("damage offset %d, want %d", ce.Offset, rec.off)
	}

	// And a flip inside a commit trailer must be caught as well.
	path2 := filepath.Join(t.TempDir(), "fliptrailer.tyst")
	buildLog(t, path2, 2)
	sc2 := scanOf(t, path2)
	img := readAll(t, path2)
	trailerOff := sc2.Recs[4].Off - frame.TrailerLen // trailer of batch 1 sits right before batch 2
	img[trailerOff+2] ^= 0x40
	if err := os.WriteFile(path2, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip in commit trailer not detected: %v", err)
	}
}

func TestSalvageRecoversPrefixAndQuarantines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "salvage.tyst")
	batches := buildLog(t, path, 3)
	sc := scanOf(t, path)
	data := readAll(t, path)

	// Damage the second record of batch 2. Salvage must keep all of
	// batch 1 *and* the record of batch 2 preceding the damage, and
	// quarantine everything from the damaged record on.
	rec := parseRec(sc.Recs[5]) // batch 2: recs 4..7
	data[rec.off+objHeaderLen+1] ^= 0x02
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged log opened: %v", err)
	}

	rep, err := Salvage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rewritten {
		t.Error("salvage did not rewrite the damaged log")
	}
	if rep.Records != 5 {
		t.Errorf("salvage recovered %d records, want 5 (batch 1 plus one record of batch 2)", rep.Records)
	}
	if rep.QuarantinePath == "" || rep.QuarantinedBytes != int64(len(data))-rec.off {
		t.Errorf("quarantine = %q (%d bytes), want %d bytes", rep.QuarantinePath, rep.QuarantinedBytes, int64(len(data))-rec.off)
	}
	q, err := os.ReadFile(rep.QuarantinePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q, data[rec.off:]) {
		t.Error("quarantine file does not hold the damaged suffix")
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("salvaged log does not open: %v", err)
	}
	defer s.Close()
	for _, oid := range batches[0] {
		if _, err := s.Get(oid); err != nil {
			t.Errorf("salvage lost committed object 0x%x: %v", uint64(oid), err)
		}
	}
	if _, err := s.Get(batches[1][0]); err != nil {
		t.Error("salvage dropped the valid record preceding the damage")
	}
	if _, err := s.Get(batches[1][1]); err == nil {
		t.Error("salvage resurrected the damaged record")
	}
	for _, oid := range batches[2] {
		if _, err := s.Get(oid); err == nil {
			t.Errorf("salvage resurrected post-damage object 0x%x", uint64(oid))
		}
	}
}

func TestSalvageCleanLogIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.tyst")
	buildLog(t, path, 2)
	before := readAll(t, path)
	rep, err := Salvage(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rewritten || rep.QuarantinePath != "" {
		t.Errorf("salvage of a clean log rewrote it: %+v", rep)
	}
	if !bytes.Equal(before, readAll(t, path)) {
		t.Error("salvage of a clean log changed the file")
	}
}

// writeV1Log renders a legacy v1 log image (no checksums, no framing).
func writeV1Log(t *testing.T, path string, objects map[OID]Object, roots map[string]OID) {
	t.Helper()
	var out bytes.Buffer
	logFormat.AppendHeader(&out, formatV1)
	oids := make([]OID, 0, len(objects))
	for oid := range objects {
		oids = append(oids, oid)
	}
	sortOIDs(oids)
	for _, oid := range oids {
		logFormat.AppendRecord(&out, formatV1, objectRecord(oid, objects[oid]))
	}
	for _, name := range rootNames(roots) {
		logFormat.AppendRecord(&out, formatV1, rootRecord(name, roots[name]))
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestV1LogReadableAndMigratedByCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.tyst")
	objects := map[OID]Object{
		1: &Blob{Bytes: []byte("legacy")},
		2: &Tuple{Fields: []Val{IntVal(7), StrVal("x")}},
	}
	writeV1Log(t, path, objects, map[string]OID{"r": 2})

	s, err := Open(path)
	if err != nil {
		t.Fatalf("v1 log unreadable: %v", err)
	}
	if s.Version() != formatV1 {
		t.Errorf("opened v1 log reports version %d", s.Version())
	}
	if got := s.MustGet(1).(*Blob).Bytes; string(got) != "legacy" {
		t.Errorf("v1 object = %q", got)
	}
	// Appends to a v1 log stay v1 (uniform file), and remain readable.
	oid3 := alloc(t, s, &Blob{Bytes: []byte("appended")})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != formatV1 || rep.Damage != nil {
		t.Errorf("after v1 append: version %d, damage %v", rep.Version, rep.Damage)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotState(s2)
	// Compact migrates to the current format.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if s2.Version() != currentVersion {
		t.Errorf("compact left version %d", s2.Version())
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != currentVersion || !rep.Clean() {
		t.Errorf("migrated log: version %d, clean %v (%+v)", rep.Version, rep.Clean(), rep)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := snapshotState(s3); !maps.Equal(got, want) {
		t.Errorf("state changed across v1→v2 migration:\ngot:  %v\nwant: %v", got, want)
	}
	if got := s3.MustGet(oid3).(*Blob).Bytes; string(got) != "appended" {
		t.Errorf("v1 append lost in migration: %q", got)
	}
}

func TestV1TornTailStillTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1torn.tyst")
	writeV1Log(t, path, map[OID]Object{1: &Blob{Bytes: []byte("ok")}}, nil)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{recObject, 1, 2})
	f.Close()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("v1 torn tail not tolerated: %v", err)
	}
	defer s.Close()
	if got := s.MustGet(1).(*Blob).Bytes; string(got) != "ok" {
		t.Errorf("v1 object lost: %q", got)
	}
}

func TestTruncationSweepNeverBreaksOpen(t *testing.T) {
	// Chop a two-batch log at *every* length: Open must always succeed
	// and always yield one of the three legal states (empty, batch 1,
	// batch 1+2).
	path := filepath.Join(t.TempDir(), "sweep.tyst")
	batches := buildLog(t, path, 2)
	data := readAll(t, path)
	sc := scanOf(t, path)
	batch2End := sc.Recs[len(sc.Recs)-1].Off // conservative: last record start

	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		n := s.Len()
		_, has1 := s.Root("latest")
		switch {
		case n == 0: // nothing committed
		case n == 3 && has1: // batch 1 exactly
			for _, oid := range batches[0] {
				if _, err := s.Get(oid); err != nil {
					t.Errorf("cut at %d: partial batch 1", cut)
				}
			}
		case n == 6 && cut >= int(batch2End): // both batches
		default:
			t.Errorf("cut at %d: %d objects is not a committed-prefix state", cut, n)
		}
		s.Close()
	}
}

func TestVerifyLogReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verify.tyst")
	buildLog(t, path, 3)
	rep, err := VerifyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != currentVersion || rep.Batches != 3 || rep.Records != 12 || !rep.Clean() {
		t.Errorf("clean log report: %+v", rep)
	}

	// Chop between records: torn tail reported, not damage.
	data := readAll(t, path)
	sc := scanOf(t, path)
	os.WriteFile(path, data[:sc.Recs[9].Off+3], 0o644)
	rep, err = VerifyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damage != nil || rep.TornTailOffset < 0 || rep.Clean() {
		t.Errorf("torn log report: %+v", rep)
	}

	// Flip a bit: damage reported.
	data[sc.Recs[2].Off+objHeaderLen] ^= 0x08
	os.WriteFile(path, data, 0o644)
	rep, err = VerifyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damage == nil {
		t.Errorf("flipped log reported clean: %+v", rep)
	}
}
