package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tycoon/internal/frame"
	"tycoon/internal/iofault"
)

// This file holds the store's log vocabulary — which records exist and
// what they carry — and its recovery policies. The framing they ride in
// (header, per-record CRC32C, commit trailers, torn-tail vs. damage) is
// package frame's.
//
//	header:  8-byte magic "TYCOONST", u32 version
//
//	tag 1 (object): u8 tag, u64 oid, u8 kind, u32 len, payload
//	tag 2 (root):   u8 tag, u32 len, name bytes, u64 oid
//
// Format v1 (legacy, still readable) is the bare records; format v2
// frames them: a CRC after every record and a commit trailer closing
// each group-commit batch (one or more transactions), so a crash between
// the records of one batch rolls the whole batch back instead of
// replaying it half-applied.
//
// Recovery distinguishes the two failure classes frame.Scan reports:
//
//   - a *torn tail* is the normal artifact of a crash mid-append and is
//     silently dropped (together with its uncommitted batch);
//   - *damage* — or an undecodable payload — in the body of the log makes
//     Open fail with a *CorruptError (errors.Is ErrCorrupt) carrying the
//     offset and, where known, the OID. Salvage recovers every valid
//     record preceding the damage and quarantines the damaged suffix.
//
// V1 logs are appended to in v1 format so the file stays uniform; Compact
// migrates them to the current version.

var logFormat = frame.Format{
	Magic: [8]byte{'T', 'Y', 'C', 'O', 'O', 'N', 'S', 'T'},
	Pkg:   "store", What: "a Tycoon store",
	Current: currentVersion, Oldest: formatV1, Framed: formatV2,
	RecLen: recLen,
}

const (
	formatV1       = 1
	formatV2       = 2
	currentVersion = formatV2
)

const (
	recObject byte = 1
	recRoot   byte = 2
)

const (
	objHeaderLen  = 14 // tag + oid + kind + len
	rootHeaderLen = 5  // tag + len
)

// ErrCorrupt is the sentinel wrapped by every CorruptError.
var ErrCorrupt = errors.New("store: corrupt log")

// CorruptError reports damage in the body of a store log: where it is,
// which object it hit (when known), and why it was rejected.
type CorruptError struct {
	Path   string
	Offset int64
	OID    OID // Nil when the damage is not attributable to one object
	Reason string
}

func (e *CorruptError) Error() string {
	if e.OID != Nil {
		return fmt.Sprintf("store: corrupt log %s at offset %d (oid 0x%x): %s", e.Path, e.Offset, uint64(e.OID), e.Reason)
	}
	return fmt.Sprintf("store: corrupt log %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// corruptError names the damage a scan found in the store's terms: a
// failed object record is attributed to its OID, a failed root record
// says so.
func corruptError(path string, d *frame.Damage) *CorruptError {
	if d == nil {
		return nil
	}
	ce := &CorruptError{Path: path, Offset: d.Off, Reason: d.Reason}
	if d.Rec != nil {
		if rec := parseRec(frame.Span{Rec: d.Rec}); rec.tag == recObject {
			ce.OID = rec.oid
		} else {
			ce.Reason = "root " + d.Reason
		}
	}
	return ce
}

// --- record vocabulary -----------------------------------------------------

// recLen is the store vocabulary's frame.Format.RecLen.
func recLen(b []byte) int {
	switch b[0] {
	case recObject:
		if len(b) < objHeaderLen {
			return 0
		}
		return objHeaderLen + int(binary.LittleEndian.Uint32(b[10:]))
	case recRoot:
		if len(b) < rootHeaderLen {
			return 0
		}
		return rootHeaderLen + int(binary.LittleEndian.Uint32(b[1:])) + 8
	}
	return -1
}

// logRec is one scanned record, its header fields decoded. payload
// aliases the scanned buffer.
type logRec struct {
	off     int64
	tag     byte
	oid     OID    // object records
	kind    Kind   // object records
	payload []byte // object records
	name    string // root records
	rootOID OID    // root records
}

func parseRec(sp frame.Span) logRec {
	b := sp.Rec
	rec := logRec{off: sp.Off, tag: b[0]}
	if rec.tag == recObject {
		rec.oid = OID(binary.LittleEndian.Uint64(b[1:]))
		rec.kind = Kind(b[9])
		rec.payload = b[objHeaderLen:]
	} else {
		rec.name = string(b[rootHeaderLen : len(b)-8])
		rec.rootOID = OID(binary.LittleEndian.Uint64(b[len(b)-8:]))
	}
	return rec
}

// decode decodes an object record's payload, reporting failure as damage
// at the record.
func (rec logRec) decode(path string) (Object, *CorruptError) {
	obj, err := decodeObject(rec.kind, rec.payload)
	if err != nil {
		return nil, &CorruptError{Path: path, Offset: rec.off, OID: rec.oid,
			Reason: fmt.Sprintf("undecodable payload: %v", err)}
	}
	return obj, nil
}

// --- replay ----------------------------------------------------------------

// replay loads the log into memory. Torn tails and unframed batches
// (crash artifacts) are rolled back silently; damage in the log body makes
// replay fail with a *CorruptError.
func (s *Store) replay() error {
	data, err := io.ReadAll(s.file)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	sc, err := logFormat.Scan(s.path, data)
	if err != nil {
		return err
	}
	if sc.Damage != nil {
		return corruptError(s.path, sc.Damage)
	}
	s.version = sc.Version
	for _, sp := range sc.Recs {
		if !sp.Committed {
			continue // incomplete batch: rolled back
		}
		rec := parseRec(sp)
		if rec.tag == recRoot {
			s.roots[rec.name] = rec.rootOID
			continue
		}
		obj, cerr := rec.decode(s.path)
		if cerr != nil {
			return cerr
		}
		s.objects[rec.oid] = obj
		if rec.oid >= s.next {
			s.next = rec.oid + 1
		}
	}
	return nil
}

// --- record encoding -------------------------------------------------------

func objectRecord(oid OID, obj Object) []byte {
	var e encoder
	e.u8(recObject)
	e.u64(uint64(oid))
	e.u8(byte(obj.Kind()))
	e.bytesField(encodeObject(obj))
	return e.buf.Bytes()
}

func rootRecord(name string, oid OID) []byte {
	var e encoder
	e.u8(recRoot)
	e.str(name)
	e.u64(uint64(oid))
	return e.buf.Bytes()
}

// encodeFullLog renders a complete log image of the given state in the
// current format: header plus one framed batch holding every live object
// and the root table. Compact and Salvage share it.
func encodeFullLog(objects map[OID]Object, roots map[string]OID) []byte {
	var out bytes.Buffer
	logFormat.AppendHeader(&out, currentVersion)
	var batch bytes.Buffer
	count := 0
	oids := make([]OID, 0, len(objects))
	for oid := range objects {
		oids = append(oids, oid)
	}
	sortOIDs(oids)
	for _, oid := range oids {
		logFormat.AppendRecord(&batch, currentVersion, objectRecord(oid, objects[oid]))
		count++
	}
	for _, name := range rootNames(roots) {
		logFormat.AppendRecord(&batch, currentVersion, rootRecord(name, roots[name]))
		count++
	}
	out.Write(batch.Bytes())
	logFormat.AppendTrailer(&out, currentVersion, count, batch.Bytes())
	return out.Bytes()
}

// --- verification ----------------------------------------------------------

// LogReport is the result of VerifyLog: a structural integrity summary of
// a store log, without opening the store.
type LogReport struct {
	Version     uint32
	Size        int64
	Records     int // structurally valid records (checksums verified in v2)
	Batches     int // completed commit batches (v2)
	Uncommitted int // trailing records with no commit trailer (rolled back on open)
	// TornTailOffset is the offset of a truncated record at the end of the
	// log (a normal crash artifact), or -1.
	TornTailOffset int64
	// Damage is the first corruption found in the log body, or nil.
	Damage *CorruptError
}

// Clean reports whether the log replays with no loss: no damage, no torn
// tail and no rolled-back batch.
func (r *LogReport) Clean() bool {
	return r.Damage == nil && r.TornTailOffset < 0 && r.Uncommitted == 0
}

// VerifyLog checks the structural integrity of the store log at path.
func VerifyLog(path string) (*LogReport, error) { return VerifyLogFS(iofault.OS(), path) }

// VerifyLogFS is VerifyLog over an explicit filesystem.
func VerifyLogFS(fsys iofault.FS, path string) (*LogReport, error) {
	data, err := logFormat.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	sc, err := logFormat.Scan(path, data)
	if err != nil {
		return nil, err
	}
	rep := &LogReport{
		Version:        sc.Version,
		Size:           sc.Size,
		Records:        len(sc.Recs),
		Batches:        sc.Batches,
		Uncommitted:    sc.Uncommitted,
		TornTailOffset: sc.TornOff,
		Damage:         corruptError(path, sc.Damage),
	}
	// Decode every record payload so that in-body damage that survives
	// framing (impossible in v2 short of a CRC collision, possible in v1)
	// is reported here rather than at open time.
	for i := 0; rep.Damage == nil && i < len(sc.Recs); i++ {
		if rec := parseRec(sc.Recs[i]); rec.tag == recObject {
			_, rep.Damage = rec.decode(path)
		}
	}
	return rep, nil
}

// --- salvage ---------------------------------------------------------------

// SalvageReport describes what Salvage did.
type SalvageReport struct {
	Version uint32 // version of the damaged log (the rewrite is current)
	Records int    // records recovered (committed or not)
	// Reason is the description of the first damage, "" if none.
	Reason string
	// QuarantinePath holds the damaged suffix of the log ("" if no
	// damage); QuarantinedBytes is its length.
	QuarantinePath   string
	QuarantinedBytes int64
	// Rewritten reports that the log was rewritten (always true when
	// there was damage, a torn tail or an unframed batch).
	Rewritten bool
}

// Salvage recovers a damaged store log in place: every structurally valid
// record preceding the first damage is kept — *including* records of an
// unfinished batch, relaxing commit atomicity in exchange for maximal
// recovery — the damaged suffix is copied to <path>.quarantine, and the
// log is rewritten in the current format (which also migrates v1 logs).
// After a successful salvage, Open(path) succeeds.
func Salvage(path string) (*SalvageReport, error) { return SalvageFS(iofault.OS(), path) }

// SalvageFS is Salvage over an explicit filesystem.
func SalvageFS(fsys iofault.FS, path string) (*SalvageReport, error) {
	data, err := logFormat.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	sc, err := logFormat.Scan(path, data)
	if err != nil {
		return nil, err
	}
	rep := &SalvageReport{Version: sc.Version}
	damageOff := int64(-1)
	if sc.Damage != nil {
		damageOff = sc.Damage.Off
		rep.Reason = corruptError(path, sc.Damage).Reason
	}
	objects := make(map[OID]Object)
	roots := make(map[string]OID)
	for _, sp := range sc.Recs {
		rec := parseRec(sp)
		if rec.tag == recObject {
			obj, err := decodeObject(rec.kind, rec.payload)
			if err != nil {
				// The payload is structurally framed but undecodable:
				// treat this record as the start of the damage.
				damageOff = rec.off
				rep.Reason = fmt.Sprintf("undecodable payload for oid 0x%x: %v", uint64(rec.oid), err)
				break
			}
			objects[rec.oid] = obj
		} else {
			roots[rec.name] = rec.rootOID
		}
		rep.Records++
	}
	if damageOff >= 0 {
		qpath := path + ".quarantine"
		if err := frame.WriteFileSync(fsys, qpath, data[damageOff:]); err != nil {
			return nil, fmt.Errorf("store: salvage quarantine: %w", err)
		}
		rep.QuarantinePath = qpath
		rep.QuarantinedBytes = sc.Size - damageOff
	}
	if damageOff < 0 && sc.TornOff < 0 && sc.Uncommitted == 0 && sc.Version == currentVersion {
		return rep, nil // clean log: nothing to do
	}
	// Rewrite the log from the recovered state, exactly like Compact.
	if err := frame.ReplaceFile(fsys, path, path+".salvage", encodeFullLog(objects, roots)); err != nil {
		return nil, fmt.Errorf("store: salvage rewrite: %w", err)
	}
	rep.Rewritten = true
	return rep, nil
}
