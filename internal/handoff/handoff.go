// Package handoff implements the durable write-ahead handoff log the
// coordinator keeps per replica. When a write-all application finds one
// replica of the owning shard down, the write is accepted anyway: the
// encoded request — original idempotency key and all — is appended here,
// fsynced, and shipped to the replica once it comes back. Because records
// replay in original order under their original keys, the server-side
// dedup table makes the replay exactly-once even when a crash mid-drain
// re-ships an already-applied prefix; the log therefore needs no cursor,
// only a durable ordered suffix of not-yet-confirmed writes.
//
// The on-disk format is a package frame log — the framing the store log
// uses — with one record kind of its own:
//
//	header:  8-byte magic "TYCOONHO", u32 version (1)
//	tag 1 (write):  u8 tag, u64 seq, u8 verb, u32 klen, key,
//	                u32 blen, body
//
// Each append goes out as one write — the record plus a commit trailer
// framing it — followed by one fsync, so a crash mid-append leaves a torn
// tail that reopen silently rolls back, while damage in the body of the
// log (a flipped bit under a valid length) is detected and fails loud.
package handoff

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tycoon/internal/frame"
	"tycoon/internal/iofault"
)

const (
	currentVersion = 1

	recWrite     byte = 1
	recHeaderLen      = 14 // tag + seq + verb + klen
)

var format = frame.Format{
	Magic: [8]byte{'T', 'Y', 'C', 'O', 'O', 'N', 'H', 'O'},
	Pkg:   "handoff", What: "a handoff log",
	Current: currentVersion, Oldest: currentVersion, Framed: currentVersion,
	RecLen: recLen,
}

// ErrCorrupt is the sentinel wrapped by every CorruptError.
var ErrCorrupt = errors.New("handoff: corrupt log")

// CorruptError reports damage in the body of a handoff log.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("handoff: corrupt log %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Record is one deferred write: the verb and encoded request body exactly
// as the coordinator would have sent them, plus the idempotency key under
// which the write was acked (kept addressable for audit; the body carries
// it too). Seq orders records within one log.
type Record struct {
	Seq  uint64
	Verb byte
	Key  string
	Body []byte
}

// Log is an open handoff log: a durable FIFO of deferred writes for one
// replica. All methods are safe for concurrent use.
type Log struct {
	fsys iofault.FS
	path string

	mu   sync.Mutex
	f    iofault.File
	recs []Record
	next uint64 // next Seq to assign
	// empty tracks whether the file still needs its header: the header
	// goes out with the first record in one write, so a crash before any
	// append leaves either nothing or a recognizable magic prefix.
	empty  bool
	broken error // latched append failure: the tail may be torn
}

// Open opens (or creates) the handoff log at path, replaying its clean
// prefix. A torn tail or an unframed record — the artifacts of a crash
// mid-append — is rolled back and trimmed from the file; damage in the
// log body fails with a *CorruptError.
func Open(fsys iofault.FS, path string) (*Log, error) {
	sc, err := scan(fsys, path)
	if err != nil {
		return nil, err
	}
	if sc.Damage != nil {
		return nil, corruptError(path, sc.Damage)
	}
	l := &Log{fsys: fsys, path: path, next: 1}
	for _, sp := range sc.Recs {
		if !sp.Committed {
			continue
		}
		rec := decodeRecord(sp.Rec)
		l.recs = append(l.recs, rec)
		if rec.Seq >= l.next {
			l.next = rec.Seq + 1
		}
	}
	if sc.TornOff >= 0 || sc.Uncommitted > 0 {
		// Trim the crash artifact so appends land after a clean prefix.
		// iofault files have no Truncate, so rewrite through a rename.
		if err := l.rewrite(l.recs); err != nil {
			return nil, err
		}
		return l, nil
	}
	if err := l.openTail(os.O_CREATE); err != nil {
		return nil, err
	}
	if l.empty = sc.Size == 0; l.empty {
		// Freshly created (or still empty): make the *name* durable before
		// any append is acked, per the fsync-the-directory rule.
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			l.f.Close()
			return nil, fmt.Errorf("handoff: sync dir: %w", err)
		}
	}
	return l, nil
}

// openTail opens the log file positioned for append.
func (l *Log) openTail(flag int) error {
	f, err := l.fsys.OpenFile(l.path, os.O_RDWR|flag, 0o644)
	if err != nil {
		return fmt.Errorf("handoff: open %s: %w", l.path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("handoff: seek %s: %w", l.path, err)
	}
	l.f = f
	return nil
}

// Append durably appends one deferred write and returns its sequence
// number. The record and its commit trailer go out in a single write
// followed by a sync; only after the sync returns is the caller entitled
// to ack the client. A failed append latches the log broken — the on-disk
// tail is suspect — and every later append fails until reopen.
func (l *Log) Append(verb byte, key string, body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, l.broken
	}
	if l.f == nil {
		return 0, errors.New("handoff: log closed")
	}
	rec := Record{Seq: l.next, Verb: verb, Key: key, Body: body}
	var out bytes.Buffer
	if l.empty {
		format.AppendHeader(&out, currentVersion)
	}
	appendWrite(&out, rec)
	if _, err := l.f.Write(out.Bytes()); err != nil {
		l.broken = fmt.Errorf("handoff: append %s: %w", l.path, err)
		return 0, l.broken
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("handoff: sync %s: %w", l.path, err)
		return 0, l.broken
	}
	l.empty = false
	l.next++
	l.recs = append(l.recs, rec)
	return rec.Seq, nil
}

// Len reports the number of pending records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Peek returns a copy of the first n pending records (fewer if the log is
// shorter), in append order.
func (l *Log) Peek(n int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.recs) {
		n = len(l.recs)
	}
	out := make([]Record, n)
	copy(out, l.recs[:n])
	return out
}

// Snapshot returns a copy of every pending record in append order.
func (l *Log) Snapshot() []Record { return l.Peek(int(^uint(0) >> 1)) }

// TruncatePrefix durably drops the first n records — the prefix a replica
// has confirmed. The remainder is rewritten through a temporary file and
// renamed into place, the directory synced, and the log reopened for
// append, so a crash at any point leaves either the old suffix or the new
// one, never a blend.
func (l *Log) TruncatePrefix(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 {
		return nil
	}
	if n > len(l.recs) {
		n = len(l.recs)
	}
	rest := make([]Record, len(l.recs)-n)
	copy(rest, l.recs[n:])
	if err := l.rewrite(rest); err != nil {
		return err
	}
	l.broken = nil
	return nil
}

// rewrite replaces the log file with one holding exactly recs, then
// reopens it for append. Caller holds l.mu (or is Open, pre-publication).
func (l *Log) rewrite(recs []Record) error {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	var out bytes.Buffer
	if len(recs) > 0 {
		format.AppendHeader(&out, currentVersion)
		for _, rec := range recs {
			appendWrite(&out, rec)
		}
	}
	if err := frame.ReplaceFile(l.fsys, l.path, l.path+".tmp", out.Bytes()); err != nil {
		return fmt.Errorf("handoff: rewrite %s: %w", l.path, err)
	}
	if err := l.openTail(0); err != nil {
		return err
	}
	l.recs = recs
	l.empty = len(recs) == 0
	return nil
}

// Path reports the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the underlying file. Pending records stay on disk and are
// replayed by the next Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// --- offline audit ---------------------------------------------------------

// Report is the result of Verify: a structural integrity summary of a
// handoff log, for tycfsck -handoff.
type Report struct {
	Version uint32
	Size    int64
	Records int // structurally valid, checksummed records
	Pending int // committed records a reopen would replay (the backlog)
	// Uncommitted counts trailing records with no commit trailer (rolled
	// back on open); TornTailOffset is the offset of a truncated record at
	// the end of the log (a normal crash artifact), or -1.
	Uncommitted    int
	TornTailOffset int64
	// Damage is the first corruption found in the log body, or nil.
	Damage *CorruptError
}

// Clean reports whether the log reopens with no loss: no damage, no torn
// tail, no rolled-back record.
func (r *Report) Clean() bool {
	return r.Damage == nil && r.TornTailOffset < 0 && r.Uncommitted == 0
}

// Verify checks the structural integrity of the handoff log at path
// without opening it for append. A missing file verifies as an empty log.
func Verify(fsys iofault.FS, path string) (*Report, error) {
	sc, err := scan(fsys, path)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Version:        sc.Version,
		Size:           sc.Size,
		Records:        len(sc.Recs),
		Uncommitted:    sc.Uncommitted,
		TornTailOffset: sc.TornOff,
		Damage:         corruptError(path, sc.Damage),
	}
	for _, sp := range sc.Recs {
		if sp.Committed {
			rep.Pending++
		}
	}
	return rep, nil
}

// --- record vocabulary -----------------------------------------------------

func corruptError(path string, d *frame.Damage) *CorruptError {
	if d == nil {
		return nil
	}
	return &CorruptError{Path: path, Offset: d.Off, Reason: d.Reason}
}

// scan reads and structurally parses the log; a missing file is an empty
// log.
func scan(fsys iofault.FS, path string) (*frame.Scanned, error) {
	data, err := format.ReadFile(fsys, path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return format.Scan(path, data)
}

// appendWrite appends one deferred write as a batch of its own: the
// record and the trailer committing it.
func appendWrite(out *bytes.Buffer, rec Record) {
	start := out.Len()
	format.AppendRecord(out, currentVersion, encodeRecord(rec))
	format.AppendTrailer(out, currentVersion, 1, out.Bytes()[start:])
}

func encodeRecord(rec Record) []byte {
	out := make([]byte, 0, recHeaderLen+len(rec.Key)+4+len(rec.Body))
	out = append(out, recWrite)
	out = binary.LittleEndian.AppendUint64(out, rec.Seq)
	out = append(out, rec.Verb)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.Key)))
	out = append(out, rec.Key...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.Body)))
	return append(out, rec.Body...)
}

// recLen is the handoff vocabulary's frame.Format.RecLen.
func recLen(b []byte) int {
	if b[0] != recWrite {
		return -1
	}
	if len(b) < recHeaderLen {
		return 0
	}
	body := recHeaderLen + int(binary.LittleEndian.Uint32(b[10:])) + 4
	if len(b) < body {
		return 0
	}
	return body + int(binary.LittleEndian.Uint32(b[body-4:]))
}

// decodeRecord decodes a scanned write record; Body is copied out of the
// scanned image.
func decodeRecord(b []byte) Record {
	klen := int(binary.LittleEndian.Uint32(b[10:]))
	return Record{
		Seq:  binary.LittleEndian.Uint64(b[1:]),
		Verb: b[9],
		Key:  string(b[recHeaderLen : recHeaderLen+klen]),
		Body: append([]byte{}, b[recHeaderLen+klen+4:]...),
	}
}
