// Package frame owns the append-log format shared by the two durable
// logs of the system — the store log (internal/store) and the
// coordinator's write-ahead handoff logs (internal/handoff). A log is
//
//	header:  8-byte magic, u32 version
//	record:  u8 tag, payload…, u32 crc     (the owner's vocabulary)
//	commit:  u8 tag 3, u32 count, u32 size, u32 crc
//
// Every record's CRC32C (Castagnoli) covers the record bytes from its
// tag up to (not including) the CRC. A commit trailer closes the batch of
// records written since the previous trailer (or the header): count is
// the number of records in the batch, size their total byte length, and
// the trailer CRC covers the trailer's first nine bytes followed by the
// raw batch bytes. A reader applies a batch only when its trailer checks
// out, so a crash between the records of one batch rolls the whole batch
// back. All integers are little-endian.
//
// Reading distinguishes two failure classes:
//
//   - a *torn tail* — a record or trailer that runs past end-of-file, or
//     a file that is a proper prefix of the header — is the normal
//     artifact of a crash mid-append and is reported, not failed;
//   - *damage* — a CRC mismatch, an unknown tag or an inconsistent
//     trailer in the body of the log — is reported with its offset so the
//     owner can fail loud.
//
// The owners keep what is theirs: the record payloads (object/root vs.
// seq/verb/key/body), which versions exist, and the policy on a torn
// tail or damage. Versions below Format.Framed are the store's legacy v1:
// bare records, no checksums, no trailers, each record its own commit.
package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"tycoon/internal/iofault"
)

const (
	// TagCommit is the commit trailer's tag, reserved in every vocabulary.
	TagCommit byte = 3

	HeaderLen  = 12 // magic + version
	CRCLen     = 4
	TrailerLen = 13 // tag + count + size + crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Format is one log vocabulary: everything Scan and the writers need to
// know about an owner.
type Format struct {
	Magic [8]byte
	// Pkg prefixes error messages ("store"); What names the file kind in
	// them ("a Tycoon store").
	Pkg, What string
	// Current is the version new logs are written in (and an empty file
	// is reported as); Oldest is the lowest version still readable.
	// Versions below Framed carry neither checksums nor trailers.
	Current, Oldest, Framed uint32
	// RecLen reports the length of the record starting at b[0] — tag
	// through payload, without the CRC. It returns 0 when b is too short
	// to tell (a torn tail) and a negative value for a tag the vocabulary
	// does not know. len(b) > 0 always.
	RecLen func(b []byte) int
}

// Span is one structurally valid record found by Scan. Rec aliases the
// scanned buffer: the record from its tag through its payload, CRC
// excluded.
type Span struct {
	Off int64
	Rec []byte
	// Committed reports that the record's batch has a valid trailer
	// (always true in unframed versions).
	Committed bool
}

// Damage is the first corruption Scan met in the body of a log.
type Damage struct {
	Off    int64
	Reason string
	// Rec is the record whose own checksum failed, nil for any other
	// damage; its header is intact enough to have given a length.
	Rec []byte
}

// Scanned is the structural parse of a log image.
type Scanned struct {
	Version uint32
	Size    int64
	Recs    []Span
	Batches int // completed batches
	// Uncommitted counts trailing records with no commit trailer, when
	// the scan reached the end of the image.
	Uncommitted int
	TornOff     int64   // offset of a torn tail; -1 if none
	Damage      *Damage // nil if clean
}

// Scan structurally parses a log image: framing and checksums, no
// payload decoding. It fails only for files that are not logs of this
// format at all; a torn tail or damage within a well-headed log is
// reported in the result, and the records preceding it are returned.
func (f *Format) Scan(path string, data []byte) (*Scanned, error) {
	sc := &Scanned{Version: f.Current, Size: int64(len(data)), TornOff: -1}
	if len(data) == 0 {
		return sc, nil
	}
	if n := min(len(data), len(f.Magic)); !bytes.Equal(data[:n], f.Magic[:n]) {
		return nil, fmt.Errorf("%s: %s is not %s", f.Pkg, path, f.What)
	}
	if len(data) < HeaderLen {
		// A proper prefix of the header is the torn remnant of a crash
		// during the very first append (header and first batch go out in
		// one write): an empty log.
		sc.TornOff = 0
		return sc, nil
	}
	sc.Version = binary.LittleEndian.Uint32(data[8:12])
	if sc.Version < f.Oldest || sc.Version > f.Current {
		return nil, fmt.Errorf("%s: %s has unsupported format version %d", f.Pkg, path, sc.Version)
	}
	framed := sc.Version >= f.Framed
	size := int64(len(data))
	pos := int64(HeaderLen)
	batchStart := pos
	pendingFrom := 0 // index in sc.Recs of the current batch's first record
	for pos < size {
		if data[pos] == TagCommit {
			if !framed {
				sc.Damage = &Damage{Off: pos, Reason: fmt.Sprintf("commit trailer in a v%d log", sc.Version)}
				return sc, nil
			}
			if pos+TrailerLen > size {
				sc.TornOff = pos
				return sc, nil
			}
			count := int(binary.LittleEndian.Uint32(data[pos+1:]))
			bsize := int64(binary.LittleEndian.Uint32(data[pos+5:]))
			want := binary.LittleEndian.Uint32(data[pos+9:])
			crc := crc32.Checksum(data[pos:pos+9], crcTable)
			crc = crc32.Update(crc, crcTable, data[batchStart:pos])
			found := len(sc.Recs) - pendingFrom
			switch {
			case crc != want:
				sc.Damage = &Damage{Off: pos, Reason: "commit trailer checksum mismatch"}
			case count != found:
				sc.Damage = &Damage{Off: pos, Reason: fmt.Sprintf("commit trailer frames %d records, found %d", count, found)}
			case bsize != pos-batchStart:
				sc.Damage = &Damage{Off: pos, Reason: fmt.Sprintf("commit trailer frames %d bytes, found %d", bsize, pos-batchStart)}
			}
			if sc.Damage != nil {
				return sc, nil
			}
			for i := pendingFrom; i < len(sc.Recs); i++ {
				sc.Recs[i].Committed = true
			}
			sc.Batches++
			pos += TrailerLen
			batchStart = pos
			pendingFrom = len(sc.Recs)
			continue
		}
		n := int64(f.RecLen(data[pos:]))
		if n < 0 {
			sc.Damage = &Damage{Off: pos, Reason: fmt.Sprintf("unknown record tag %d", data[pos])}
			return sc, nil
		}
		end := pos + n
		if framed {
			end += CRCLen
		}
		if n == 0 || end > size {
			sc.TornOff = pos
			return sc, nil
		}
		rec := data[pos : pos+n]
		if framed && crc32.Checksum(rec, crcTable) != binary.LittleEndian.Uint32(data[pos+n:]) {
			sc.Damage = &Damage{Off: pos, Reason: "record checksum mismatch", Rec: rec}
			return sc, nil
		}
		sc.Recs = append(sc.Recs, Span{Off: pos, Rec: rec, Committed: !framed})
		pos = end
	}
	if framed {
		sc.Uncommitted = len(sc.Recs) - pendingFrom
	}
	return sc, nil
}

// --- writing ---------------------------------------------------------------

// AppendHeader writes the magic and version.
func (f *Format) AppendHeader(out *bytes.Buffer, version uint32) {
	out.Write(f.Magic[:])
	var vb [4]byte
	binary.LittleEndian.PutUint32(vb[:], version)
	out.Write(vb[:])
}

// AppendRecord writes one record, adding its CRC in framed versions.
func (f *Format) AppendRecord(out *bytes.Buffer, version uint32, rec []byte) {
	out.Write(rec)
	if version >= f.Framed {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], crc32.Checksum(rec, crcTable))
		out.Write(b[:])
	}
}

// AppendTrailer closes a batch of count records spanning the batch
// bytes; unframed versions have no trailers and get none. batch may
// alias bytes already written to out. The trailer head is checksummed
// from out's buffer, not from the stack: crc32 leaks its argument, and a
// local array passed to it would cost every commit a heap allocation.
func (f *Format) AppendTrailer(out *bytes.Buffer, version uint32, count int, batch []byte) {
	if version < f.Framed {
		return
	}
	var head [TrailerLen - CRCLen]byte
	head[0] = TagCommit
	binary.LittleEndian.PutUint32(head[1:], uint32(count))
	binary.LittleEndian.PutUint32(head[5:], uint32(len(batch)))
	at := out.Len()
	out.Write(head[:])
	crc := crc32.Checksum(out.Bytes()[at:], crcTable)
	var sum [CRCLen]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(crc, crcTable, batch))
	out.Write(sum[:])
}

// --- files -----------------------------------------------------------------

// ReadFile slurps a log file. A missing file is an error wrapping
// os.ErrNotExist; owners for which that is an empty log test for it.
func (f *Format) ReadFile(fsys iofault.FS, path string) ([]byte, error) {
	file, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: open %s: %w", f.Pkg, path, err)
	}
	defer file.Close()
	data, err := io.ReadAll(file)
	if err != nil {
		return nil, fmt.Errorf("%s: read %s: %w", f.Pkg, path, err)
	}
	return data, nil
}

// WriteFileSync writes data to a fresh file at path and syncs it.
func WriteFileSync(fsys iofault.FS, path string, data []byte) error {
	file, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := file.Write(data); err != nil {
		file.Close()
		return err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// ReplaceFile atomically replaces the file at path with data: the image
// is written and synced at tmp (same directory), renamed over path, and
// the directory synced — the rename is durable only once the directory
// entry is. A crash at any point leaves either the old file or the new
// one, never a blend.
func ReplaceFile(fsys iofault.FS, path, tmp string, data []byte) error {
	if err := WriteFileSync(fsys, tmp, data); err != nil {
		_ = fsys.Remove(tmp) // best effort: the leftover is harmless
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("rename %s: %w", tmp, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("sync dir of %s: %w", path, err)
	}
	return nil
}
