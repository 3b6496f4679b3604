package store

import (
	"fmt"
	"os"

	"tycoon/internal/frame"
)

// Compact rewrites the log so that it contains exactly one record per
// live object plus the root table. A log-structured store accumulates one
// record per committed object state (last-writer-wins on replay), so
// long-lived stores — the paper's systems run for years; the Tycoon
// system state is itself persistent — periodically reclaim the
// superseded states. Compaction always writes the current log format, so
// it doubles as the migration path for v1 logs.
//
// The rewrite goes through a temporary file in the same directory and
// replaces the log atomically with an fsynced rename; a crash during
// compaction leaves either the original or the fully written replacement,
// never a mix. Open transactions are not part of the image: they
// publish later, by appending to the rewritten log as any commit does.
// In-memory stores compact trivially.
// Compaction never blocks snapshot readers: it rewrites only the on-disk
// image, and the in-memory version chains open snapshots read are
// untouched. Commit records still queued with the group committer are
// absorbed — their object states are part of the rewritten image, which
// is strictly more durable than appending them — and their waiters are
// released as flushed.
func (s *Store) Compact() error {
	// fileMu first: a concurrent group-commit flush finishes before the
	// rewrite starts, and any commit staged after the state snapshot below
	// blocks on fileMu until the new file handle is in place.
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	// Absorb the queued backlog: everything staged so far was published to
	// the in-memory state the image below is encoded from.
	s.cm.absorb()

	if err := frame.ReplaceFile(s.fsys, s.path, s.path+".compact", encodeFullLog(s.objects, s.roots)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// Reopen the handle on the new file.
	old := s.file
	f, err := s.fsys.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact reopen: %w", err)
	}
	old.Close()
	s.file = f
	s.version = currentVersion
	return nil
}

// LogSize reports the current on-disk log size in bytes (0 for in-memory
// stores); benchmarks use it to show compaction reclaiming space.
func (s *Store) LogSize() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.file == nil {
		return 0, nil
	}
	info, err := s.file.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Version reports the on-disk log format version (v1 logs keep appending
// v1 records until Compact migrates them; in-memory stores report the
// current version).
func (s *Store) Version() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}
