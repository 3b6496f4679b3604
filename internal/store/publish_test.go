package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"tycoon/internal/iofault"
)

// publishRows opens relation "rel:r" in tx, publishes it, then appends
// and publishes rows 0…n-1 one at a time; it returns the relation.
func publishRows(t *testing.T, tx *Txn, n int) OID {
	t.Helper()
	rel := tx.Alloc(&Relation{Name: "r", Schema: []Column{{Name: "id", Type: ColInt}}})
	tx.SetRoot("rel:r", rel)
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tx.MustGet(rel).(*Relation).AppendRow([]Val{IntVal(int64(i))})
		tx.MarkDirty(rel)
		if err := tx.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// TestPublishVisibleThenDurable: a publication is visible to every later
// snapshot at once, isolated until then, and durable only after a flush:
// another writer's commit flushes the publications before it, and a
// crash loses the ones after it, whole, unless Flush ran.
func TestPublishVisibleThenDurable(t *testing.T) {
	for _, flush := range []bool{false, true} {
		fs := iofault.NewMemFS(iofault.NewInjector(1))
		s, err := OpenFS(fs, crashPath)
		if err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		rel := publishRows(t, tx, 5)
		if oid, ok := s.Root("rel:r"); !ok || oid != rel {
			t.Fatalf("store resolves rel:r to %v, %v; want %v", oid, ok, rel)
		}
		before := s.Snapshot()
		tx.MustGet(rel).(*Relation).AppendRow([]Val{IntVal(5)})
		tx.MarkDirty(rel)
		if n := s.MustGet(rel).(*Relation).NumRows(); n != 5 {
			t.Errorf("an unpublished row is visible: %d rows, want 5", n)
		}
		// Another writer's append between publications merges.
		appendRow(t, s, rel, []Val{IntVal(100)})
		if err := tx.Publish(); err != nil {
			t.Fatal(err)
		}
		obj, err := before.Get(rel)
		if err != nil {
			t.Fatal(err)
		}
		if n := obj.(*Relation).NumRows(); n != 5 {
			t.Errorf("a snapshot opened before the publication sees %d rows, want 5", n)
		}
		before.Release()
		if n := s.MustGet(rel).(*Relation).NumRows(); n != 7 {
			t.Errorf("store holds %d rows after the publication, want 7", n)
		}
		tx.Abort()
		if flush {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}

		fs.Crash()
		re, err := OpenFS(fs, crashPath)
		if err != nil {
			t.Fatal(err)
		}
		want := 6 // the five published rows and the committed one
		if flush {
			want = 7
		}
		got := 0
		if oid, ok := re.Root("rel:r"); ok {
			got = re.MustGet(oid).(*Relation).NumRows()
		}
		if got != want {
			t.Errorf("flush=%v: %d rows survive the crash, want %d", flush, got, want)
		}
		re.Close()
	}
}

// TestPublishFlushesInCommitOrder: a commit that waits for durability
// makes every publication before it durable too, so a crash never keeps
// a commit and loses a publication it could have read.
func TestPublishFlushesInCommitOrder(t *testing.T) {
	fs := iofault.NewMemFS(iofault.NewInjector(1))
	s, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	x := tx.Alloc(&Blob{Bytes: []byte("x")})
	tx.SetRoot("x", x)
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	y := alloc(t, s, &Blob{Bytes: []byte("y")})
	fs.Crash()
	re, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, oid := range []OID{x, y} {
		if _, err := re.Get(oid); err != nil {
			t.Errorf("after the commit and a crash: %v", err)
		}
	}
	if _, ok := re.Root("x"); !ok {
		t.Error("the published root did not survive the commit after it")
	}
}

// TestPublishRowByRowLogsLikeOneCommit: a relation published row by row
// and then flushed leaves the same log bytes as the same rows committed
// in one transaction: the flush logs each object's newest state once.
func TestPublishRowByRowLogsLikeOneCommit(t *testing.T) {
	dir := t.TempDir()
	const rows = 200
	one, err := Open(filepath.Join(dir, "one.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	write(t, one, func(tx *Txn) {
		rel := tx.Alloc(&Relation{Name: "r", Schema: []Column{{Name: "id", Type: ColInt}}})
		tx.SetRoot("rel:r", rel)
		for i := 0; i < rows; i++ {
			tx.MustGet(rel).(*Relation).AppendRow([]Val{IntVal(int64(i))})
		}
	})
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}

	many, err := Open(filepath.Join(dir, "many.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	tx := many.Begin()
	publishRows(t, tx, rows)
	tx.Abort()
	if st := many.TxStats(); st.Committed != rows+1 || st.Backlog != 1 {
		t.Errorf("stats after %d publications = %+v, want %d committed in one queued request", rows+1, st, rows+1)
	}
	if err := many.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(filepath.Join(dir, "one.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "many.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("row-by-row log is %d bytes, one commit's %d bytes; want identical", len(b), len(a))
	}
}

// TestPublishConflictFinishes: a publication that loses first-committer-
// wins rolls back its writes and finishes the transaction.
func TestPublishConflictFinishes(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	oid := alloc(t, s, &Blob{Bytes: []byte("a")})
	tx := s.Begin()
	if err := tx.Update(oid, &Blob{Bytes: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	write(t, s, func(other *Txn) {
		if err := other.Update(oid, &Blob{Bytes: []byte("c")}); err != nil {
			t.Fatal(err)
		}
	})
	if err := tx.Publish(); !errors.Is(err, ErrConflict) {
		t.Fatalf("publish err = %v, want ErrConflict", err)
	}
	if got := string(s.MustGet(oid).(*Blob).Bytes); got != "c" {
		t.Errorf("store holds %q, want the first committer's c", got)
	}
	if err := tx.Commit(); err == nil {
		t.Error("commit after a failed publication succeeded")
	}
	if open := s.TxStats().OpenSnapshots; open != 0 {
		t.Errorf("%d snapshots open after the failed publication", open)
	}
}

// TestPublishedRowsAreCapped: a publication hands its transaction's rows
// to the live relation capped at their length, so a commit that merges
// another transaction's append into the relation never writes into the
// array the publisher goes on appending to.
func TestPublishedRowsAreCapped(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rel := alloc(t, s, &Relation{Name: "r", Schema: []Column{{Name: "n", Type: ColInt}}})
	appendTo := func(tx *Txn, ns ...int64) {
		for _, n := range ns {
			tx.MustGet(rel).(*Relation).AppendRow([]Val{IntVal(n)})
		}
		tx.MarkDirty(rel)
	}
	u := s.Begin()
	appendTo(u, 300)
	tx := s.Begin()
	appendTo(tx, 1, 2, 3)
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	appendTo(tx, 200)
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range s.MustGet(rel).(*Relation).RowsSnapshot() {
		got = append(got, row[0].Int)
	}
	if want := []int64{1, 2, 3, 300, 200}; !slices.Equal(got, want) {
		t.Errorf("relation reads %v, want %v", got, want)
	}
}

// blockingFS is a MemFS whose files' Sync, once armed, signals entered
// and then waits for release: it holds a group-commit leader mid-flush.
type blockingFS struct {
	*iofault.MemFS
	armed            atomic.Bool
	entered, release chan struct{}
}

type blockingFile struct {
	iofault.File
	fs *blockingFS
}

func (fs *blockingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := fs.MemFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return blockingFile{File: f, fs: fs}, nil
}

func (f blockingFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestPublishDuringFlushIsLogged: a publication staged while a leader is
// flushing the queue gets a request of its own instead of joining the
// one being written, whose records are already encoded; so Close makes it
// durable.
func TestPublishDuringFlushIsLogged(t *testing.T) {
	fs := &blockingFS{MemFS: iofault.NewMemFS(iofault.NewInjector(1)),
		entered: make(chan struct{}), release: make(chan struct{})}
	s, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	committed := make(chan error, 1)
	go func() {
		tx := s.Begin()
		tx.SetRoot("first", tx.Alloc(&Blob{Bytes: []byte("first")}))
		committed <- tx.Commit()
	}()
	<-fs.entered
	tx := s.Begin()
	tx.SetRoot("second", tx.Alloc(&Blob{Bytes: []byte("second")}))
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	close(fs.release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFS(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range []string{"first", "second"} {
		if _, ok := re.Root(name); !ok {
			t.Errorf("root %s is lost after Close and a reopen", name)
		}
	}
}
