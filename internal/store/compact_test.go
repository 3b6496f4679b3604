package store

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

func TestCompactReclaimsSupersededStates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.tyst")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var oid OID
	write(t, s, func(tx *Txn) {
		oid = tx.Alloc(&Array{Elems: []Val{IntVal(0)}})
		tx.SetRoot("a", oid)
	})
	// 200 committed updates → 200 superseded records.
	for i := 0; i < 200; i++ {
		write(t, s, func(tx *Txn) {
			if err := tx.Update(oid, &Array{Elems: []Val{IntVal(int64(i))}}); err != nil {
				t.Fatal(err)
			}
		})
	}
	before, err := s.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := s.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	if after*10 > before {
		t.Errorf("compaction reclaimed too little: %d → %d bytes", before, after)
	}
	// State intact in memory…
	if got := s.MustGet(oid).(*Array).Elems[0].Int; got != 199 {
		t.Errorf("live state lost: %d", got)
	}
	// …and further commits + reopen still work.
	next := alloc(t, s, &Blob{Bytes: []byte("post-compact")})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.MustGet(oid).(*Array).Elems[0].Int; got != 199 {
		t.Errorf("state lost after reopen: %d", got)
	}
	if got := s2.MustGet(next).(*Blob).Bytes; string(got) != "post-compact" {
		t.Errorf("post-compact commit lost: %q", got)
	}
	if r, ok := s2.Root("a"); !ok || r != oid {
		t.Error("root lost through compaction")
	}
}

func TestCompactInMemory(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	alloc(t, s, &Blob{})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.LogSize(); n != 0 {
		t.Errorf("in-memory LogSize = %d", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open(filepath.Join(t.TempDir(), "conc.tyst"))
	defer s.Close()
	var wg sync.WaitGroup
	oids := make([]OID, 16)
	for i := range oids {
		oids[i] = alloc(t, s, &Array{Elems: []Val{IntVal(0)}})
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				oid := oids[(g+i)%len(oids)]
				if _, err := s.Get(oid); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				tx := s.Begin()
				if err := tx.Update(oid, &Array{Elems: []Val{IntVal(int64(i))}}); err != nil {
					t.Errorf("Update: %v", err)
					tx.Abort()
					return
				}
				tx.SetRoot("g", oid)
				// Writers race on the root: losing to a first committer
				// is the expected outcome, anything else is a fault.
				if err := tx.Commit(); err != nil && !errors.Is(err, ErrConflict) {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
