package store

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden on-disk bytes. The fixtures under testdata/ were written by the
// commit that preceded the shared internal/frame package; the framing
// code must keep producing them bit for bit and must keep reading them —
// and every truncation and every single-byte flip of them — exactly as
// that commit did (the reason strings are what tycfsck prints). Only the
// exported API is used, so this file runs unchanged on either side of a
// framing change; -update rewrites the fixtures from the code under test.
var updateGolden = flag.Bool("update", false, "rewrite the golden log fixtures from the code under test")

// buildGoldenV2 drives the fixed workload the v2 fixture pins: objects
// of three kinds plus a root, in two commits.
func buildGoldenV2(t *testing.T, path string) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blob := s.Alloc(&Blob{Bytes: []byte("persistent")})
	tup := s.Alloc(&Tuple{Fields: []Val{IntVal(7), StrVal("x"), RefVal(blob)}})
	s.SetRoot("golden", tup)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	arr := s.Alloc(&Array{Elems: []Val{BoolVal(true), RealVal(1.5), NilVal()}})
	if err := s.Update(blob, &Blob{Bytes: []byte("intermediate code")}); err != nil {
		t.Fatal(err)
	}
	s.SetRoot("second", arr)
	if err := s.Close(); err != nil { // Close commits the second batch
		t.Fatal(err)
	}
}

// appendToV1 reopens a v1 image and commits one more object and root:
// v1 logs keep being appended to in v1 format.
func appendToV1(t *testing.T, path string) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	oid := s.Alloc(&Blob{Bytes: []byte("appended")})
	s.SetRoot("late", oid)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkGolden compares got with the fixture (or rewrites it).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes differ from the %d-byte fixture\n got %x\nwant %x", name, len(got), len(want), got, want)
	}
}

// describeLog renders VerifyLog's answer for one image without the path,
// which is the only part that legitimately varies.
func describeLog(t *testing.T, dir string, img []byte) string {
	t.Helper()
	path := filepath.Join(dir, "probe.tyst")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyLog(path)
	if err != nil {
		return "error: " + strings.ReplaceAll(err.Error(), path, "PATH")
	}
	s := fmt.Sprintf("v%d size=%d records=%d batches=%d uncommitted=%d torn=%d",
		rep.Version, rep.Size, rep.Records, rep.Batches, rep.Uncommitted, rep.TornTailOffset)
	if d := rep.Damage; d != nil {
		s += fmt.Sprintf(" damage@%d oid=0x%x %q", d.Offset, uint64(d.OID), d.Reason)
	}
	return s
}

// scanSweep describes the image itself, every proper prefix of it and
// every single-byte corruption of it.
func scanSweep(t *testing.T, img []byte) []byte {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	fmt.Fprintf(&out, "whole: %s\n", describeLog(t, dir, img))
	for n := 0; n < len(img); n++ {
		fmt.Fprintf(&out, "cut %d: %s\n", n, describeLog(t, dir, img[:n]))
	}
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xff
		fmt.Fprintf(&out, "flip %d: %s\n", i, describeLog(t, dir, mut))
	}
	return out.Bytes()
}

func TestGoldenV2LogBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.tyst")
	buildGoldenV2(t, path)
	img := readAll(t, path)
	checkGolden(t, "golden_v2.tyst", img)
	checkGolden(t, "golden_v2.scan", scanSweep(t, img))
}

func TestGoldenV1LogReadAndAppend(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "golden_v1.tyst"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_v1.scan", scanSweep(t, v1))
	path := filepath.Join(t.TempDir(), "v1.tyst")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	appendToV1(t, path)
	checkGolden(t, "golden_v1_appended.tyst", readAll(t, path))

	s, err := Open(path)
	if err != nil {
		t.Fatalf("appended v1 log unreadable: %v", err)
	}
	defer s.Close()
	if s.Version() != 1 || s.Len() != 3 || len(s.Roots()) != 2 {
		t.Fatalf("v1 replay: version %d, %d objects, roots %v", s.Version(), s.Len(), s.Roots())
	}
}
