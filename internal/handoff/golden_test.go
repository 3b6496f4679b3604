package handoff

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycoon/internal/iofault"
)

// Golden on-disk bytes, as in internal/store: the fixtures were written
// by the commit that preceded the shared internal/frame package and pin
// both the bytes this package writes and how it reads every truncation
// and single-byte flip of them (tycfsck -handoff prints the reasons).
var updateGolden = flag.Bool("update", false, "rewrite the golden log fixtures from the code under test")

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

// describeLog renders Verify's answer for one image, path elided.
func describeLog(t *testing.T, img []byte) string {
	t.Helper()
	fs := iofault.NewMemFS(nil)
	f, err := fs.OpenFile(testPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(img); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := Verify(fs, testPath)
	if err != nil {
		return "error: " + strings.ReplaceAll(err.Error(), testPath, "PATH")
	}
	s := fmt.Sprintf("v%d size=%d records=%d pending=%d uncommitted=%d torn=%d",
		rep.Version, rep.Size, rep.Records, rep.Pending, rep.Uncommitted, rep.TornTailOffset)
	if d := rep.Damage; d != nil {
		s += fmt.Sprintf(" damage@%d %q", d.Offset, d.Reason)
	}
	return s
}

func scanSweep(t *testing.T, img []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	fmt.Fprintf(&out, "whole: %s\n", describeLog(t, img))
	for n := 0; n < len(img); n++ {
		fmt.Fprintf(&out, "cut %d: %s\n", n, describeLog(t, img[:n]))
	}
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xff
		fmt.Fprintf(&out, "flip %d: %s\n", i, describeLog(t, mut))
	}
	return out.Bytes()
}

// TestGoldenLogBytes pins three appends (the append path: header rides
// the first record) and the image TruncatePrefix(1) rewrites them to.
func TestGoldenLogBytes(t *testing.T) {
	fs := iofault.NewMemFS(nil)
	l, err := Open(fs, testPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, 9, "k-submit", []byte("submit body"))
	mustAppend(t, l, 7, "", []byte{})
	mustAppend(t, l, 9, "k-third", bytes.Repeat([]byte{0xa5}, 40))
	appended, err := fs.ReadFile(testPath)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_appended.hlog", appended)
	checkGolden(t, "golden_appended.scan", scanSweep(t, appended))

	if err := l.TruncatePrefix(1); err != nil {
		t.Fatal(err)
	}
	trimmed, err := fs.ReadFile(testPath)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_trimmed.hlog", trimmed)
	if recs := l.Snapshot(); len(recs) != 2 || recs[0].Seq != 2 || recs[1].Key != "k-third" {
		t.Fatalf("after trim: %+v", recs)
	}
}
