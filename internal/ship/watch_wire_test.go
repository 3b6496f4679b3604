package ship

import (
	"reflect"
	"testing"
)

// TestWatchRoundTrip pins the WATCH message codecs: encode → decode is
// the identity for representative messages of all three verbs.
func TestWatchRoundTrip(t *testing.T) {
	watches := []*Watch{
		{Patterns: []string{"*"}},
		{Patterns: []string{"srv:*", "module:demo"}, SinceCSN: 981},
	}
	for _, m := range watches {
		got, err := DecodeWatch(m.Encode())
		if err != nil {
			t.Fatalf("watch %v: %v", m.Patterns, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("watch round-trip: got %+v, want %+v", got, m)
		}
	}

	ok := &WatchOK{CSN: 1 << 40}
	gotOK, err := DecodeWatchOK(ok.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *gotOK != *ok {
		t.Fatalf("watch-ok round-trip: got %+v, want %+v", gotOK, ok)
	}

	notifies := []*Notify{
		{Root: "srv:ans", OID: 0x1234, CSN: 77},
		{Root: "pair:0:a", OID: 9, CSN: 78, More: true},
	}
	for _, m := range notifies {
		got, err := DecodeNotify(m.Encode())
		if err != nil {
			t.Fatalf("notify %q: %v", m.Root, err)
		}
		if *got != *m {
			t.Fatalf("notify round-trip: got %+v, want %+v", got, m)
		}
	}
}

// TestWatchTrailingFields pins the optional-trailing-field compat
// discipline for the new messages, the same contract the Merge/Partial
// tests pin for Submit and Result: frames WITHOUT the new fields — what
// an older peer sends — decode to the zero defaults, and encoders omit
// the fields when they hold those defaults.
func TestWatchTrailingFields(t *testing.T) {
	// A Watch without SinceCSN must not spend bytes on it...
	short := (&Watch{Patterns: []string{"a"}}).Encode()
	long := (&Watch{Patterns: []string{"a"}, SinceCSN: 5}).Encode()
	if len(short) >= len(long) {
		t.Fatalf("zero SinceCSN not omitted: %d vs %d bytes", len(short), len(long))
	}
	// ...and an old-style frame (patterns only) must decode with zero.
	m, err := DecodeWatch(appendStr(appendU32(nil, 1), "srv:*"))
	if err != nil {
		t.Fatalf("old watch frame: %v", err)
	}
	if m.SinceCSN != 0 || len(m.Patterns) != 1 || m.Patterns[0] != "srv:*" {
		t.Fatalf("old watch frame decoded as %+v", m)
	}

	// A Notify without More likewise: omitted when false, and an
	// old-style frame (root, oid, csn only) decodes as a single-change
	// commit — exactly what a server predating batches sends.
	nShort := (&Notify{Root: "r", OID: 1, CSN: 2}).Encode()
	nLong := (&Notify{Root: "r", OID: 1, CSN: 2, More: true}).Encode()
	if len(nShort) >= len(nLong) {
		t.Fatalf("false More not omitted: %d vs %d bytes", len(nShort), len(nLong))
	}
	n, err := DecodeNotify(appendU64(appendU64(appendStr(nil, "srv:x"), 7), 8))
	if err != nil {
		t.Fatalf("old notify frame: %v", err)
	}
	if n.More || n.Root != "srv:x" || n.OID != 7 || n.CSN != 8 {
		t.Fatalf("old notify frame decoded as %+v", n)
	}
}

// TestWatchVerbNames pins the verb bytes and names: the wire values are
// protocol constants, not implementation details.
func TestWatchVerbNames(t *testing.T) {
	cases := []struct {
		v    Verb
		b    byte
		name string
	}{
		{VWatch, 16, "watch"},
		{VWatchOK, 17, "watch-ok"},
		{VNotify, 18, "notify"},
	}
	for _, c := range cases {
		if byte(c.v) != c.b {
			t.Fatalf("%s = %d, want %d", c.name, byte(c.v), c.b)
		}
		if c.v.String() != c.name {
			t.Fatalf("verb %d named %q, want %q", c.b, c.v.String(), c.name)
		}
	}
}

// TestWatchDecodeRejectsGarbage: truncated or trailing-garbage bodies
// fail with FrameErrors, never panic or silently succeed.
func TestWatchDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeWatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated watch decoded")
	}
	if _, err := DecodeNotify([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("absurd notify decoded")
	}
	good := (&Notify{Root: "r", OID: 1, CSN: 2, More: true}).Encode()
	if _, err := DecodeNotify(append(good, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestMatchRoot pins the pattern language: '*' spans any run, all else
// is literal.
func TestMatchRoot(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"*", "anything:at:all", true},
		{"*", "", true},
		{"srv:*", "srv:ans", true},
		{"srv:*", "srv:", true},
		{"srv:*", "module:demo", false},
		{"srv:a*b", "srv:ab", true},
		{"srv:a*b", "srv:axxxb", true},
		{"srv:a*b", "srv:axxx", false},
		{"*:demo", "module:demo", true},
		{"a*c*e", "abcde", true},
		{"a*c*e", "abde", false},
		{"exact", "exact", true},
		{"exact", "exact!", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := MatchRoot(c.pat, c.name); got != c.want {
			t.Fatalf("MatchRoot(%q, %q) = %t, want %t", c.pat, c.name, got, c.want)
		}
	}
}
