package ship

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Golden wire frames. The fixtures under testdata/ pin the bytes of
// Result and Submit frames as the protocol defines them: every encoder
// must reproduce them bit for bit, and every decoder must read them back
// into structs deeply equal to the ones they were written from. Only the
// exported API is used, so this file runs unchanged on either side of a
// codec change; -update rewrites the fixtures from the code under test
// (only when a wire change is intended, which also means a ProtoVersion
// bump).
var updateGolden = flag.Bool("update", false, "rewrite the golden wire frames from the code under test")

// goldenResults are the Result frames the corpus pins: each scalar kind,
// an empty table, a mixed-kind table with a ragged row, and the optional
// trailing blocks alone and together.
func goldenResults() map[string]*Result {
	info := ExecInfo{Steps: 73496, Micros: 1500, CacheHit: true, Shared: true, Rewrites: 12, Inlined: 3}
	return map[string]*Result{
		"result_nil":   {Val: WVal{Kind: WNil}},
		"result_int":   {Val: WVal{Kind: WInt, Int: -42}, Info: info},
		"result_real":  {Val: WVal{Kind: WReal, Real: math.Pi}},
		"result_bool":  {Val: WVal{Kind: WBool, Bool: true}},
		"result_char":  {Val: WVal{Kind: WChar, Ch: 'q'}},
		"result_str":   {Val: WVal{Kind: WStr, Str: "héllo\x00world"}},
		"result_ref":   {Val: WVal{Kind: WRef, Ref: 0xdeadbeef}},
		"result_root":  {Val: WVal{Kind: WRoot, Str: "rel:t"}},
		"result_empty": {Val: WVal{Kind: WRel, Rel: &WTable{Cols: []string{"id", "val"}}}, Info: info},
		"result_table": {Val: WVal{Kind: WRel, Rel: &WTable{
			Cols: []string{"name", "score", "link"},
			Rows: [][]WVal{
				{{Kind: WStr, Str: "ada"}, {Kind: WReal, Real: 2.5}, {Kind: WRef, Ref: 0x10}},
				{{Kind: WNil}, {Kind: WBool, Bool: false}, {Kind: WChar, Ch: 'z'}},
				{{Kind: WInt, Int: 1 << 40}, {Kind: WBool, Bool: true}}, // ragged
				{{Kind: WStr, Str: ""}, {Kind: WInt, Int: -1}, {Kind: WNil}},
			},
		}}, Info: info},
		"result_partial": {Val: WVal{Kind: WInt, Int: 42}, Info: info, Partial: true,
			Missing: []string{"shard1:[0x5555555555555556,0xaaaaaaaaaaaaaaac)", "shard2:[0,8)"}},
		"result_explain": {Val: WVal{Kind: WInt, Int: 3},
			Explain: "select algo=vector-fused table=t in=100 est=33 act=30"},
		"result_partial_explain": {Val: WVal{Kind: WRel, Rel: &WTable{
			Cols: []string{"c0"},
			Rows: [][]WVal{{{Kind: WInt, Int: 7}}},
		}}, Partial: true, Missing: []string{"shard0:[0,4)"}, Explain: "project algo=vector"},
	}
}

// goldenSubmits are the Submit frames the corpus pins: bindings of every
// kind a client sends, and each trailing optional with its carriers.
func goldenSubmits() map[string]*Submit {
	ptml := []byte{0x50, 0x54, 0x4d, 0x4c, 0x01, 0x02, 0x03}
	return map[string]*Submit{
		"submit_plain": {Name: "qs-project-rows", PTML: ptml},
		"submit_binds": {Name: "q", PTML: ptml, Optimize: true, Save: "saved", Binds: []WBind{
			{Name: "r", Val: WVal{Kind: WRoot, Str: "rel:emp"}},
			{Name: "n", Val: WVal{Kind: WInt, Int: 5}},
			{Name: "s", Val: WVal{Kind: WStr, Str: "x"}},
			{Name: "t", Val: WVal{Kind: WRel, Rel: &WTable{
				Cols: []string{"a", "b"},
				Rows: [][]WVal{{{Kind: WInt, Int: 1}, {Kind: WReal, Real: -0.5}}, {{Kind: WNil}}},
			}}},
		}},
		"submit_keyed":   {Name: "q", PTML: ptml, IdemKey: "c1-000000000007"},
		"submit_merge":   {PTML: ptml, Merge: MergeAll},
		"submit_explain": {Name: "q", PTML: ptml, IdemKey: "c1-9", Merge: MergeSum, Explain: true},
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

// goldenFrame encodes one message into a whole frame, checks it against
// its fixture, and returns the body the fixture's frame carries.
func goldenFrame(t *testing.T, name string, v Verb, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v, body); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name+".frame", buf.Bytes())
	raw, err := os.ReadFile(filepath.Join("testdata", name+".frame"))
	if err != nil {
		t.Fatal(err)
	}
	verb, got, err := ReadFrame(bytes.NewReader(raw), 0)
	if err != nil || verb != v {
		t.Fatalf("%s: fixture reads as %s, %v", name, verb, err)
	}
	return got
}

func TestGoldenResultFrames(t *testing.T) {
	for name, res := range goldenResults() {
		body, err := res.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeResult(goldenFrame(t, name, VResult, body))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, res)
		}
	}
}

func TestGoldenSubmitFrames(t *testing.T) {
	for name, sub := range goldenSubmits() {
		body, err := sub.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeSubmit(goldenFrame(t, name, VSubmit, body))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, sub) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, sub)
		}
	}
}
