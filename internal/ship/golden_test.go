package ship

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Golden wire frames. The fixtures under testdata/ pin the bytes of
// every binary message as the protocol defines them: every encoder must
// reproduce them bit for bit, and every decoder must read them back into
// messages deeply equal to the ones they were written from. -update
// rewrites the fixtures from the code under test (only when a wire
// change is intended, which also means a ProtoVersion bump).
var updateGolden = flag.Bool("update", false, "rewrite the golden wire frames from the code under test")

// goldenResults are the Result frames the corpus pins: each scalar kind,
// an empty table, a mixed-kind table with a ragged row, and the optional
// trailing groups alone and together.
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

// goldenOthers are the frames of the other binary messages: each in a
// typical shape, with every optional trailing field both absent and
// present, and every list both empty and not.
func goldenOthers() map[string]any {
	return map[string]any{
		"hello":         &Hello{Version: ProtoVersion, Client: "tycsh"},
		"welcome":       &Welcome{Version: ProtoVersion, Server: "tycd", Session: 17},
		"install_plain": &Install{Source: "module m export f\nlet f() : Int = 42\nend"},
		"install_keyed": &Install{Source: "module m end", IdemKey: "c1-000000000008"},
		"call_args": &Call{Module: "m", Fn: "f", Args: []WVal{
			{Kind: WInt, Int: 20},
			{Kind: WStr, Str: "x"},
			{Kind: WRoot, Str: "rel:emp"},
			{Kind: WRel, Rel: &WTable{Cols: []string{"a"}, Rows: [][]WVal{{{Kind: WBool, Bool: true}}}}},
		}},
		"call_saved":  &Call{Fn: "ans"},
		"optimize":    &Optimize{Module: "m", Fn: "f"},
		"error_plain": &WireError{Code: CodeExec, Msg: "boom"},
		"error_retry": &WireError{Code: CodeOverloaded, Msg: "busy", RetryAfterMs: 250},
		"watch_plain": &Watch{Patterns: []string{"srv:*", "module:demo"}},
		"watch_since": &Watch{Patterns: []string{"*"}, SinceCSN: 981},
		"watch_ok":    &WatchOK{CSN: 1 << 40},
		"notify_last": &Notify{Root: "srv:ans", OID: 0x1234, CSN: 77},
		"notify_more": &Notify{Root: "pair:0:a", OID: 9, CSN: 78, More: true},
		"sync_empty":  &Sync{},
		"sync_items": &Sync{Items: []ShipItem{
			{Verb: VSubmit, Body: []byte{1, 0, 0, 0, 'q', 0xff}},
			{Verb: VInstall},
		}},
		"sync_ok":       &SyncOK{Applied: 2},
		"digest_all":    &Digest{},
		"digest_prefix": &Digest{Prefix: "srv:"},
		"digest_ok": &DigestOK{CSN: 42, Epoch: 7, Roots: []RootDigest{
			{Name: "rows", Digest: "00ff00ff"},
			{Name: "srv:q", Digest: "deadbeef"},
		}},
		"digest_ok_empty": &DigestOK{CSN: 1, Epoch: 1},
	}
}

// goldenMessages is the whole corpus by fixture name.
func goldenMessages() map[string]any {
	out := goldenOthers()
	for name, m := range goldenResults() {
		out[name] = m
	}
	for name, m := range goldenSubmits() {
		out[name] = m
	}
	return out
}

// verbOf is the verb whose row carries messages of m's type.
func verbOf(t *testing.T, m any) Verb {
	t.Helper()
	for v, row := range verbs {
		if row.msg != nil && reflect.TypeOf(row.msg()) == reflect.TypeOf(m) {
			return Verb(v)
		}
	}
	t.Fatalf("no verb carries a %T", m)
	return 0
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

// roundTripGolden checks that every message of corpus encodes to its
// fixture and that the fixture decodes back to the message.
func roundTripGolden[M any](t *testing.T, corpus map[string]M) {
	t.Helper()
	for name, m := range corpus {
		v := verbOf(t, m)
		body, err := encode(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := verbs[v].msg()
		if err := decode(goldenFrame(t, name, v, body), got); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, any(m)) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, m)
		}
	}
}

func TestGoldenResultFrames(t *testing.T) { roundTripGolden(t, goldenResults()) }

func TestGoldenSubmitFrames(t *testing.T) { roundTripGolden(t, goldenSubmits()) }

// TestGoldenFrames: the other golden messages round-trip through their
// fixtures too; every codec verb has a fixture, and every fixture a
// message.
func TestGoldenFrames(t *testing.T) {
	roundTripGolden(t, goldenOthers())
	corpus := goldenMessages()
	covered := map[Verb]bool{}
	for _, m := range corpus {
		covered[verbOf(t, m)] = true
	}
	for v, row := range verbs {
		if row.body == bodyCodec && !covered[Verb(v)] {
			t.Errorf("verb %s has no golden frame", Verb(v))
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.frame"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, ok := corpus[strings.TrimSuffix(filepath.Base(p), ".frame")]; !ok {
			t.Errorf("fixture %s has no golden message", p)
		}
	}
}

// TestVerbTableConformance reads the Verb constants and the message types
// codec.layout handles from the package source, so that neither a new
// verb nor a new message can slip past the verb table: every verb has
// one named row, and the codec rows are exactly the laid-out messages,
// one verb each.
func TestVerbTableConformance(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []Verb
	laidOut := map[string]bool{}
	for _, f := range pkgs["ship"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				if id, ok := n.Type.(*ast.Ident); ok && id.Name == "Verb" {
					for _, v := range n.Values {
						lit, ok := v.(*ast.BasicLit)
						if !ok {
							t.Fatalf("Verb constant at %s is not a literal", fset.Position(v.Pos()))
						}
						b, err := strconv.Atoi(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						declared = append(declared, Verb(b))
					}
				}
			case *ast.FuncDecl:
				if n.Name.Name != "layout" {
					return false
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if star, ok := e.(*ast.StarExpr); ok {
						laidOut[star.X.(*ast.Ident).Name] = true
					}
				}
			}
			return true
		})
	}
	if len(declared) == 0 || len(laidOut) == 0 {
		t.Fatalf("found %d verbs and %d laid-out messages in the source", len(declared), len(laidOut))
	}
	if top := slices.Max(declared); int(top) != len(verbs)-1 {
		t.Errorf("the verb table ends at %d, the last verb is %d", len(verbs)-1, top)
	}
	names := map[string]Verb{}
	carried := map[string]Verb{}
	for _, v := range declared {
		if int(v) >= len(verbs) || verbs[v].name == "" {
			t.Errorf("verb %d has no row", v)
			continue
		}
		row := verbs[v]
		if prev, dup := names[row.name]; dup {
			t.Errorf("verbs %d and %d are both named %q", prev, v, row.name)
		}
		names[row.name] = v
		if (row.body == bodyCodec) != (row.msg != nil) {
			t.Errorf("verb %s: body kind %d with message constructor %v", v, row.body, row.msg != nil)
		}
		if row.msg == nil {
			continue
		}
		typ := reflect.TypeOf(row.msg()).Elem().Name()
		if prev, dup := carried[typ]; dup {
			t.Errorf("verbs %s and %s both carry %s", prev, v, typ)
		}
		carried[typ] = v
		if !laidOut[typ] {
			t.Errorf("verb %s carries %s, which has no layout", v, typ)
		}
	}
	for typ := range laidOut {
		if _, ok := carried[typ]; !ok {
			t.Errorf("%s has a layout but no verb", typ)
		}
	}
}
