package ship

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// table builds an n-row result of one integer column — the shape of a
// served projection.
func table(n int) *Result {
	rows := make([][]WVal, n)
	for i := range rows {
		rows[i] = []WVal{{Kind: WInt, Int: int64(i) + 1}}
	}
	return &Result{Val: WVal{Kind: WRel, Rel: &WTable{Cols: []string{"c0"}, Rows: rows}}}
}

// TestDecodedRowsCapped: the decoder carves cells out of one slab, so
// every decoded row must be capacity-capped — appending to row i must
// leave row i+1 alone — ragged rows included.
func TestDecodedRowsCapped(t *testing.T) {
	res := goldenResults()["result_table"]
	body, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Val.Rel.Rows
	for i, row := range rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d has len %d cap %d", i, len(row), cap(row))
		}
		if i+1 < len(rows) {
			next := slices.Clone(rows[i+1])
			_ = append(row, WVal{Kind: WStr, Str: "clobber"})
			if !reflect.DeepEqual(rows[i+1], next) {
				t.Fatalf("appending to row %d changed row %d", i, i+1)
			}
		}
	}
}

// TestResultRoundTripAllocs pins the result codec's allocation budget: a
// 10k-row table encodes into one buffer and decodes into a constant
// number of objects (result, table, columns, one column name, row
// headers, one cell slab), not one per row. The budget has one to spare
// for other goroutines' allocations, which the counter also sees.
func TestResultRoundTripAllocs(t *testing.T) {
	res := table(10000)
	got := testing.AllocsPerRun(10, func() {
		body, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResult(body)
		if err != nil || len(back.Val.Rel.Rows) != 10000 {
			t.Fatalf("decode: %v", err)
		}
	})
	if got > 8 {
		t.Errorf("10k-row result round trip: %.0f allocs, budget 8", got)
	}
}

// TestDecodeSubmitAllocs pins the request decoder's allocations on the
// golden submits: the message, each string longer than one byte, the
// PTML copy, and one slice per non-empty list. The codec itself
// allocates nothing.
func TestDecodeSubmitAllocs(t *testing.T) {
	budget := map[string]float64{"submit_plain": 3, "submit_binds": 9, "submit_keyed": 3, "submit_merge": 2, "submit_explain": 3}
	for name, sub := range goldenSubmits() {
		body, err := sub.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := DecodeSubmit(body); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget[name] {
			t.Errorf("%s: %.0f allocs, budget %.0f", name, got, budget[name])
		}
	}
}

// writeCounter counts the Write calls a frame costs.
type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n++
	return len(p), nil
}

// TestWriteFrameSmallBody: a frame below writevMin — every request and
// every small answer — is one allocation and one Write.
func TestWriteFrameSmallBody(t *testing.T) {
	body, err := (&Result{Val: WVal{Kind: WInt, Int: 42}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var w writeCounter
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(&w, VResult, body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || w.n != 101 {
		// AllocsPerRun makes one warm-up call before its 100 measured ones.
		t.Errorf("small frame: %.1f allocs per frame, %d writes for 101 frames; want 1 and 101", allocs, w.n)
	}
}

// TestWriteFrameLargeBody: a body past writevMin goes out as header, body
// and trailer in one vectored write, on a socket or through any other
// writer, and the bytes must be exactly the contiguous frame's.
func TestWriteFrameLargeBody(t *testing.T) {
	body := bytes.Repeat([]byte("tycoon"), writevMin/3)
	want := appendU32(append([]byte(frameMagic), byte(VResult)), uint32(len(body)))
	crc := crc32.Update(crc32.Update(0, frameCRC, []byte{byte(VResult)}), frameCRC, body)
	want = appendU32(append(want, body...), crc)

	var buf bytes.Buffer
	if err := WriteFrame(&buf, VResult, body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("vectored frame differs from the contiguous layout")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		raw, _ := io.ReadAll(conn)
		got <- raw
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, VResult, body); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if raw := <-got; !bytes.Equal(raw, want) {
		t.Fatalf("frame over TCP: %d bytes, want %d", len(raw), len(want))
	}
}

// decodeBudget runs decode and fails if it allocated more than a small
// constant times the body: the decoders size every allocation from bytes
// actually present, never from a declared count. The worst honest case
// is a one-byte nil cell decoding to a whole WVal. The heap counters are
// process-wide and other goroutines only ever add to them, so the least
// of three runs is decode's own cost.
func decodeBudget(t *testing.T, body []byte, decode func()) {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(96*len(body) + 64<<10); least > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(body), least, limit)
	}
}

// goldenSeed is the verb and body of one golden fixture.
type goldenSeed struct {
	verb Verb
	body []byte
}

// goldenSeeds returns the golden frames whose names start with prefix:
// the seed corpus of the decoder fuzzers.
func goldenSeeds(f *testing.F, prefix string) []goldenSeed {
	paths, err := filepath.Glob(filepath.Join("testdata", prefix+"*.frame"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden %s frames: %v", prefix, err)
	}
	var out []goldenSeed
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		v, body, err := ReadFrame(bytes.NewReader(raw), 0)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		out = append(out, goldenSeed{v, body})
	}
	return out
}

// forgedTable is a result body declaring a table of 1 000 rows, the
// first of 3 990 cells, in 4 KiB: a decoder that sized its cell slab
// from the counts would allocate four million cells before finding the
// body truncated.
func forgedTable() []byte {
	forged := appendU32(appendU32([]byte{byte(WRel)}, 0), 1000)
	return append(appendU32(forged, 3990), make([]byte, 4000)...)
}

// checkRoundTrip is what the decoder fuzzers assert of a body sent with
// codec verb v: it either fails to decode with a frame error or decodes
// to a message that re-encodes to exactly the same bytes, within the
// allocation budget.
func checkRoundTrip(t *testing.T, v Verb, body []byte) {
	var m any
	var err error
	decodeBudget(t, body, func() {
		m = verbs[v].msg()
		err = decode(body, m)
	})
	if err != nil {
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("%s: decode error %q is not a frame error", v, err)
		}
		return
	}
	again, err := encode(m)
	if err != nil {
		t.Fatalf("%s: decoded message does not re-encode: %v", v, err)
	}
	if !bytes.Equal(again, body) {
		t.Fatalf("%s: re-encoding differs\n got %x\nwant %x", v, again, body)
	}
}

// FuzzDecodeMessage asserts checkRoundTrip for every binary message. The
// seeds are every golden frame.
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range goldenSeeds(f, "") {
		f.Add(byte(s.verb), s.body)
	}
	f.Add(byte(VResult), forgedTable())
	f.Fuzz(func(t *testing.T, verb byte, body []byte) {
		if int(verb) >= len(verbs) || verbs[verb].body != bodyCodec {
			return
		}
		checkRoundTrip(t, Verb(verb), body)
	})
}

// FuzzDecodeResult is FuzzDecodeMessage held to results, seeded from the
// golden results.
func FuzzDecodeResult(f *testing.F) {
	for _, s := range goldenSeeds(f, "result_") {
		f.Add(s.body)
	}
	f.Add(forgedTable())
	f.Fuzz(func(t *testing.T, body []byte) { checkRoundTrip(t, VResult, body) })
}

// FuzzDecodeSubmit is FuzzDecodeMessage held to submits, seeded from the
// golden submits.
func FuzzDecodeSubmit(f *testing.F) {
	for _, s := range goldenSeeds(f, "submit_") {
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkRoundTrip(t, VSubmit, body) })
}

// TestDecodeRejectsNonCanonical: the decoders accept exactly what the
// encoders write, which is what lets the fuzzer demand that every
// accepted body re-encodes to itself. A flag byte other than 0 or 1, an
// unknown result flag, and a trailing field the encoder would have
// omitted are all frame errors.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	enc := func(m interface{ Encode() ([]byte, error) }) []byte {
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ptml := []byte{1, 2, 3}
	plain := enc(&Submit{Name: "q", PTML: ptml})
	keyed := enc(&Submit{Name: "q", PTML: ptml, IdemKey: "k"})
	merged := enc(&Submit{Name: "q", PTML: ptml, Merge: MergeSum})
	boolBind := enc(&Submit{PTML: ptml, Binds: []WBind{{Name: "b", Val: WVal{Kind: WBool, Bool: true}}}})
	boolBind[len(boolBind)-1-4-1] = 2 // the bool cell, before the optimize flag and the empty save name
	bare := enc(&Result{Val: WVal{Kind: WInt, Int: 1}})
	partial := enc(&Result{Val: WVal{Kind: WInt, Int: 1}, Partial: true})
	flagged := slices.Clone(bare)
	flagged[1+8+8+8] = 4 // kind, value, steps, micros, then the flags byte
	last := (&Notify{Root: "r", OID: 1, CSN: 2}).Encode()

	submit := func(b []byte) error { _, err := DecodeSubmit(b); return err }
	result := func(b []byte) error { _, err := DecodeResult(b); return err }
	notify := func(b []byte) error { _, err := DecodeNotify(b); return err }
	for name, c := range map[string]struct {
		body   []byte
		decode func([]byte) error
	}{
		"submit, empty key carried for nothing":     {appendStr(slices.Clone(plain), ""), submit},
		"submit, auto merge carried for nothing":    {append(slices.Clone(keyed), byte(MergeAuto)), submit},
		"submit, false explain flag":                {append(slices.Clone(merged), 0), submit},
		"submit, optimize flag 2":                   {append(slices.Clone(plain[:len(plain)-5]), 2, 0, 0, 0, 0), submit},
		"submit, bool cell 2":                       {boolBind, submit},
		"result, partial group carried for nothing": {appendU32(append(slices.Clone(bare), 0), 0), result},
		"result, empty explain carried":             {appendStr(slices.Clone(partial), ""), result},
		"result, partial flag 2":                    {appendU32(append(slices.Clone(bare), 2), 0), result},
		"result, unknown result flag":               {flagged, result},
		"notify, explicit More 0":                   {append(slices.Clone(last), 0), notify},
		"notify, More byte 2":                       {append(slices.Clone(last), 2), notify},
		"notify, More byte 255":                     {append(slices.Clone(last), 255), notify},
		"install, explicit empty key": {appendStr((&Install{Source: "module m end"}).Encode(), ""),
			func(b []byte) error { _, err := DecodeInstall(b); return err }},
		"watch, explicit SinceCSN 0": {appendU64((&Watch{Patterns: []string{"*"}}).Encode(), 0),
			func(b []byte) error { _, err := DecodeWatch(b); return err }},
		"error, explicit RetryAfterMs 0": {appendU32((&WireError{Code: CodeExec, Msg: "boom"}).Encode(), 0),
			func(b []byte) error { _, err := DecodeWireError(b); return err }},
	} {
		if err := c.decode(c.body); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want a frame error", name, err)
		}
	}
}
