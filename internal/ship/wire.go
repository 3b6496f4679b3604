// Wire protocol of the tycd database server: length-prefixed,
// CRC-guarded frames carrying PTML trees, binding tables and result
// values between a remote client and a multi-session server. The frame
// envelope follows the TYSHIP02 bundle discipline (magic, u32 body
// length, CRC32C trailer): the network gives the payload no second
// chance at detecting rot, so every frame is verified before a single
// body byte is interpreted.
//
// A request is one frame; its response is one frame. The interesting
// verb is Submit: the client sends a PTML-encoded application together
// with a table of R-value bindings for its free variables, and the
// server re-establishes the bindings, compiles the closed term through
// its shared pipeline (one optimized-code cache across all sessions)
// and runs it — the paper's persistent intermediate representation
// travelling over the wire instead of through the store.
package ship

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"

	"tycoon/internal/pipeline"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
)

// SavedRoot prefixes the store root names under which tycd persists
// closures saved by SUBMIT requests (save=<name> ⇒ root "srv:<name>").
// tycfsck knows the prefix: a srv: root bound to anything without
// re-optimizable code is flagged as corruption.
const SavedRoot = "srv:"

// frameMagic tags a wire frame: the magic, a verb byte, a u32 body
// length, the body, and a CRC32C (Castagnoli) of verb+body.
const frameMagic = "TYWR01"

// MaxFrameBody is the default bound on a frame body; ReadFrame rejects
// larger declared lengths before allocating, so a corrupt or hostile
// length field can never drive a huge allocation.
const MaxFrameBody = 16 << 20

// ErrFrame is the sentinel wrapped by FrameError: the byte stream does
// not parse as a well-formed frame (bad magic, bad checksum, absurd
// length). Transport failures (timeouts, truncation by a dying peer)
// are reported as the underlying I/O errors, not as FrameErrors.
var ErrFrame = errors.New("ship: corrupt wire frame")

// FrameError reports a malformed frame.
type FrameError struct {
	Reason string
}

func (e *FrameError) Error() string { return "ship: bad frame: " + e.Reason }

// Unwrap makes errors.Is(err, ErrFrame) hold.
func (e *FrameError) Unwrap() error { return ErrFrame }

// Verb identifies the kind of message a frame carries.
type Verb byte

// The wire verbs. Requests flow client→server, responses server→client.
const (
	VHello    Verb = 1  // request: open a session
	VWelcome  Verb = 2  // response: session accepted
	VPing     Verb = 3  // request: liveness probe
	VPong     Verb = 4  // response to VPing
	VStats    Verb = 5  // request: server counters
	VStatsOK  Verb = 6  // response: ServerStats as JSON
	VInstall  Verb = 7  // request: compile and install a TL module
	VCall     Verb = 8  // request: call an exported or saved function
	VSubmit   Verb = 9  // request: compile and run a PTML term
	VOptimize Verb = 10 // request: reflectively optimize a function
	VResult   Verb = 11 // response: a value plus execution stats
	VError    Verb = 12 // response: structured failure
	VBye      Verb = 13 // request: orderly session close
	VHealth   Verb = 14 // request: liveness + mode probe
	VHealthOK Verb = 15 // response: Health as JSON
	VWatch    Verb = 16 // request: subscribe to committed root changes
	VWatchOK  Verb = 17 // response: subscription accepted; stream follows
	VNotify   Verb = 18 // server push: one committed root change
	VSync     Verb = 19 // request: replay a batch of keyed writes (replica repair)
	VSyncOK   Verb = 20 // response: batch applied
	VDigest   Verb = 21 // request: per-root anti-entropy digests
	VDigestOK Verb = 22 // response: Digests as a binary body
)

// bodyKind is what the body of a verb's frame carries.
type bodyKind byte

const (
	bodyEmpty bodyKind = iota // nothing
	bodyJSON                  // a JSON document
	bodyCodec                 // a binary message laid out by codec.layout
)

// verbRow is one verb's row in the verb table.
type verbRow struct {
	name string
	body bodyKind
	msg  func() any // bodyCodec: a fresh message of the verb's type
}

// codecRow is the row of a verb whose body is a binary T.
func codecRow[T any](name string) verbRow {
	return verbRow{name, bodyCodec, func() any { return new(T) }}
}

// verbs has one row per verb; it is the only place a verb's name and
// body are written down.
var verbs = [...]verbRow{
	VHello:    codecRow[Hello]("hello"),
	VWelcome:  codecRow[Welcome]("welcome"),
	VPing:     {name: "ping"},
	VPong:     {name: "pong"},
	VStats:    {name: "stats"},
	VStatsOK:  {name: "stats-ok", body: bodyJSON}, // ServerStats
	VInstall:  codecRow[Install]("install"),
	VCall:     codecRow[Call]("call"),
	VSubmit:   codecRow[Submit]("submit"),
	VOptimize: codecRow[Optimize]("optimize"),
	VResult:   codecRow[Result]("result"),
	VError:    codecRow[WireError]("error"),
	VBye:      {name: "bye"},
	VHealth:   {name: "health"},
	VHealthOK: {name: "health-ok", body: bodyJSON}, // Health
	VWatch:    codecRow[Watch]("watch"),
	VWatchOK:  codecRow[WatchOK]("watch-ok"),
	VNotify:   codecRow[Notify]("notify"),
	VSync:     codecRow[Sync]("sync"),
	VSyncOK:   codecRow[SyncOK]("sync-ok"),
	VDigest:   codecRow[Digest]("digest"),
	VDigestOK: codecRow[DigestOK]("digest-ok"),
}

// String names a verb for logs, errors and the per-verb counters.
func (v Verb) String() string {
	if int(v) < len(verbs) && verbs[v].name != "" {
		return verbs[v].name
	}
	return fmt.Sprintf("verb(%d)", byte(v))
}

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the length of a frame's magic, verb and body length;
// the CRC trailer adds four more bytes.
const frameHeader = len(frameMagic) + 1 + 4

// writevMin is the body size from which WriteFrame stops copying the
// body into a contiguous frame and hands header, body and trailer to the
// connection as one vectored write instead.
const writevMin = 16 << 10

// WriteFrame writes one frame: magic, verb, length, body, CRC32C of
// verb+body. A small frame is assembled in one buffer and written once;
// a large body is written in place, between an envelope allocated
// separately, with one writev on a network connection.
func WriteFrame(w io.Writer, v Verb, body []byte) error {
	n := frameHeader + 4
	if len(body) < writevMin {
		n += len(body)
	}
	out := append(make([]byte, 0, n), frameMagic...)
	out = append(out, byte(v))
	out = appendU32(out, uint32(len(body)))
	crc := crc32.Update(crc32.Update(0, frameCRC, out[len(frameMagic):frameHeader-4]), frameCRC, body)
	if len(body) < writevMin {
		out = appendU32(append(out, body...), crc)
		_, err := w.Write(out)
		return err
	}
	out = appendU32(out, crc)
	bufs := net.Buffers{out[:frameHeader], body, out[frameHeader:]}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame, verifying the envelope before returning
// the body. maxBody bounds the declared body length (0 means
// MaxFrameBody). A clean connection close before the first byte returns
// io.EOF; any other short read returns the transport error; a byte
// stream that is present but malformed returns a FrameError.
func ReadFrame(r io.Reader, maxBody int) (Verb, []byte, error) {
	if maxBody <= 0 {
		maxBody = MaxFrameBody
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF: peer closed between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, err
	}
	if string(hdr[:len(frameMagic)]) != frameMagic {
		return 0, nil, &FrameError{Reason: "bad magic"}
	}
	v := Verb(hdr[len(frameMagic)])
	n := binary.LittleEndian.Uint32(hdr[len(frameMagic)+1:])
	if int64(n) > int64(maxBody) {
		return 0, nil, &FrameError{Reason: fmt.Sprintf("frame body of %d bytes exceeds limit %d", n, maxBody)}
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	body := buf[:n]
	want := binary.LittleEndian.Uint32(buf[n:])
	crc := crc32.Update(crc32.Update(0, frameCRC, hdr[len(frameMagic):frameHeader-4]), frameCRC, body)
	if crc != want {
		return 0, nil, &FrameError{
			Reason: fmt.Sprintf("checksum mismatch (computed %08x, recorded %08x)", crc, want),
		}
	}
	return v, body, nil
}

// --- wire values -----------------------------------------------------------

// WKind tags a wire value.
type WKind byte

// The wire value kinds. Scalars travel by value; persistent objects by
// OID (meaningful only within one server's store); named roots by name
// (resolved server-side, the by-name discipline of bundle shipping);
// transient relations as materialised tables.
const (
	WNil  WKind = 0
	WInt  WKind = 1
	WReal WKind = 2
	WBool WKind = 3
	WChar WKind = 4
	WStr  WKind = 5
	WRef  WKind = 6
	WRoot WKind = 7
	WRel  WKind = 8
)

// WVal is one value crossing the wire.
type WVal struct {
	Kind WKind
	Int  int64
	Real float64
	Bool bool
	Ch   byte
	Str  string // WStr payload; WRoot root name
	Ref  uint64 // WRef OID
	Rel  *WTable
}

// WTable is a materialised relation result: column names and rows of
// scalar values (nested tables do not ship).
type WTable struct {
	Cols []string
	Rows [][]WVal
}

// Show renders a wire value for the client REPL.
func (v WVal) Show() string {
	switch v.Kind {
	case WNil:
		return "()"
	case WInt:
		return fmt.Sprintf("%d", v.Int)
	case WReal:
		return fmt.Sprintf("%g", v.Real)
	case WBool:
		return fmt.Sprintf("%t", v.Bool)
	case WChar:
		return fmt.Sprintf("'%c'", v.Ch)
	case WStr:
		return fmt.Sprintf("%q", v.Str)
	case WRef:
		return fmt.Sprintf("<0x%x>", v.Ref)
	case WRoot:
		return "@" + v.Str
	case WRel:
		if v.Rel == nil {
			return "rel(nil)"
		}
		return fmt.Sprintf("rel(%d rows)", len(v.Rel.Rows))
	default:
		return fmt.Sprintf("wval(%d)", byte(v.Kind))
	}
}

// wvalSize is the encoded length of v, or the reason v has no wire
// form. Encoders size their buffer with it once and then append without
// further checks.
func wvalSize(v *WVal) (int, error) {
	if v.Kind != WRel {
		return scalarSize(v)
	}
	if v.Rel == nil {
		return 0, fmt.Errorf("ship: wire relation without table")
	}
	n := 1 + 4 + 4
	for _, c := range v.Rel.Cols {
		n += 4 + len(c)
	}
	for _, row := range v.Rel.Rows {
		n += 4
		for i := range row {
			k, err := scalarSize(&row[i])
			if err != nil {
				return 0, err
			}
			n += k
		}
	}
	return n, nil
}

// scalarSize is the encoded length of a value that is not a relation:
// the kind byte plus its payload.
func scalarSize(v *WVal) (int, error) {
	switch v.Kind {
	case WNil:
		return 1, nil
	case WInt, WReal, WRef:
		return 1 + 8, nil
	case WBool, WChar:
		return 1 + 1, nil
	case WStr, WRoot:
		return 1 + 4 + len(v.Str), nil
	case WRel:
		return 0, fmt.Errorf("ship: nested relation in wire row")
	default:
		return 0, fmt.Errorf("ship: cannot encode wire value kind %d", v.Kind)
	}
}

// appendWVal appends a value wvalSize accepted.
func appendWVal(b []byte, v *WVal) []byte {
	if v.Kind != WRel {
		return appendScalar(b, v)
	}
	b = append(b, byte(WRel))
	b = appendU32(b, uint32(len(v.Rel.Cols)))
	for _, c := range v.Rel.Cols {
		b = appendStr(b, c)
	}
	b = appendU32(b, uint32(len(v.Rel.Rows)))
	for _, row := range v.Rel.Rows {
		b = appendU32(b, uint32(len(row)))
		for i := range row {
			b = appendScalar(b, &row[i])
		}
	}
	return b
}

func appendScalar(b []byte, v *WVal) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case WInt:
		return appendU64(b, uint64(v.Int))
	case WReal:
		return appendU64(b, math.Float64bits(v.Real))
	case WBool:
		return appendBool(b, v.Bool)
	case WChar:
		return append(b, v.Ch)
	case WStr, WRoot:
		return appendStr(b, v.Str)
	case WRef:
		return appendU64(b, v.Ref)
	}
	return b
}

// wval decodes a value into the zero value v.
func (r *cursor) wval(v *WVal) {
	if k := WKind(r.u8()); k != WRel {
		r.scalar(k, v)
	} else {
		v.Kind, v.Rel = WRel, r.table()
	}
}

// scalar decodes the payload of a value of kind k into v; a relation is
// only legal at the top of a value, never as a table cell.
func (r *cursor) scalar(k WKind, v *WVal) {
	v.Kind = k
	switch k {
	case WNil:
	case WInt:
		v.Int = int64(r.u64())
	case WReal:
		v.Real = math.Float64frombits(r.u64())
	case WBool:
		v.Bool = r.flag()
	case WChar:
		v.Ch = r.u8()
	case WStr, WRoot:
		v.Str = r.str()
	case WRef:
		v.Ref = r.u64()
	case WRel:
		r.failf("nested relation in wire row")
	default:
		r.failf("unknown wire value kind %d", k)
	}
}

// table decodes a relation: the row headers in one exact slice, the
// cells carved out of one slab sized for the rest of the table at the
// current row's width. A ragged row wider than what is left starts a
// new slab. Every cell takes at least its kind byte, so no slab outgrows
// the bytes that remain, whatever the declared counts say.
func (r *cursor) table() *WTable {
	t := &WTable{}
	if nc := r.count(4); nc > 0 {
		t.Cols = make([]string, nc)
		for i := range t.Cols {
			t.Cols[i] = r.str()
		}
	}
	nr := r.count(4) // every row carries a 4-byte cell count
	if nr == 0 {
		return t
	}
	t.Rows = make([][]WVal, nr)
	var slab []WVal
	for i := range t.Rows {
		nf := r.count(1)
		if r.err != nil {
			break
		}
		if slab == nil || nf > len(slab) {
			slab = make([]WVal, min(nf*(nr-i), r.rem()))
		}
		row := slab[:nf:nf]
		slab = slab[nf:]
		for j := range row {
			r.scalar(WKind(r.u8()), &row[j])
		}
		t.Rows[i] = row
	}
	return t
}

// WBind is one R-value binding of a submitted term's free variable.
type WBind struct {
	Name string
	Val  WVal
}

// --- messages --------------------------------------------------------------

// ProtoVersion is the protocol revision spoken by this build; Hello and
// Welcome exchange it, and the server refuses clients from the future.
const ProtoVersion = 1

// Hello opens a session.
type Hello struct {
	Version uint32
	Client  string // free-form client identification for the server log
}

// Welcome accepts a session.
type Welcome struct {
	Version uint32
	Server  string
	Session uint64 // server-assigned session id
}

// Install compiles and installs a TL module from source text.
type Install struct {
	Source string
	// IdemKey, when non-empty, is a client-chosen idempotency key: the
	// server records the response under key × source hash and answers a
	// retried install from the record instead of installing twice.
	// Optional trailing field.
	IdemKey string
}

// Call applies an exported function of an installed module — or, with
// an empty Module, a closure previously saved under SavedRoot+Fn.
type Call struct {
	Module string
	Fn     string
	Args   []WVal
}

// Merge selects how a cluster coordinator combines the per-shard
// answers of a scattered submit. The field is interpreted (and then
// stripped) by the coordinator; a plain tycd server never sees it, so
// adding policies costs nothing on the shard side.
type Merge byte

// The merge policies. Relation results always concatenate regardless of
// policy; the policy governs scalar answers from partitioned shards.
const (
	// MergeAuto concatenates relation results and requires scalar
	// answers to agree across shards (the right default for pure terms
	// evaluated everywhere, e.g. a shipped constant expression).
	MergeAuto Merge = 0
	// MergeSum adds integer/real answers (count over a partitioned
	// relation).
	MergeSum Merge = 1
	// MergeAny ORs boolean answers (exists over a partitioned relation).
	MergeAny Merge = 2
	// MergeAll ANDs boolean answers (a predicate that must hold on every
	// partition).
	MergeAll Merge = 3
)

// String names a merge policy.
func (m Merge) String() string {
	switch m {
	case MergeAuto:
		return "auto"
	case MergeSum:
		return "sum"
	case MergeAny:
		return "any"
	case MergeAll:
		return "all"
	default:
		return fmt.Sprintf("merge(%d)", byte(m))
	}
}

// ParseMerge resolves a policy name from the command line.
func ParseMerge(s string) (Merge, error) {
	switch s {
	case "", "auto":
		return MergeAuto, nil
	case "sum":
		return MergeSum, nil
	case "any":
		return MergeAny, nil
	case "all":
		return MergeAll, nil
	default:
		return 0, fmt.Errorf("ship: unknown merge policy %q", s)
	}
}

// Submit ships a PTML-encoded application for compilation and
// execution. Binds re-establish the R-value bindings of the term's free
// variables (paper §4.1, across the wire instead of across module
// barriers); the free continuation variables e and k are bound by the
// server to its own exception and result continuations. Optimize runs
// the full reduce/expand rounds plus the query rule packs before
// codegen; Save persists the compiled closure under SavedRoot+Save for
// later Call requests (and tycfsck scrutiny).
type Submit struct {
	Name     string // label for errors and stats
	PTML     []byte // ptml.EncodeApp of the term
	Binds    []WBind
	Optimize bool
	Save     string
	// IdemKey, when non-empty, is a client-chosen idempotency key: the
	// server records the response under key × α-hash and answers a
	// retried submit from the record, so a retried save= is applied
	// exactly once. Optional trailing field.
	IdemKey string
	// Merge is the coordinator's scatter merge policy (see Merge).
	// Optional trailing field.
	Merge Merge
	// Explain asks the server to attach the executed physical plan —
	// chosen algorithms with estimated vs. actual cardinalities — to the
	// Result. Optional trailing field.
	Explain bool
}

// Optimize reflectively optimizes an exported function server-side and
// installs the new code for the whole server (paper §4.1: the result
// lands in the shared link cache, so every session benefits).
type Optimize struct {
	Module string
	Fn     string
}

// Watch subscribes the session to committed root changes. After the
// server answers VWatchOK the connection becomes a dedicated push
// stream: the protocol has no request ids, so a watching session issues
// no further requests and the server sends VNotify frames until either
// side closes. Patterns are root names with '*' wildcards ("srv:*"
// matches every saved closure); a change is delivered once if any
// pattern matches.
type Watch struct {
	Patterns []string
	// SinceCSN resumes a subscription: the server replays the committed
	// changes with CSN strictly greater than it before going live, so a
	// client reconnecting after connection loss misses nothing. Zero asks
	// for changes from now on. Optional trailing field.
	SinceCSN uint64
}

// WatchOK accepts a subscription. CSN is the stream position: every
// subsequent VNotify carries a CSN strictly greater than it (for a
// fresh subscription the store's current CSN; for a resume, the
// client's SinceCSN).
type WatchOK struct {
	CSN uint64
}

// Notify is one committed root change pushed to a WATCH subscriber:
// the root name, the OID it now binds, and the commit's CSN.
// Notifications arrive in nondecreasing CSN order; the changes of one
// multi-root commit share a CSN and arrive contiguously.
type Notify struct {
	Root string
	OID  uint64
	CSN  uint64
	// More marks that further notifications of the SAME commit follow,
	// so a subscriber can apply a whole commit atomically (the last
	// change of a batch has More false). Optional trailing field, so
	// frames from servers predating it decode as single-change commits,
	// which is what those servers send.
	More bool
}

// MatchRoot reports whether a root name matches a watch pattern: '*'
// matches any run of characters (including none), every other byte
// matches itself. The classic greedy single-star backtracking match —
// patterns are operator-written, never hostile.
func MatchRoot(pattern, name string) bool {
	px, nx := 0, 0
	star, starN := -1, 0
	for nx < len(name) {
		switch {
		case px < len(pattern) && pattern[px] == '*':
			star, starN = px, nx
			px++
		case px < len(pattern) && pattern[px] == name[nx]:
			px++
			nx++
		case star >= 0:
			starN++
			px, nx = star+1, starN
		default:
			return false
		}
	}
	for px < len(pattern) && pattern[px] == '*' {
		px++
	}
	return px == len(pattern)
}

// ShipItem is one deferred write inside a Sync batch: the original verb
// (VSubmit or VInstall) and the original encoded request body, idempotency
// key and all. Re-encoding nothing is the point — the replica replays the
// byte-identical request the live replicas executed, so the server-side
// dedup key (idempotency key × content hash) matches across the handoff.
type ShipItem struct {
	Verb Verb
	Body []byte
}

// Sync replays a batch of keyed writes to a replica that missed them
// (replica repair). Items apply strictly in order; the first failing item
// aborts the batch and the response reports how many applied, so the
// shipper can retry from the failure without losing order. Replayed items
// that the replica already executed are absorbed by its dedup table —
// order plus original idempotency keys is what makes the whole protocol
// exactly-once without a cursor handshake.
type Sync struct {
	Items []ShipItem
}

// SyncOK confirms a Sync batch: every item applied (or deduped).
type SyncOK struct {
	Applied uint32 // items processed, always len(Items) on success
}

// Digest asks a server for its per-root anti-entropy digests. Prefix
// restricts the answer to roots with that name prefix ("" means all); the
// repair loop asks for everything, tests for narrower slices.
type Digest struct {
	Prefix string
}

// RootDigest is one root's structural digest: a hex hash of the object
// graph reachable from the root, computed OID-independently so two
// replicas that applied the same writes in different allocation orders
// still agree (see server.RootDigest for what the hash covers).
type RootDigest struct {
	Name   string
	Digest string
}

// DigestOK answers a Digest request. CSN and Epoch are the answering
// store's commit sequence number and binding epoch — observability
// context for logs and fsck, NOT part of the comparison: both are local
// counters that legitimately differ between replicas with identical
// contents (a replayed batch commits in fewer groups, reflective
// reoptimization bumps epochs on one replica only). Agreement means the
// per-root digest maps are equal.
type DigestOK struct {
	CSN   uint64
	Epoch uint64
	Roots []RootDigest
}

// ExecInfo is the per-request execution record attached to a Result.
type ExecInfo struct {
	Steps    int64 // abstract machine steps charged to the request
	Micros   int64 // server-side wall time in microseconds
	CacheHit bool  // compilation served from the shared pipeline cache
	Shared   bool  // compilation deduplicated against a concurrent run
	Rewrites int64 // optimizer rule applications (fresh compilations)
	Inlined  int64 // closures inlined across barriers (optimize verb)
}

// Result carries a successful response value.
type Result struct {
	Val  WVal
	Info ExecInfo
	// Partial marks a degraded cluster answer: one or more shards were
	// unreachable, the value covers only the reachable ones, and Missing
	// names the hash ranges whose rows are absent ("shardN:[lo,hi)").
	// The pair is one optional trailing group — a plain tycd answer
	// never carries it, and old frames decode without it.
	Partial bool
	Missing []string
	// Explain is the rendered physical plan when the request asked for
	// one (Submit.Explain): one operator per line, chosen algorithm with
	// estimated vs. actual cardinalities. Optional trailing field behind
	// the partial group.
	Explain string
}

// ErrCode classifies a WireError. Every code has one row in the policy
// table below; that row is the only place a code's meaning for retries,
// failover and HTTP is written down.
type ErrCode byte

// The wire error codes.
const (
	CodeProto      ErrCode = 1 // malformed frame or message body
	CodeBadRequest ErrCode = 2 // well-formed but unacceptable request
	CodeNotFound   ErrCode = 3 // unknown module, function or saved name
	CodeCompile    ErrCode = 4 // compilation or optimization failed
	CodeExec       ErrCode = 5 // runtime failure (including TML exceptions)
	CodeBudget     ErrCode = 6 // step or wall-clock budget exceeded
	CodeShutdown   ErrCode = 7 // server is draining; no new work
	CodeInternal   ErrCode = 8 // server-side invariant violation
	// CodeOverloaded refuses a request the server has no capacity for
	// right now (see Gate).
	CodeOverloaded ErrCode = 9
	// CodeDegraded answers a write whose commit was published in memory
	// but failed to reach the disk. Other sessions keep reading and
	// writing; the store keeps the failed records queued and the next
	// successful flush makes them durable. The write is therefore NOT
	// undone, and resending it unkeyed would apply it twice.
	CodeDegraded ErrCode = 10
	// CodeConflict aborts a request whose transaction lost a
	// first-committer-wins race: another session committed a conflicting
	// write first. Nothing was applied; a resend re-executes against a
	// fresh snapshot.
	CodeConflict ErrCode = 11
	// CodeReplicaDown refuses a write-all application because a replica
	// of the owning shard is down and the coordinator has no handoff log
	// to defer the write into (-handoff-dir unset). Nothing was applied
	// anywhere; the RetryAfterMs hint tells clients to back off for the
	// repair instead of hammering.
	CodeReplicaDown ErrCode = 12
)

// ErrClass is what a wire error says about the request it answers:
// whether anything was applied, and whether sending it again can help.
type ErrClass byte

const (
	// ClassAnswer is definitive: this is the request's outcome. Never
	// resent, never failed over.
	ClassAnswer ErrClass = iota
	// ClassRefused means not executed: the answering server or replica
	// cannot serve right now. Any verb may be resent; a coordinator
	// fails over to another replica.
	ClassRefused
	// ClassAborted means nothing was applied, but the answer came from a
	// healthy server. Any verb may be resent whole; failing over to
	// another replica would not help.
	ClassAborted
)

// CodePolicy is one error code's row in the wire-error policy.
type CodePolicy struct {
	Name  string
	Class ErrClass
	// HTTP is the status the gateway answers with.
	HTTP int
	// EndsSession marks codes after which the server closes the session:
	// a client must reconnect before resending.
	EndsSession bool
}

var codePolicies = [...]CodePolicy{
	CodeProto:       {"proto", ClassRefused, 400, true}, // the request frame never decoded
	CodeBadRequest:  {"bad-request", ClassAnswer, 400, false},
	CodeNotFound:    {"not-found", ClassAnswer, 404, false},
	CodeCompile:     {"compile", ClassAnswer, 422, false},
	CodeExec:        {"exec", ClassAnswer, 422, false},
	CodeBudget:      {"budget", ClassAnswer, 408, false},
	CodeShutdown:    {"shutdown", ClassRefused, 503, true},
	CodeInternal:    {"internal", ClassAnswer, 500, false},
	CodeOverloaded:  {"overloaded", ClassRefused, 429, false},
	CodeDegraded:    {"degraded", ClassAnswer, 500, false},
	CodeConflict:    {"conflict", ClassAborted, 409, false},
	CodeReplicaDown: {"replica-down", ClassAborted, 503, false},
}

// Policy returns the code's row. A code without one (sent by a newer
// peer) is a definitive internal failure named code(N).
func (c ErrCode) Policy() CodePolicy {
	if int(c) < len(codePolicies) && codePolicies[c].Name != "" {
		return codePolicies[c]
	}
	return CodePolicy{Name: fmt.Sprintf("code(%d)", byte(c)), Class: ClassAnswer, HTTP: 500}
}

// String names an error code.
func (c ErrCode) String() string { return c.Policy().Name }

// Definitive returns the wire error in err when it is a peer's real
// answer (any class but refused), and nil otherwise. A nil result — a
// transport or framing failure, or a refusal — says nothing about the
// request, so a coordinator fails over and a watcher reconnects.
func Definitive(err error) *WireError {
	var we *WireError
	if errors.As(err, &we) && we.Code.Policy().Class != ClassRefused {
		return we
	}
	return nil
}

// WireError is a structured server-side failure; it implements error so
// clients surface it directly.
type WireError struct {
	Code ErrCode
	Msg  string
	// RetryAfterMs, when nonzero, hints how long a client should back
	// off before retrying (set on overloaded and replica-down). It travels
	// as an optional trailing field, so frames without the hint decode
	// under both old and new readers.
	RetryAfterMs uint32
}

func (e *WireError) Error() string { return fmt.Sprintf("tycd: %s: %s", e.Code, e.Msg) }

// --- server statistics -----------------------------------------------------

// VerbStat is one verb's latency counter.
type VerbStat struct {
	Count  int64 `json:"count"`
	Errors int64 `json:"errors"`
	Micros int64 `json:"micros"` // cumulative server-side wall time
}

// ServerStats is the STATS response payload. It travels as JSON inside
// the binary frame: the counters are for operators and tests, not for
// the execution hot path, so a self-describing encoding beats another
// hand-rolled codec.
type ServerStats struct {
	// Sessions is the number of currently open sessions; TotalSessions
	// counts sessions ever accepted.
	Sessions      int    `json:"sessions"`
	TotalSessions uint64 `json:"total_sessions"`
	// Draining reports that the server has begun a graceful shutdown.
	Draining bool `json:"draining,omitempty"`
	// Pipeline is the shared compilation pipeline's cache counters —
	// across all sessions, which is what makes Shared meaningful.
	Pipeline pipeline.CacheStats `json:"pipeline"`
	// Indexes is the shared relational index cache's counters.
	Indexes relalg.IndexStats `json:"indexes"`
	// Degraded reports the read-only mode entered when store commits
	// start failing; DegradedReason carries the commit error.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Inflight is the number of requests executing right now; Shed
	// counts requests refused with CodeOverloaded.
	Inflight int   `json:"inflight,omitempty"`
	Shed     int64 `json:"shed,omitempty"`
	// IdemApplied counts keyed requests executed and recorded;
	// IdemDeduped counts retries answered from the record instead of
	// being executed a second time.
	IdemApplied int64 `json:"idem_applied,omitempty"`
	IdemDeduped int64 `json:"idem_deduped,omitempty"`
	// Verbs are the per-verb latency counters, keyed by Verb.String().
	Verbs map[string]VerbStat `json:"verbs,omitempty"`
	// Store carries the MVCC store's counters: open snapshots,
	// transaction commits/aborts/conflicts and group-commit batching.
	Store *store.TxStats `json:"store,omitempty"`
	// Watch carries the WATCH hub's counters; absent until the first
	// subscription or committed root change.
	Watch *WatchStats `json:"watch,omitempty"`
	// Cluster carries the coordinator counters when the answering
	// process is a tycc coordinator rather than a plain tycd shard. JSON
	// keeps the extension free: old clients simply ignore the field.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// WatchStats is the WATCH hub's counter block inside ServerStats.
type WatchStats struct {
	// Subscribers is the number of live subscriptions; TotalWatches
	// counts subscriptions ever accepted, Resumed the ones that carried
	// a SinceCSN.
	Subscribers  int   `json:"subscribers"`
	TotalWatches int64 `json:"total_watches,omitempty"`
	Resumed      int64 `json:"resumed,omitempty"`
	// Events counts committed root changes observed by the hub;
	// Delivered the notifications enqueued to subscribers (one event
	// fans out once per matching subscriber).
	Events    int64 `json:"events,omitempty"`
	Delivered int64 `json:"delivered,omitempty"`
	// Dropped counts subscriptions terminated because the subscriber
	// fell too far behind (it resumes by CSN); LostHorizon counts
	// resume attempts refused because the backlog no longer reached
	// back to the requested CSN.
	Dropped     int64 `json:"dropped,omitempty"`
	LostHorizon int64 `json:"lost_horizon,omitempty"`
	// Backlog is the number of events currently retained for resume.
	Backlog int `json:"backlog,omitempty"`
}

// ReplicaStat is one shard replica's health as the coordinator sees it.
type ReplicaStat struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Down  bool   `json:"down,omitempty"`
	// Fails counts request failures charged to this replica; Idle is the
	// size of the coordinator's pooled-session stack for it.
	Fails int64 `json:"fails,omitempty"`
	Idle  int   `json:"idle,omitempty"`
	// State is the repair state machine's view: "live" (serving reads),
	// "lagging" (missed writes sit in its handoff log; excluded from
	// reads) or "repairing" (the repair loop is draining to it).
	State string `json:"state,omitempty"`
	// Backlog is the handoff log depth: deferred writes not yet confirmed
	// by this replica.
	Backlog int `json:"backlog,omitempty"`
	// LastRepairCSN is the replica's store CSN observed when its last
	// repair completed (digests agreed); zero if never repaired.
	LastRepairCSN uint64 `json:"last_repair_csn,omitempty"`
}

// ClusterStats is the coordinator's counter block inside ServerStats.
type ClusterStats struct {
	Shards int `json:"shards"`
	// Scatter counts fan-out reads, Routed single-shard requests
	// (saving submits, calls, per-shard writes).
	Scatter int64 `json:"scatter"`
	Routed  int64 `json:"routed"`
	// Failovers counts reads answered by a non-first replica after the
	// preferred one failed; Hedges counts hedge requests launched
	// against a straggling shard, HedgeWins how many beat the primary.
	Failovers int64 `json:"failovers,omitempty"`
	Hedges    int64 `json:"hedges,omitempty"`
	HedgeWins int64 `json:"hedge_wins,omitempty"`
	// Partials counts degraded scatter answers that named missing
	// ranges instead of failing.
	Partials int64 `json:"partials,omitempty"`
	// Shed counts requests refused by the coordinator's own inflight
	// gate (composing with each shard's gate underneath).
	Shed int64 `json:"shed,omitempty"`
	// HandoffWrites counts writes accepted while a replica was down and
	// deferred into its handoff log; RepairShipped counts deferred writes
	// later replayed to a revived replica; Repairs counts repairs that
	// completed with agreeing digests; RepairMismatch counts anti-entropy
	// passes that found diverging digests after a full drain (the replica
	// stays out of the read list — fails loud in tycfsck -cluster).
	HandoffWrites  int64         `json:"handoff_writes,omitempty"`
	RepairShipped  int64         `json:"repair_shipped,omitempty"`
	Repairs        int64         `json:"repairs,omitempty"`
	RepairMismatch int64         `json:"repair_mismatch,omitempty"`
	Replicas       []ReplicaStat `json:"replicas,omitempty"`
}

// Health is the HEALTH response payload (JSON, like ServerStats): a
// cheap probe a load balancer or retrying client can poll without
// touching the execution path.
type Health struct {
	// Status summarises the mode: "ok", "degraded" or "draining".
	Status string `json:"status"`
	// Draining reports a graceful shutdown in progress.
	Draining bool `json:"draining,omitempty"`
	// Degraded reports read-only mode; Reason carries the commit error
	// that triggered it.
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Sessions and Inflight size the current load.
	Sessions int `json:"sessions"`
	Inflight int `json:"inflight"`
}

// --- little wire helpers ---------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte { return append(appendU32(b, uint32(len(s))), s...) }

func appendBytes(b, p []byte) []byte { return append(appendU32(b, uint32(len(p))), p...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// cursor decodes little-endian fields with a latched error: after the
// first failure every read returns zero values and done reports it. One
// cursor serves both envelopes; they differ only in the error class a
// failure is minted as.
type cursor struct {
	b    []byte
	pos  int
	err  error
	mint func(reason string) error
}

// frameErr mints a message body's decode failures. A body that fails to
// parse after the envelope checksum verified is a protocol bug, not
// transit damage: a FrameError.
func frameErr(reason string) error { return &FrameError{Reason: reason} }

// bundleCursor reads a bundle's entry stream; failures are ErrBadBundle.
func bundleCursor(body []byte) *cursor {
	return &cursor{b: body, mint: func(reason string) error { return fmt.Errorf("%w: %s", ErrBadBundle, reason) }}
}

func (r *cursor) failf(format string, args ...any) {
	if r.err == nil {
		r.err = r.mint(fmt.Sprintf(format, args...) + fmt.Sprintf(" at offset %d", r.pos))
	}
}

func (r *cursor) done() error {
	if r.err == nil && r.pos != len(r.b) {
		r.failf("%d trailing bytes", len(r.b)-r.pos)
	}
	return r.err
}

// rem reports how many undecoded bytes remain; optional trailing fields
// are decoded only when present.
func (r *cursor) rem() int {
	if r.err != nil {
		return 0
	}
	return len(r.b) - r.pos
}

// take consumes the next n bytes (aliasing the input), or latches a
// truncation failure naming what was being read and returns nil.
func (r *cursor) take(n int, what string) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.pos {
		r.failf("truncated %s", what)
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *cursor) u8() byte {
	if b := r.take(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

func (r *cursor) u32() uint32 {
	if b := r.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *cursor) u64() uint64 {
	if b := r.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// flag reads a boolean byte, which must be 0 or 1.
func (r *cursor) flag() bool {
	b := r.u8()
	if b > 1 {
		r.failf("flag byte %d", b)
	}
	return b == 1
}

func (r *cursor) str() string { return string(r.take(int(r.u32()), "string")) }

// bytesField copies: the result outlives the frame buffer.
func (r *cursor) bytesField() []byte {
	return append([]byte(nil), r.take(int(r.u32()), "bytes")...)
}

// count reads an element count and bounds it against the remaining
// input (each element takes at least minSize bytes), so a corrupt count
// can never drive a huge allocation.
func (r *cursor) count(minSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minSize > len(r.b)-r.pos {
		r.failf("absurd element count %d", n)
		return 0
	}
	return n
}
