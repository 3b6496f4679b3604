package ship

import "fmt"

// layout is the wire layout of every binary message: per message, one
// walk over its fields in wire order. The same walk sizes, appends and
// decodes (see codec), so a layout is written exactly once. Every opt
// starts an optional trailing group.
func (c *codec) layout(m any) {
	switch m := m.(type) {
	case *Hello:
		c.u32(&m.Version)
		c.str(&m.Client)
	case *Welcome:
		c.u32(&m.Version)
		c.str(&m.Server)
		c.u64(&m.Session)
	case *Install:
		c.str(&m.Source)
		c.opt()
		c.str(&m.IdemKey)
	case *Call:
		c.str(&m.Module)
		c.str(&m.Fn)
		for i := range list(c, &m.Args, 1) { // smallest value: a kind byte
			c.wval(&m.Args[i])
		}
	case *Submit:
		c.str(&m.Name)
		c.bytes(&m.PTML)
		for i := range list(c, &m.Binds, 5) { // smallest bind: empty name, kind byte
			c.str(&m.Binds[i].Name)
			c.wval(&m.Binds[i].Val)
		}
		c.flag(&m.Optimize)
		c.str(&m.Save)
		c.opt()
		c.str(&m.IdemKey)
		c.opt()
		c.u8((*byte)(&m.Merge))
		c.opt()
		c.flag(&m.Explain)
	case *Optimize:
		c.str(&m.Module)
		c.str(&m.Fn)
	case *Result:
		c.wval(&m.Val)
		c.i64(&m.Info.Steps)
		c.i64(&m.Info.Micros)
		c.flagPair(&m.Info.CacheHit, &m.Info.Shared)
		c.i64(&m.Info.Rewrites)
		c.i64(&m.Info.Inlined)
		c.opt()
		c.flag(&m.Partial)
		c.strs(&m.Missing)
		c.opt()
		c.str(&m.Explain)
	case *WireError:
		c.u8((*byte)(&m.Code))
		c.str(&m.Msg)
		c.opt()
		c.u32(&m.RetryAfterMs)
	case *Watch:
		c.strs(&m.Patterns)
		c.opt()
		c.u64(&m.SinceCSN)
	case *WatchOK:
		c.u64(&m.CSN)
	case *Notify:
		c.str(&m.Root)
		c.u64(&m.OID)
		c.u64(&m.CSN)
		c.opt()
		c.flag(&m.More)
	case *Sync:
		for i := range list(c, &m.Items, 5) { // smallest item: verb byte, empty body
			c.u8((*byte)(&m.Items[i].Verb))
			c.bytes(&m.Items[i].Body)
		}
	case *SyncOK:
		c.u32(&m.Applied)
	case *Digest:
		c.str(&m.Prefix)
	case *DigestOK:
		c.u64(&m.CSN)
		c.u64(&m.Epoch)
		for i := range list(c, &m.Roots, 8) { // smallest root: two empty strings
			c.str(&m.Roots[i].Name)
			c.str(&m.Roots[i].Digest)
		}
	default:
		panic(fmt.Sprintf("ship: no wire layout for %T", m))
	}
}

// The exported codecs. Encode writes a body in one buffer of the exact
// size; a DecodeX accepts exactly the bodies Encode writes. Encoding
// fails only on a wire value with no wire form, so a message that holds
// no WVal drops the error.

func (m *Hello) Encode() []byte           { b, _ := encode(m); return b }
func (m *Welcome) Encode() []byte         { b, _ := encode(m); return b }
func (m *Install) Encode() []byte         { b, _ := encode(m); return b }
func (m *Call) Encode() ([]byte, error)   { return encode(m) }
func (m *Submit) Encode() ([]byte, error) { return encode(m) }
func (m *Optimize) Encode() []byte        { b, _ := encode(m); return b }
func (m *Result) Encode() ([]byte, error) { return encode(m) }
func (e *WireError) Encode() []byte       { b, _ := encode(e); return b }
func (m *Watch) Encode() []byte           { b, _ := encode(m); return b }
func (m *WatchOK) Encode() []byte         { b, _ := encode(m); return b }
func (m *Notify) Encode() []byte          { b, _ := encode(m); return b }
func (m *Sync) Encode() []byte            { b, _ := encode(m); return b }
func (m *SyncOK) Encode() []byte          { b, _ := encode(m); return b }
func (m *Digest) Encode() []byte          { b, _ := encode(m); return b }
func (m *DigestOK) Encode() []byte        { b, _ := encode(m); return b }

func DecodeHello(body []byte) (*Hello, error)         { return decodeAs[Hello](body) }
func DecodeWelcome(body []byte) (*Welcome, error)     { return decodeAs[Welcome](body) }
func DecodeInstall(body []byte) (*Install, error)     { return decodeAs[Install](body) }
func DecodeCall(body []byte) (*Call, error)           { return decodeAs[Call](body) }
func DecodeSubmit(body []byte) (*Submit, error)       { return decodeAs[Submit](body) }
func DecodeOptimize(body []byte) (*Optimize, error)   { return decodeAs[Optimize](body) }
func DecodeResult(body []byte) (*Result, error)       { return decodeAs[Result](body) }
func DecodeWireError(body []byte) (*WireError, error) { return decodeAs[WireError](body) }
func DecodeWatch(body []byte) (*Watch, error)         { return decodeAs[Watch](body) }
func DecodeWatchOK(body []byte) (*WatchOK, error)     { return decodeAs[WatchOK](body) }
func DecodeNotify(body []byte) (*Notify, error)       { return decodeAs[Notify](body) }
func DecodeSync(body []byte) (*Sync, error)           { return decodeAs[Sync](body) }
func DecodeSyncOK(body []byte) (*SyncOK, error)       { return decodeAs[SyncOK](body) }
func DecodeDigest(body []byte) (*Digest, error)       { return decodeAs[Digest](body) }
func DecodeDigestOK(body []byte) (*DigestOK, error)   { return decodeAs[DigestOK](body) }

// encode sizes m, then appends it to one buffer of exactly that size.
func encode(m any) ([]byte, error) {
	n, tail, err := sizeOf(m)
	if err != nil {
		return nil, err
	}
	return appendBody(make([]byte, 0, n), m, tail), nil
}

// sizeOf is the length of m's body, the number of optional groups it
// carries, or the reason it has no wire form.
func sizeOf(m any) (n, tail int, err error) {
	var c codec // set field by field: a composite literal is built aside and copied
	c.op, c.live = opSize, true
	c.layout(m)
	c.endGroup()
	return c.size, c.last, c.err
}

// appendBody appends the body of a message sizeOf accepted.
func appendBody(b []byte, m any, tail int) []byte {
	var c codec
	c.op, c.live, c.out, c.tail = opAppend, true, b, tail
	c.layout(m)
	return c.out
}

// decode reads body into the zero message m.
func decode(body []byte, m any) error {
	var c codec
	c.op, c.live, c.b, c.mint = opDecode, true, body, frameErr
	c.layout(m)
	c.endGroup()
	if c.last != c.tail {
		c.failf("non-canonical trailing fields")
	}
	return c.done()
}

func decodeAs[T any](body []byte) (*T, error) {
	m := new(T)
	return m, decode(body, m)
}

// op is what a codec walk does with each field.
type op byte

const (
	opSize   op = iota // add the field's encoded length to n
	opAppend           // append the field to out
	opDecode           // read the field from the cursor into place
	opSkip             // nothing: the field's group is not written or not present
)

// codec visits a message's fields in wire order and sizes, appends or
// decodes each one. The fields after the mandatory head form optional
// trailing groups, each started by opt. A group is written iff it, or
// a later one, holds a nonzero field; a body decodes only if the number
// of groups it carries is the number its decoded values re-derive. Old
// frames without a newer group decode unchanged, new groups cost nothing
// until used, and every accepted body re-encodes to itself.
type codec struct {
	cursor // opDecode: the body
	op     op
	n      int    // bytes visited so far; read only when sizing
	out    []byte // opAppend: the body so far
	grp    int    // the current group: 0 is the head, then one per opt
	live   bool   // the current group is written (opAppend) or present (opDecode)
	nz     bool   // the current group has a nonzero field so far
	last   int    // opSize, opDecode: the last group with a nonzero field (the head counts)
	size   int    // opSize: the body length through group last
	tail   int    // opAppend: the groups to write; opDecode: the groups present
}

// opt ends the current group and starts the next optional one.
func (c *codec) opt() {
	c.endGroup()
	c.grp++
	switch c.op {
	case opAppend:
		c.live = c.grp <= c.tail
	case opDecode:
		if c.live = c.rem() > 0; c.live {
			c.tail = c.grp
		}
	}
}

func (c *codec) endGroup() {
	if c.grp == 0 || c.nz {
		c.last, c.size = c.grp, c.n
	}
	c.nz = false
}

// visit starts a field of n encoded bytes (when sizing) and says what to
// do with it. A field of a group that is skipped is zero, both in a
// message being encoded and in one being decoded, so the caller may
// still test it for nonzero.
func (c *codec) visit(n int) op {
	if !c.live {
		return opSkip
	}
	c.n += n
	return c.op
}

func (c *codec) u8(p *byte) {
	switch c.visit(1) {
	case opAppend:
		c.out = append(c.out, *p)
	case opDecode:
		*p = c.cursor.u8()
	}
	c.nz = c.nz || *p != 0
}

func (c *codec) u32(p *uint32) {
	switch c.visit(4) {
	case opAppend:
		c.out = appendU32(c.out, *p)
	case opDecode:
		*p = c.cursor.u32()
	}
	c.nz = c.nz || *p != 0
}

func (c *codec) u64(p *uint64) {
	switch c.visit(8) {
	case opAppend:
		c.out = appendU64(c.out, *p)
	case opDecode:
		*p = c.cursor.u64()
	}
	c.nz = c.nz || *p != 0
}

func (c *codec) i64(p *int64) {
	u := uint64(*p)
	c.u64(&u)
	*p = int64(u)
}

// flag is a boolean byte, 0 or 1.
func (c *codec) flag(p *bool) {
	switch c.visit(1) {
	case opAppend:
		c.out = appendBool(c.out, *p)
	case opDecode:
		*p = c.cursor.flag()
	}
	c.nz = c.nz || *p
}

// flagPair is one byte holding two flags, a in bit 0 and b in bit 1; a
// higher bit does not decode.
func (c *codec) flagPair(a, b *bool) {
	var v byte
	if *a {
		v |= 1
	}
	if *b {
		v |= 2
	}
	c.u8(&v)
	if v&^3 != 0 {
		c.failf("unknown flag bits %#x", v)
	}
	*a, *b = v&1 != 0, v&2 != 0
}

func (c *codec) str(p *string) {
	switch c.visit(4 + len(*p)) {
	case opAppend:
		c.out = appendStr(c.out, *p)
	case opDecode:
		*p = c.cursor.str()
	}
	c.nz = c.nz || *p != ""
}

// bytes decodes into a copy: the result outlives the frame buffer.
func (c *codec) bytes(p *[]byte) {
	switch c.visit(4 + len(*p)) {
	case opAppend:
		c.out = appendBytes(c.out, *p)
	case opDecode:
		*p = c.bytesField()
	}
	c.nz = c.nz || len(*p) > 0
}

// wval is a wire value. A relation is sized exactly up front, appended
// in place and decoded into capped row slices over one cell slab.
func (c *codec) wval(v *WVal) {
	switch c.visit(0) {
	case opSize:
		k, err := wvalSize(v)
		if err != nil && c.err == nil {
			c.err = err
		}
		c.n += k
	case opAppend:
		c.out = appendWVal(c.out, v)
	case opDecode:
		c.cursor.wval(v)
	}
	c.nz = c.nz || v.Kind != WNil
}

// list is a u32 element count; the caller walks the elements over the
// slice it returns. Decoding allocates the slice once, its length
// bounded by the bytes left at minSize bytes an element.
func list[T any](c *codec, p *[]T, minSize int) []T {
	switch c.visit(4) {
	case opAppend:
		c.out = appendU32(c.out, uint32(len(*p)))
	case opDecode:
		if n := c.count(minSize); n > 0 {
			*p = make([]T, n)
		}
	}
	c.nz = c.nz || len(*p) > 0
	return *p
}

func (c *codec) strs(p *[]string) {
	for i := range list(c, p, 4) { // smallest string: its length
		c.str(&(*p)[i])
	}
}
