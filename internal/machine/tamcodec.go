package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"tycoon/internal/store"
)

// This file implements the persistent encoding of TAM programs. Compiled
// code lives in the store next to the PTML tree of the same function
// (paper Fig. 3); the ratio between the two encodings is the code-size
// experiment E3.

// ErrBadCode wraps TAM decoding failures.
var ErrBadCode = errors.New("machine: corrupt TAM code")

const tamMagic = 'T'
const tamVersion = 1

// EncodeProgram serialises a compiled program.
func EncodeProgram(p *Program) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(tamMagic)
	b.WriteByte(tamVersion)
	putUv(&b, uint64(p.Entry))
	putUv(&b, uint64(len(p.Blocks)))
	for _, blk := range p.Blocks {
		putStr(&b, blk.Name)
		putUv(&b, uint64(blk.NParams))
		putUv(&b, uint64(blk.NSlots))
		putUv(&b, uint64(len(blk.FreeNames)))
		for _, n := range blk.FreeNames {
			putStr(&b, n)
		}
		putUv(&b, uint64(len(blk.Labels)))
		for _, l := range blk.Labels {
			putUv(&b, uint64(l.PC))
			putSlots(&b, l.ParamSlots)
		}
		putUv(&b, uint64(len(blk.Lits)))
		for _, v := range blk.Lits {
			if err := putLit(&b, v); err != nil {
				return nil, err
			}
		}
		putUv(&b, uint64(len(blk.Instrs)))
		for i := range blk.Instrs {
			putInstr(&b, &blk.Instrs[i])
		}
	}
	return b.Bytes(), nil
}

// DecodeProgram deserialises a compiled program.
func DecodeProgram(data []byte) (*Program, error) {
	if len(data) < 2 || data[0] != tamMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCode)
	}
	if data[1] != tamVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadCode, data[1])
	}
	r := &tamReader{b: data, pos: 2}
	p := &Program{Entry: int(r.uv())}
	nblocks := int(r.uv())
	for i := 0; i < nblocks && r.err == nil; i++ {
		blk := &CodeBlock{
			Name:    r.str(),
			NParams: int(r.uv()),
			NSlots:  int(r.uv()),
		}
		nfree := int(r.uv())
		for j := 0; j < nfree && r.err == nil; j++ {
			blk.FreeNames = append(blk.FreeNames, r.str())
		}
		nlabels := int(r.uv())
		for j := 0; j < nlabels && r.err == nil; j++ {
			blk.Labels = append(blk.Labels, LabelInfo{PC: int(r.uv()), ParamSlots: r.slots()})
		}
		nlits := int(r.uv())
		for j := 0; j < nlits && r.err == nil; j++ {
			blk.Lits = append(blk.Lits, r.lit())
		}
		ninstrs := int(r.uv())
		for j := 0; j < ninstrs && r.err == nil; j++ {
			blk.Instrs = append(blk.Instrs, r.instr())
		}
		p.Blocks = append(p.Blocks, blk)
	}
	if r.err != nil {
		return nil, r.err
	}
	if p.Entry < 0 || p.Entry >= len(p.Blocks) {
		return nil, fmt.Errorf("%w: entry %d of %d blocks", ErrBadCode, p.Entry, len(p.Blocks))
	}
	prepareProgram(p)
	return p, nil
}

func putUv(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	b.Write(buf[:n])
}

func putIv(b *bytes.Buffer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	b.Write(buf[:n])
}

func putStr(b *bytes.Buffer, s string) {
	putUv(b, uint64(len(s)))
	b.WriteString(s)
}

func putLit(b *bytes.Buffer, v Value) error {
	switch v := v.(type) {
	case Int:
		b.WriteByte('i')
		putIv(b, int64(v))
	case Real:
		b.WriteByte('r')
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(v)))
		b.Write(buf[:])
	case Bool:
		b.WriteByte('b')
		if v {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	case Char:
		b.WriteByte('c')
		b.WriteByte(byte(v))
	case Str:
		b.WriteByte('s')
		putStr(b, string(v))
	case Unit:
		b.WriteByte('u')
	case Ref:
		b.WriteByte('o')
		putUv(b, uint64(v.OID))
	default:
		return fmt.Errorf("machine: literal pool cannot hold %T", v)
	}
	return nil
}

func putSrc(b *bytes.Buffer, s Src) {
	b.WriteByte(byte(s.Kind))
	putUv(b, uint64(s.Idx))
}

func putSlots(b *bytes.Buffer, slots []int) {
	putUv(b, uint64(len(slots)))
	for _, s := range slots {
		putUv(b, uint64(s))
	}
}

func putInstr(b *bytes.Buffer, in *Instr) {
	b.WriteByte(byte(in.Op))
	switch in.Op {
	case OpMove, OpSetCell:
		putUv(b, uint64(in.Dst))
		putSrc(b, in.Srcs[0])
	case OpClos:
		putUv(b, uint64(in.Dst))
		putUv(b, uint64(in.Block))
		putUv(b, uint64(len(in.Srcs)))
		for _, s := range in.Srcs {
			putSrc(b, s)
		}
	case OpCont:
		putUv(b, uint64(in.Dst))
		putUv(b, uint64(in.Target))
		putSlots(b, in.ParamSlots)
	case OpCell:
		putUv(b, uint64(in.Dst))
	case OpJump:
		putUv(b, uint64(in.Target))
	case OpPrim:
		putStr(b, in.Prim)
		putUv(b, uint64(len(in.Srcs)))
		for _, s := range in.Srcs {
			putSrc(b, s)
		}
		putUv(b, uint64(len(in.Conts)))
		for _, c := range in.Conts {
			if c.IsLabel {
				b.WriteByte(1)
				putUv(b, uint64(c.PC))
				putSlots(b, c.ParamSlots)
			} else {
				b.WriteByte(0)
				putSrc(b, c.Src)
			}
		}
	case OpCall:
		putSrc(b, in.Fn)
		putUv(b, uint64(len(in.Srcs)))
		for _, s := range in.Srcs {
			putSrc(b, s)
		}
	}
}

type tamReader struct {
	b   []byte
	pos int
	err error
}

func (r *tamReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at %d", ErrBadCode, what, r.pos)
	}
}

func (r *tamReader) u8() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail("byte")
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *tamReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *tamReader) iv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *tamReader) str() string {
	n := int(r.uv())
	if r.err != nil || n < 0 || r.pos+n > len(r.b) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *tamReader) lit() Value {
	switch r.u8() {
	case 'i':
		return Int(r.iv())
	case 'r':
		if r.pos+8 > len(r.b) {
			r.fail("real")
			return Unit{}
		}
		bits := binary.LittleEndian.Uint64(r.b[r.pos:])
		r.pos += 8
		return Real(math.Float64frombits(bits))
	case 'b':
		return Bool(r.u8() != 0)
	case 'c':
		return Char(r.u8())
	case 's':
		return Str(r.str())
	case 'u':
		return Unit{}
	case 'o':
		return Ref{OID: store.OID(r.uv())}
	default:
		r.fail("literal tag")
		return Unit{}
	}
}

func (r *tamReader) src() Src {
	return Src{Kind: SrcKind(r.u8()), Idx: int(r.uv())}
}

func (r *tamReader) slots() []int {
	n := int(r.uv())
	if r.err != nil || n < 0 || n > len(r.b) {
		r.fail("slot list")
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.uv())
	}
	return out
}

func (r *tamReader) instr() Instr {
	in := Instr{Op: Op(r.u8())}
	switch in.Op {
	case OpMove, OpSetCell:
		in.Dst = int(r.uv())
		in.Srcs = []Src{r.src()}
	case OpClos:
		in.Dst = int(r.uv())
		in.Block = int(r.uv())
		n := int(r.uv())
		for i := 0; i < n && r.err == nil; i++ {
			in.Srcs = append(in.Srcs, r.src())
		}
	case OpCont:
		in.Dst = int(r.uv())
		in.Target = int(r.uv())
		in.ParamSlots = r.slots()
	case OpCell:
		in.Dst = int(r.uv())
	case OpJump:
		in.Target = int(r.uv())
	case OpPrim:
		in.Prim = r.str()
		n := int(r.uv())
		for i := 0; i < n && r.err == nil; i++ {
			in.Srcs = append(in.Srcs, r.src())
		}
		nc := int(r.uv())
		for i := 0; i < nc && r.err == nil; i++ {
			if r.u8() == 1 {
				in.Conts = append(in.Conts, ContRef{IsLabel: true, PC: int(r.uv()), ParamSlots: r.slots()})
			} else {
				in.Conts = append(in.Conts, ContRef{Src: r.src()})
			}
		}
	case OpCall:
		in.Fn = r.src()
		n := int(r.uv())
		for i := 0; i < n && r.err == nil; i++ {
			in.Srcs = append(in.Srcs, r.src())
		}
	default:
		r.fail("opcode")
	}
	return in
}
