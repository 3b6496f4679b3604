package machine

import (
	"fmt"
	"strings"
)

// Disasm renders a compiled program in a readable assembly-like listing
// for tml dump and for debugging code generation.
func Disasm(p *Program) string {
	var b strings.Builder
	for i, blk := range p.Blocks {
		marker := ""
		if i == p.Entry {
			marker = " (entry)"
		}
		fmt.Fprintf(&b, "block %d %q%s: params=%d slots=%d\n", i, blk.Name, marker, blk.NParams, blk.NSlots)
		if len(blk.FreeNames) > 0 {
			fmt.Fprintf(&b, "  free: %s\n", strings.Join(blk.FreeNames, " "))
		}
		for j, lit := range blk.Lits {
			fmt.Fprintf(&b, "  lit %d: %s\n", j, lit.Show())
		}
		for pc := range blk.Instrs {
			fmt.Fprintf(&b, "  %4d: %s\n", pc, disasmInstr(&blk.Instrs[pc]))
		}
	}
	return b.String()
}

func disasmInstr(in *Instr) string {
	switch in.Op {
	case OpMove:
		return fmt.Sprintf("move  s%d ← %s", in.Dst, srcStr(in.Srcs[0]))
	case OpClos:
		return fmt.Sprintf("clos  s%d ← block %d %s", in.Dst, in.Block, srcsStr(in.Srcs))
	case OpCont:
		return fmt.Sprintf("cont  s%d ← pc %d params %v", in.Dst, in.Target, in.ParamSlots)
	case OpCell:
		return fmt.Sprintf("cell  s%d", in.Dst)
	case OpSetCell:
		return fmt.Sprintf("setc  s%d ← %s", in.Dst, srcStr(in.Srcs[0]))
	case OpJump:
		return fmt.Sprintf("jump  pc %d", in.Target)
	case OpPrim:
		var conts []string
		for _, c := range in.Conts {
			if c.IsLabel {
				conts = append(conts, fmt.Sprintf("→pc %d %v", c.PC, c.ParamSlots))
			} else {
				conts = append(conts, srcStr(c.Src))
			}
		}
		return fmt.Sprintf("prim  %s %s ⇒ [%s]", in.Prim, srcsStr(in.Srcs), strings.Join(conts, ", "))
	case OpCall:
		return fmt.Sprintf("call  %s %s", srcStr(in.Fn), srcsStr(in.Srcs))
	default:
		return fmt.Sprintf("op(%d)", in.Op)
	}
}

func srcStr(s Src) string {
	switch s.Kind {
	case SrcSlot:
		return fmt.Sprintf("s%d", s.Idx)
	case SrcLit:
		return fmt.Sprintf("l%d", s.Idx)
	case SrcFree:
		return fmt.Sprintf("f%d", s.Idx)
	}
	return "?"
}

func srcsStr(srcs []Src) string {
	parts := make([]string, len(srcs))
	for i, s := range srcs {
		parts[i] = srcStr(s)
	}
	return "(" + strings.Join(parts, " ") + ")"
}
