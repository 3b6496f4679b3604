package machine

import (
	"testing"

	"tycoon/internal/tml"
)

// BenchmarkAblation_JoinPoints compares compiled execution (non-escaping
// continuations become frame-local join points) with the reference
// evaluator (every continuation is a heap closure) on the same procedure —
// DESIGN.md ablation 1.
func BenchmarkAblation_JoinPoints(b *testing.B) {
	src := `proc(n !ce !cc)
	  (Y proc(!c0 !loop !c)
	     (c cont() (loop 1 0)
	        cont(i acc)
	          (> i n
	             cont() (cc acc)
	             cont() (+ acc i ce cont(a2)
	                      (+ i 1 ce cont(i2) (loop i2 a2))))))`
	n, err := tml.Parse(src, popts)
	if err != nil {
		b.Fatal(err)
	}
	abs := n.(*tml.Abs)
	prog, err := CompileProc(abs, "sum")
	if err != nil {
		b.Fatal(err)
	}
	m := New(nil)
	compiled := &TAMClosure{Prog: prog, Blk: prog.Entry}
	interp := &Closure{Abs: abs}
	arg := []Value{Int(1000)}

	b.Run("tam-join-points", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Apply(compiled, arg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interp-heap-conts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.refApply(interp, arg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
