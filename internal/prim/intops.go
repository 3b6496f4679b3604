package prim

import "math"

// IntOp is the definition of one integer primitive; exactly one field is
// set.
type IntOp struct {
	// Arith computes a checked operator. ok=false is a fault — overflow,
	// division by zero — on which the primitive takes its exception
	// continuation, and which constant folding leaves to the runtime.
	Arith func(a, b int64) (r int64, ok bool)
	// Neg negates, reporting false on overflow (neg MinInt64).
	Neg func(a int64) (r int64, ok bool)
	// Cmp decides a comparison: true takes the first continuation.
	Cmp func(a, b int64) bool
	// Bits computes a bit operation; it never faults, and shifts count
	// modulo 64.
	Bits func(a, b int64) int64
}

// IntOps is the one definition of the integer primitives: + - * / %,
// neg, < > <= >= and << >> & | ^. The compile-time Fold rules below and
// the machine's executors, generic and fused, are all built from it, so
// a call folded by the optimizer and the same call executed agree on
// every operand, faults included.
var IntOps = map[string]IntOp{
	"+": {Arith: func(a, b int64) (int64, bool) { return a + b, !AddOverflows(a, b) }},
	"-": {Arith: func(a, b int64) (int64, bool) { return a - b, !SubOverflows(a, b) }},
	"*": {Arith: func(a, b int64) (int64, bool) { return a * b, !MulOverflows(a, b) }},
	"/": {Arith: func(a, b int64) (int64, bool) {
		if b == 0 || (a == math.MinInt64 && b == -1) {
			return 0, false
		}
		return a / b, true
	}},
	"%": {Arith: func(a, b int64) (int64, bool) {
		if b == 0 {
			return 0, false
		}
		return a % b, true
	}},
	"neg": {Neg: func(a int64) (int64, bool) { return -a, a != math.MinInt64 }},
	"<":   {Cmp: func(a, b int64) bool { return a < b }},
	">":   {Cmp: func(a, b int64) bool { return a > b }},
	"<=":  {Cmp: func(a, b int64) bool { return a <= b }},
	">=":  {Cmp: func(a, b int64) bool { return a >= b }},
	"<<":  {Bits: func(a, b int64) int64 { return a << uint64(b&63) }},
	">>":  {Bits: func(a, b int64) int64 { return a >> uint64(b&63) }},
	"&":   {Bits: func(a, b int64) int64 { return a & b }},
	"|":   {Bits: func(a, b int64) int64 { return a | b }},
	"^":   {Bits: func(a, b int64) int64 { return a ^ b }},
}

// AddOverflows reports whether a+b overflows int64.
func AddOverflows(a, b int64) bool {
	s := a + b
	return (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0)
}

// SubOverflows reports whether a-b overflows int64.
func SubOverflows(a, b int64) bool {
	d := a - b
	return (a >= 0 && b < 0 && d < 0) || (a < 0 && b > 0 && d >= 0)
}

// MulOverflows reports whether a*b overflows int64.
func MulOverflows(a, b int64) bool {
	if a == 0 || b == 0 {
		return false
	}
	p := a * b
	return p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64)
}
