package prim

import (
	"math"

	"tycoon/internal/tml"
)

// This file registers the standard primitive set of paper Fig. 2 (the
// primitives sufficient to compile a fully-fledged imperative,
// algorithmically-complete language), extended with the real-arithmetic,
// boolean, string and I/O primitives the TL standard library lowers to.
//
// Calling conventions (value arguments, then continuations):
//
//	(p a b ce cc)        integer/real arithmetic; ce on overflow/div-zero
//	(p a b cTrue cFalse) comparisons
//	(p a b c)            bit operations
//	(== v t₁…tₙ c₁…cₙ [cElse])  case analysis on object identity
//	(Y λ(c₀ v₁…vₙ c) app)       fixed point combinator
//	(pushHandler h c) (popHandler c) (raise v)   exception handling
//
// Every primitive calls exactly one of its continuations tail-recursively.

func init() {
	registerIntPrims()
	registerBitPrims()
	registerConvPrims()
	registerArrayPrims()
	registerCasePrims()
	registerControlPrims()
	registerRealPrims()
	registerBoolPrims()
	registerStringPrims()
	registerIOPrims()
}

// ccOf builds the application (cont results…), the uniform way a fold
// reduces a primitive call to an invocation of one continuation.
func ccOf(cont tml.Value, results ...tml.Value) *tml.App {
	return tml.NewApp(cont, results...)
}

func intLit(v tml.Value) (int64, bool) {
	l, ok := v.(*tml.Lit)
	if !ok || l.Kind != tml.LitInt {
		return 0, false
	}
	return l.Int, true
}

func realLit(v tml.Value) (float64, bool) {
	l, ok := v.(*tml.Lit)
	if !ok || l.Kind != tml.LitReal {
		return 0, false
	}
	return l.Real, true
}

func boolLit(v tml.Value) (bool, bool) {
	l, ok := v.(*tml.Lit)
	if !ok || l.Kind != tml.LitBool {
		return false, false
	}
	return l.Bool, true
}

func registerIntPrims() {
	type intOp struct {
		name string
		comm bool
		// ident simplifies calls with one literal operand, e.g. (+ x 0).
		ident func(a, b tml.Value) (tml.Value, bool)
	}
	ops := []intOp{
		{name: "+", comm: true,
			ident: func(a, b tml.Value) (tml.Value, bool) {
				if i, ok := intLit(b); ok && i == 0 {
					return a, true
				}
				if i, ok := intLit(a); ok && i == 0 {
					return b, true
				}
				return nil, false
			}},
		{name: "-",
			ident: func(a, b tml.Value) (tml.Value, bool) {
				if i, ok := intLit(b); ok && i == 0 {
					return a, true
				}
				return nil, false
			}},
		{name: "*", comm: true,
			ident: func(a, b tml.Value) (tml.Value, bool) {
				if i, ok := intLit(b); ok && i == 1 {
					return a, true
				}
				if i, ok := intLit(a); ok && i == 1 {
					return b, true
				}
				if i, ok := intLit(b); ok && i == 0 {
					return tml.Int(0), true
				}
				if i, ok := intLit(a); ok && i == 0 {
					return tml.Int(0), true
				}
				return nil, false
			}},
		{name: "/",
			ident: func(a, b tml.Value) (tml.Value, bool) {
				if i, ok := intLit(b); ok && i == 1 {
					return a, true
				}
				return nil, false
			}},
		{name: "%",
			ident: func(a, b tml.Value) (tml.Value, bool) {
				if i, ok := intLit(b); ok && (i == 1 || i == -1) {
					return tml.Int(0), true
				}
				return nil, false
			}},
	}
	for _, op := range ops {
		eval := IntOps[op.name].Arith
		Default.Register(&Desc{
			Name: op.name, NVals: 2, NConts: 2, Cost: 1,
			Effect: Pure, Commutative: op.comm,
			Fold: func(args []tml.Value) (*tml.App, bool) {
				a, b, cc := args[0], args[1], args[3]
				if x, ok := intLit(a); ok {
					if y, ok := intLit(b); ok {
						// A fault folds to nothing: the runtime takes ce.
						if r, ok := eval(x, y); ok {
							return ccOf(cc, tml.Int(r)), true
						}
						return nil, false
					}
				}
				if op.ident != nil {
					if v, ok := op.ident(a, b); ok {
						return ccOf(cc, v), true
					}
				}
				return nil, false
			},
		})
	}

	type cmpOp struct {
		name string
		self bool // result of (p x x)
	}
	cmps := []cmpOp{{"<", false}, {">", false}, {"<=", true}, {">=", true}}
	for _, op := range cmps {
		eval := IntOps[op.name].Cmp
		Default.Register(&Desc{
			Name: op.name, NVals: 2, NConts: 2, Cost: 1, Effect: Pure,
			Fold: func(args []tml.Value) (*tml.App, bool) {
				a, b, ct, cf := args[0], args[1], args[2], args[3]
				if x, ok := intLit(a); ok {
					if y, ok := intLit(b); ok {
						if eval(x, y) {
							return ccOf(ct), true
						}
						return ccOf(cf), true
					}
				}
				if va, ok := a.(*tml.Var); ok {
					if vb, ok := b.(*tml.Var); ok && va == vb {
						if op.self {
							return ccOf(ct), true
						}
						return ccOf(cf), true
					}
				}
				return nil, false
			},
		})
	}

	// neg is a convenience primitive the front end uses for unary minus;
	// it fails (ce) on MinInt64.
	neg := IntOps["neg"].Neg
	Default.Register(&Desc{
		Name: "neg", NVals: 1, NConts: 2, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := intLit(args[0]); ok {
				if r, ok := neg(x); ok {
					return ccOf(args[2], tml.Int(r)), true
				}
			}
			return nil, false
		},
	})
}

func registerBitPrims() {
	type bitOp struct {
		name  string
		rzero func(a tml.Value) (tml.Value, bool) // simplification for b == 0
	}
	keep := func(a tml.Value) (tml.Value, bool) { return a, true }
	zero := func(tml.Value) (tml.Value, bool) { return tml.Int(0), true }
	ops := []bitOp{{"<<", keep}, {">>", keep}, {"&", zero}, {"|", keep}, {"^", keep}}
	for _, op := range ops {
		eval := IntOps[op.name].Bits
		Default.Register(&Desc{
			Name: op.name, NVals: 2, NConts: 1, Cost: 1, Effect: Pure,
			Commutative: op.name == "&" || op.name == "|" || op.name == "^",
			Fold: func(args []tml.Value) (*tml.App, bool) {
				a, b, c := args[0], args[1], args[2]
				if x, ok := intLit(a); ok {
					if y, ok := intLit(b); ok {
						return ccOf(c, tml.Int(eval(x, y))), true
					}
				}
				if y, ok := intLit(b); ok && y == 0 {
					if v, ok := op.rzero(a); ok {
						return ccOf(c, v), true
					}
				}
				return nil, false
			},
		})
	}
}

func registerConvPrims() {
	Default.Register(&Desc{
		Name: "char2int", NVals: 1, NConts: 1, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if l, ok := args[0].(*tml.Lit); ok && l.Kind == tml.LitChar {
				return ccOf(args[1], tml.Int(int64(l.Ch))), true
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "int2char", NVals: 1, NConts: 1, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := intLit(args[0]); ok {
				return ccOf(args[1], tml.Char(byte(x))), true
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "int2real", NVals: 1, NConts: 1, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := intLit(args[0]); ok {
				return ccOf(args[1], tml.Real(float64(x))), true
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "real2int", NVals: 1, NConts: 2, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := realLit(args[0]); ok {
				if math.IsNaN(x) || x > math.MaxInt64 || x < math.MinInt64 {
					return nil, false
				}
				return ccOf(args[2], tml.Int(int64(x))), true
			}
			return nil, false
		},
	})
}

func registerArrayPrims() {
	// Array and byte array primitives. Allocation is classified Pure:
	// creating an object that is never referenced is unobservable, so the
	// dead-call rule may remove it; access is Reader, update Writer.
	Default.Register(&Desc{Name: "array", NVals: -1, NConts: 1, Cost: 4, Effect: Pure})
	Default.Register(&Desc{Name: "vector", NVals: -1, NConts: 1, Cost: 4, Effect: Pure})
	Default.Register(&Desc{Name: "new", NVals: 2, NConts: 1, Cost: 4, Effect: Pure})
	Default.Register(&Desc{Name: "anew", NVals: 2, NConts: 1, Cost: 4, Effect: Pure})
	Default.Register(&Desc{Name: "[]", NVals: 2, NConts: 1, Cost: 2, Effect: Reader})
	Default.Register(&Desc{Name: "[:=]", NVals: 3, NConts: 1, Cost: 2, Effect: Writer})
	Default.Register(&Desc{Name: "b[]", NVals: 2, NConts: 1, Cost: 2, Effect: Reader})
	Default.Register(&Desc{Name: "b[:=]", NVals: 3, NConts: 1, Cost: 2, Effect: Writer})
	Default.Register(&Desc{Name: "size", NVals: 1, NConts: 1, Cost: 2, Effect: Reader})
	Default.Register(&Desc{Name: "move", NVals: 5, NConts: 1, Cost: 8, Effect: Writer})
	Default.Register(&Desc{Name: "bmove", NVals: 5, NConts: 1, Cost: 8, Effect: Writer})
}

func registerCasePrims() {
	// (== v t₁…tₙ c₁…cₙ [cElse]) — case analysis based on object identity
	// with an optional else branch. Folds when the scrutinee and every tag
	// needed for the decision are manifest constants.
	Default.Register(&Desc{
		Name: "==", NVals: -1, NConts: -1, Cost: 2, Effect: Pure,
		Fold: foldCase,
	})
}

func foldCase(args []tml.Value) (*tml.App, bool) {
	vals, conts := tml.SplitArgs(args)
	if len(vals) == 0 || len(conts) == 0 {
		return nil, false
	}
	v := vals[0]
	tags := vals[1:]
	hasElse := len(conts) == len(tags)+1
	if !hasElse && len(conts) != len(tags) {
		return nil, false // malformed; leave for the checker
	}
	for i, tag := range tags {
		same, known := identical(v, tag)
		if !known {
			return nil, false
		}
		if same {
			return ccOf(conts[i]), true
		}
	}
	if hasElse {
		return ccOf(conts[len(conts)-1]), true
	}
	return nil, false
}

// identical decides object identity between two manifest TML values.
// known=false means the decision needs runtime information.
func identical(a, b tml.Value) (same, known bool) {
	switch a := a.(type) {
	case *tml.Lit:
		if bl, ok := b.(*tml.Lit); ok {
			return a.Eq(bl), true
		}
		if _, ok := b.(*tml.Oid); ok {
			return false, true // literals are never identical to store objects
		}
	case *tml.Oid:
		if bo, ok := b.(*tml.Oid); ok {
			return a.Ref == bo.Ref, true
		}
		if _, ok := b.(*tml.Lit); ok {
			return false, true
		}
	case *tml.Var:
		if bv, ok := b.(*tml.Var); ok && a == bv {
			return true, true
		}
	}
	return false, false
}

func registerControlPrims() {
	Default.Register(&Desc{Name: "Y", NVals: 1, NConts: 0, Cost: 4, Effect: Control})
	Default.Register(&Desc{Name: "ccall", NVals: -1, NConts: 2, Cost: 16, Effect: Control})
	Default.Register(&Desc{Name: "pushHandler", NVals: 0, NConts: 2, Cost: 3, Effect: Control, CapturesConts: true})
	Default.Register(&Desc{Name: "popHandler", NVals: 0, NConts: 1, Cost: 3, Effect: Control})
	Default.Register(&Desc{Name: "raise", NVals: 1, NConts: 0, Cost: 4, Effect: Control})
}

func registerRealPrims() {
	type realOp struct {
		name string
		comm bool
		eval func(a, b float64) float64
	}
	ops := []realOp{
		{"r+", true, func(a, b float64) float64 { return a + b }},
		{"r-", false, func(a, b float64) float64 { return a - b }},
		{"r*", true, func(a, b float64) float64 { return a * b }},
		{"r/", false, func(a, b float64) float64 { return a / b }},
	}
	for _, op := range ops {
		Default.Register(&Desc{
			Name: op.name, NVals: 2, NConts: 2, Cost: 1, Effect: Pure, Commutative: op.comm,
			Fold: func(args []tml.Value) (*tml.App, bool) {
				if x, ok := realLit(args[0]); ok {
					if y, ok := realLit(args[1]); ok {
						r := op.eval(x, y)
						if math.IsNaN(r) || math.IsInf(r, 0) {
							return nil, false // runtime raises via ce
						}
						return ccOf(args[3], tml.Real(r)), true
					}
				}
				return nil, false
			},
		})
	}
	cmps := []struct {
		name string
		eval func(a, b float64) bool
	}{
		{"r<", func(a, b float64) bool { return a < b }},
		{"r>", func(a, b float64) bool { return a > b }},
		{"r<=", func(a, b float64) bool { return a <= b }},
		{"r>=", func(a, b float64) bool { return a >= b }},
	}
	for _, op := range cmps {
		Default.Register(&Desc{
			Name: op.name, NVals: 2, NConts: 2, Cost: 1, Effect: Pure,
			Fold: func(args []tml.Value) (*tml.App, bool) {
				if x, ok := realLit(args[0]); ok {
					if y, ok := realLit(args[1]); ok {
						if op.eval(x, y) {
							return ccOf(args[2]), true
						}
						return ccOf(args[3]), true
					}
				}
				return nil, false
			},
		})
	}
	Default.Register(&Desc{
		Name: "rneg", NVals: 1, NConts: 1, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := realLit(args[0]); ok {
				return ccOf(args[1], tml.Real(-x)), true
			}
			return nil, false
		},
	})
}

func registerBoolPrims() {
	Default.Register(&Desc{
		Name: "and", NVals: 2, NConts: 1, Cost: 1, Effect: Pure, Commutative: true,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			a, b, c := args[0], args[1], args[2]
			if x, ok := boolLit(a); ok {
				if x {
					return ccOf(c, b), true
				}
				return ccOf(c, tml.Bool(false)), true
			}
			if y, ok := boolLit(b); ok {
				if y {
					return ccOf(c, a), true
				}
				return ccOf(c, tml.Bool(false)), true
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "or", NVals: 2, NConts: 1, Cost: 1, Effect: Pure, Commutative: true,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			a, b, c := args[0], args[1], args[2]
			if x, ok := boolLit(a); ok {
				if !x {
					return ccOf(c, b), true
				}
				return ccOf(c, tml.Bool(true)), true
			}
			if y, ok := boolLit(b); ok {
				if !y {
					return ccOf(c, a), true
				}
				return ccOf(c, tml.Bool(true)), true
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "not", NVals: 1, NConts: 1, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := boolLit(args[0]); ok {
				return ccOf(args[1], tml.Bool(!x)), true
			}
			return nil, false
		},
	})
	// if: (if b cTrue cFalse) — branch on a boolean value. The front end
	// compiles conditionals to this primitive.
	Default.Register(&Desc{
		Name: "if", NVals: 1, NConts: 2, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := boolLit(args[0]); ok {
				if x {
					return ccOf(args[1]), true
				}
				return ccOf(args[2]), true
			}
			return nil, false
		},
	})
}

func registerStringPrims() {
	strLit := func(v tml.Value) (string, bool) {
		l, ok := v.(*tml.Lit)
		if !ok || l.Kind != tml.LitStr {
			return "", false
		}
		return l.Str, true
	}
	Default.Register(&Desc{
		Name: "s+", NVals: 2, NConts: 1, Cost: 6, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := strLit(args[0]); ok {
				if y, ok := strLit(args[1]); ok {
					return ccOf(args[2], tml.Str(x+y)), true
				}
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "s=", NVals: 2, NConts: 2, Cost: 4, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := strLit(args[0]); ok {
				if y, ok := strLit(args[1]); ok {
					if x == y {
						return ccOf(args[2]), true
					}
					return ccOf(args[3]), true
				}
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "s<", NVals: 2, NConts: 2, Cost: 4, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := strLit(args[0]); ok {
				if y, ok := strLit(args[1]); ok {
					if x < y {
						return ccOf(args[2]), true
					}
					return ccOf(args[3]), true
				}
			}
			return nil, false
		},
	})
	Default.Register(&Desc{
		Name: "slen", NVals: 1, NConts: 1, Cost: 1, Effect: Pure,
		Fold: func(args []tml.Value) (*tml.App, bool) {
			if x, ok := strLit(args[0]); ok {
				return ccOf(args[1], tml.Int(int64(len(x)))), true
			}
			return nil, false
		},
	})
	Default.Register(&Desc{Name: "s[]", NVals: 2, NConts: 2, Cost: 2, Effect: Pure})
	Default.Register(&Desc{Name: "int2str", NVals: 1, NConts: 1, Cost: 8, Effect: Pure})
	Default.Register(&Desc{Name: "real2str", NVals: 1, NConts: 1, Cost: 8, Effect: Pure})
}

func registerIOPrims() {
	Default.Register(&Desc{Name: "print", NVals: 1, NConts: 1, Cost: 16, Effect: Writer})
}
