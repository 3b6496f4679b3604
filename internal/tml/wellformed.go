package tml

import (
	"errors"
	"fmt"
)

// This file implements the well-formedness checker for the constraints of
// paper §2.2. The compiler front end establishes these constraints and
// every rewrite rule preserves them (paper fn. 3). The compilation
// pipeline enforces both halves of that claim on every term it compiles:
// the source pass is checked, so ill-formed input (a shipped term, a
// stored tree) is refused before any rule or the code generator sees it,
// and every optimizer pass is checked, so a rule that breaks a constraint
// fails as a miscompile at that pass. tycfsck and bundle import check
// stored PTML trees with the same rules.

// Signature describes the calling convention of a primitive: the number of
// value arguments and continuation arguments it expects. Variadic
// primitives (array, vector, ==, …) report NVals < 0; NConts < 0 marks a
// variable number of continuations (the == case primitive).
type Signature struct {
	NVals  int
	NConts int
}

// SignatureFunc resolves the calling convention of a primitive by name.
// It returns ok=false for unknown primitives.
type SignatureFunc func(name string) (Signature, bool)

// CheckOpts configures Check.
type CheckOpts struct {
	// Signatures resolves primitive calling conventions; required for
	// constraint 2 (primitive arity) and for deciding which argument
	// positions of a primitive application may legally receive
	// continuations (constraint 3).
	Signatures SignatureFunc
	// AllowFree lists variables that may occur free in the term (for
	// example, module globals awaiting linkage). Any other free variable
	// is reported as an error.
	AllowFree []*Var
}

// ErrIllFormed wraps every violation reported by Check.
var ErrIllFormed = errors.New("ill-formed TML")

// Check verifies the well-formedness constraints of paper §2.2:
//
//  1. (arity, where statically visible) a literal abstraction in functional
//     position is applied to exactly as many arguments as it has parameters;
//  2. a primitive application matches the primitive's signature;
//  3. continuations do not escape: a continuation variable or continuation
//     abstraction may appear only in functional position or in a
//     continuation argument position, and a proc abstraction's body uses
//     no continuation bound outside it (a continuation is a consumer; it
//     cannot be captured as part of a value that outlives it);
//  4. unique binding: every variable is bound by at most one parameter
//     list, and every use is in the scope of its binder (or explicitly
//     allowed free);
//  5. a proc abstraction takes exactly two trailing continuation
//     parameters, a cont abstraction takes none.
func Check(n Node, opts CheckOpts) error {
	c := &checker{opts: opts, scope: make(map[*Var]int), knots: make(map[*Var]bool)}
	for _, v := range opts.AllowFree {
		c.scope[v] = 0
	}
	if err := c.node(n); err != nil {
		return fmt.Errorf("%w: %v", ErrIllFormed, err)
	}
	return nil
}

type checker struct {
	opts CheckOpts
	// scope maps every variable bound so far, or allowed free, to the
	// proc depth of its binder while it is in scope, and to outOfScope
	// after; depth is the number of proc abstractions enclosing the node
	// being checked.
	scope map[*Var]int
	depth int
	// knots are the final parameters of Y arguments: the only
	// continuation variables whose call may pass continuations (§2.3).
	knots map[*Var]bool
}

// outOfScope marks a variable whose binder has been left.
const outOfScope = -1

// absKind says where an abstraction occurs, which decides the shape
// rule and whether its body is a proc body.
type absKind int

const (
	absValue absKind = iota // an argument value: proc, cont or Y shape
	absRedex                // functional position: any parameter mix
	absKnot                 // the argument of Y
)

func (c *checker) node(n Node) error {
	switch n := n.(type) {
	case *Lit, *Oid, *Prim:
		return nil
	case *Var:
		return c.use(n)
	case *Abs:
		return c.abs(n)
	case *App:
		return c.app(n)
	default:
		return fmt.Errorf("unknown node type %T", n)
	}
}

func (c *checker) use(v *Var) error {
	d, ok := c.scope[v]
	if !ok || d == outOfScope {
		return fmt.Errorf("variable %s used out of scope", v)
	}
	if v.Cont && d != c.depth {
		return fmt.Errorf("continuation %s is used inside a proc abstraction but bound outside it", v)
	}
	return nil
}

func (c *checker) abs(a *Abs) error { return c.absShape(a, absValue) }

// absShape checks an abstraction. The proc/cont parameter shape
// constraint only applies to abstractions used as values (absValue,
// absKnot): an abstraction in functional position (a β-redex, e.g. the
// administrative bindings of join continuations or of a rebound
// exception continuation) may bind any mix of values and continuations.
// A proc used as a value is a barrier for continuations: its body runs
// whenever the proc is called, so it may use only the continuations it
// binds itself.
func (c *checker) absShape(a *Abs, kind absKind) error {
	// Constraint 5: parameter shape. A proc has exactly two trailing
	// continuation parameters (ce then cc); a cont has none. Abstractions
	// whose parameters are *all* continuations arise as arguments of the
	// Y primitive (paper §2.3) and are accepted as a third shape.
	nconts := 0
	for _, p := range a.Params {
		if p.Cont {
			nconts++
		}
	}
	n := len(a.Params)
	isProc := false
	switch {
	case kind == absRedex:
	case nconts == 0: // continuation abstraction
	case nconts == 2 && a.Params[n-1].Cont && a.Params[n-2].Cont:
		// proc(v₁ … vₙ ce cc)
		isProc = kind == absValue
	case n >= 2 && a.Params[0].Cont && a.Params[n-1].Cont:
		// Y-argument shape λ(c₀ v₁ … vₙ c): the recursive bindings v₁…vₙ
		// may be procedures and/or continuations (paper §2.3).
	default:
		return fmt.Errorf("abstraction %s has %d continuation parameters in a non-proc, non-cont shape", absHead(a), nconts)
	}
	if isProc {
		c.depth++ // an error ends the check, so only success restores it
	}
	for _, p := range a.Params {
		if _, seen := c.scope[p]; seen {
			return fmt.Errorf("variable %s bound more than once, or bound and used free (unique binding rule)", p)
		}
		c.scope[p] = c.depth
	}
	if err := c.app(a.Body); err != nil {
		return err
	}
	for _, p := range a.Params {
		c.scope[p] = outOfScope
	}
	if isProc {
		c.depth--
	}
	return nil
}

func (c *checker) app(app *App) error {
	// Functional position: any value except a simple literal. An OID is
	// legal — it may denote a procedure in the persistent store, which
	// the machine links and applies (paper Fig. 3).
	switch fn := app.Fn.(type) {
	case *Lit:
		return fmt.Errorf("literal %s in functional position", fn)
	case *Var:
		if err := c.use(fn); err != nil {
			return err
		}
	case *Abs:
		// Constraint 1: β-redex arity.
		if len(fn.Params) != len(app.Args) {
			return fmt.Errorf("abstraction of %d parameters applied to %d arguments", len(fn.Params), len(app.Args))
		}
	case *Prim:
		// Without signatures, the trailing continuation values mark the
		// continuation positions.
		sig := Signature{NVals: -1, NConts: -1}
		if c.opts.Signatures != nil {
			var ok bool
			if sig, ok = c.opts.Signatures(fn.Name); !ok {
				return fmt.Errorf("unknown primitive %q", fn.Name)
			}
			if err := checkPrimArity(fn.Name, sig, app.Args); err != nil {
				return err
			}
		}
		return c.primArgs(fn.Name, sig, app.Args)
	}

	// Non-primitive application: continuations may appear anywhere in the
	// argument list only if the callee is a known abstraction whose
	// corresponding parameter is a continuation; for unknown callees
	// (variables) the front end's type checker is responsible, and we
	// verify the weaker property that continuation values only flow into
	// trailing argument positions or the knot-tying call of a Y body.
	if abs, ok := app.Fn.(*Abs); ok {
		for i, arg := range app.Args {
			if err := c.argValue(arg, abs.Params[i].Cont); err != nil {
				return err
			}
		}
		// Functional position: the administrative β-redex may bind any
		// parameter mix (join continuations, rebound exception
		// continuations), so the proc/cont shape rule is relaxed.
		return c.absShape(abs, absRedex)
	}
	callee, _ := app.Fn.(*Var)
	for i, arg := range app.Args {
		var contPos bool
		switch {
		case callee != nil && c.knots[callee]:
			// The knot-tying call of a Y body, (c cont()app abs₁ … absₙ),
			// hands the recursive abstractions, procs and continuations
			// alike, to the fixed point operator (paper §2.3).
			contPos = true
		case callee != nil && callee.Cont:
			// A continuation consumes values only.
			contPos = false
		default:
			contPos = i >= len(app.Args)-2 // ce / cc positions of a proc call
		}
		if err := c.argValue(arg, contPos); err != nil {
			return err
		}
	}
	return nil
}

// primArgs checks the argument values of a primitive application. The
// trailing NConts positions (all trailing abstraction/continuation-variable
// positions when NConts < 0) are continuation positions.
func (c *checker) primArgs(name string, sig Signature, args []Value) error {
	nconts := sig.NConts
	if nconts < 0 {
		nconts = countTrailingConts(args)
	}
	split := len(args) - nconts
	for i, arg := range args {
		var err error
		if abs, ok := arg.(*Abs); ok && name == "Y" && len(abs.Params) > 0 {
			c.knots[abs.Params[len(abs.Params)-1]] = true
			err = c.absShape(abs, absKnot)
		} else {
			err = c.argValue(arg, i >= split)
		}
		if err != nil {
			return fmt.Errorf("primitive %s argument %d: %w", name, i, err)
		}
	}
	return nil
}

func countTrailingConts(args []Value) int {
	n := 0
	for i := len(args) - 1; i >= 0; i-- {
		if IsContValue(args[i]) {
			n++
		} else {
			break
		}
	}
	return n
}

// IsContValue reports whether v is (syntactically) a continuation: a
// continuation variable or an abstraction without continuation parameters.
func IsContValue(v Value) bool {
	switch v := v.(type) {
	case *Var:
		return v.Cont
	case *Abs:
		return v.IsCont()
	}
	return false
}

// SplitArgs splits a primitive argument list into value arguments and the
// trailing continuation arguments. Primitives with variadic continuation
// lists (the == case primitive) use this to recover their shape.
func SplitArgs(args []Value) (vals, conts []Value) {
	n := countTrailingConts(args)
	return args[:len(args)-n], args[len(args)-n:]
}

// argValue checks a single argument value; contPos reports whether the
// position may legally receive a continuation (constraint 3: continuations
// must not escape into value positions).
func (c *checker) argValue(arg Value, contPos bool) error {
	switch arg := arg.(type) {
	case *Lit, *Oid, *Prim:
		return nil
	case *Var:
		if arg.Cont && !contPos {
			return fmt.Errorf("continuation variable %s escapes into a value position", arg)
		}
		return c.use(arg)
	case *Abs:
		if arg.IsCont() && !contPos {
			return fmt.Errorf("continuation abstraction %s escapes into a value position", absHead(arg))
		}
		return c.abs(arg)
	default:
		return fmt.Errorf("unexpected argument node %T", arg)
	}
}

func checkPrimArity(name string, sig Signature, args []Value) error {
	nconts := sig.NConts
	if nconts < 0 {
		nconts = countTrailingConts(args)
	}
	nvals := len(args) - nconts
	if sig.NVals >= 0 && nvals != sig.NVals {
		return fmt.Errorf("primitive %s called with %d value arguments, wants %d", name, nvals, sig.NVals)
	}
	if sig.NConts >= 0 && nconts != sig.NConts {
		return fmt.Errorf("primitive %s called with %d continuations, wants %d", name, nconts, sig.NConts)
	}
	return nil
}
