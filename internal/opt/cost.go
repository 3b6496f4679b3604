package opt

import (
	"tycoon/internal/prim"
	"tycoon/internal/tml"
)

// Cost estimates the runtime cost of a TML term in instructions of the
// idealized abstract machine (paper §2.3 item 3). Primitive applications
// cost their registered estimate; calls of unknown procedures cost the
// call overhead; abstraction bodies contribute the code they will execute.
// Argument passing costs one instruction per argument.
//
// The estimate deliberately counts each abstraction body once, regardless
// of how often it may run — it is a code-size-flavoured proxy that the
// inlining heuristic (paper: "estimate the possible savings resulting from
// the inlining of a TML procedure") weighs against thresholds, not a
// execution-time prediction.
func Cost(n tml.Node) int {
	switch n := n.(type) {
	case *tml.Lit, *tml.Oid, *tml.Var, *tml.Prim:
		return 0
	case *tml.Abs:
		return Cost(n.Body)
	case *tml.App:
		c := len(n.Args)
		switch fn := n.Fn.(type) {
		case *tml.Prim:
			if d, ok := prim.Lookup(fn.Name); ok {
				c += d.Cost
			} else {
				c += callOverhead
			}
		case *tml.Var:
			c += callOverhead
		case *tml.Abs:
			c += Cost(fn) // β-redex: the body runs inline
		}
		for _, a := range n.Args {
			c += Cost(a)
		}
		return c
	default:
		return 0
	}
}
