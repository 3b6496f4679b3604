// Command reflectopt reproduces the worked example of paper §4.1
// verbatim: a module complex exporting a hidden abstract data type with
// encapsulated accessor functions, a function abs built on top of it,
// and the reflective optimizer producing optimizedAbs — equivalent to
// sqrt(c.x*c.x + c.y*c.y) with every module barrier folded away.
package main

import (
	"fmt"
	"log"

	"tycoon"
	"tycoon/internal/tml"
)

const complexSrc = `
module complex export T, new, x, y
type T = Tuple x, y : Real end
let new(x : Real, y : Real) : T = tuple x, y end
let x(c : T) : Real = c.x
let y(c : T) : Real = c.y
end`

const geomSrc = `
module geom export abs
let abs(c : complex.T) : Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end`

func main() {
	sys, err := tycoon.Open("")
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	for _, src := range []string{complexSrc, geomSrc} {
		if _, err := sys.Install(src); err != nil {
			log.Fatal(err)
		}
	}

	// complex.new(3, 4)
	point, err := sys.Call("complex", "new", tycoon.Real(3), tycoon.Real(4))
	if err != nil {
		log.Fatal(err)
	}

	sys.ResetSteps()
	v, err := sys.Call("geom", "abs", point)
	if err != nil {
		log.Fatal(err)
	}
	stepsAbs := sys.Steps()
	fmt.Printf("abs(complex.new(3 4))          = %s   (%d steps)\n", v.Show(), stepsAbs)

	// let optimizedAbs = reflect.optimize(abs)
	res, err := sys.OptimizeFunction("geom", "abs")
	if err != nil {
		log.Fatal(err)
	}
	sys.ResetSteps()
	v, err = sys.Call("geom", "abs", point)
	if err != nil {
		log.Fatal(err)
	}
	stepsOpt := sys.Steps()
	fmt.Printf("optimizedAbs(complex.new(3 4)) = %s   (%d steps, %.2f× faster)\n",
		v.Show(), stepsOpt, float64(stepsAbs)/float64(stepsOpt))
	fmt.Printf("\ncross-barrier inlines: %d\nrewrites: %s\n", res.Inlined, res.Stats)
	fmt.Printf("\noptimized TML (cf. the paper's §4.1 listing):\n%s\n", tml.Print(res.Abs))

	// A second reflect.optimize of the unchanged function is served from
	// the pipeline's content-addressed cache: same code, zero passes run.
	res2, err := sys.OptimizeFunction("geom", "abs")
	if err != nil {
		log.Fatal(err)
	}
	cs := sys.Reflect.CacheStats()
	fmt.Printf("\nre-optimize: cache hit = %v (%d passes ran); cache: %d hits / %d misses\n",
		res2.CacheHit, len(res2.Pipeline.Passes), cs.Hits, cs.Misses)
}
