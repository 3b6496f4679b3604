// Command shipping demonstrates code shipping between Tycoon stores —
// the distributed-systems application paper §6 names for uniform
// persistent code representations: a query function compiled on one
// "node" is exported with its transitive code closure, imported on
// another node, bound against *that* node's relations and libraries, and
// reflectively re-optimized there against the target's runtime bindings
// (including its index structures).
package main

import (
	"fmt"
	"log"

	"tycoon"
	"tycoon/internal/machine"
	"tycoon/internal/reflectopt"
	"tycoon/internal/ship"
)

func buildNode(name string, rows int64) *tycoon.System {
	sys, err := tycoon.Open("")
	if err != nil {
		log.Fatal(err)
	}
	rel, err := sys.CreateRelation("emp", []tycoon.Column{
		{Name: "id", Type: tycoon.ColInt},
		{Name: "sal", Type: tycoon.ColInt},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < rows; i++ {
		if err := sys.InsertRow(rel, tycoon.IntVal(i), tycoon.IntVal(i*13)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("node %s: store with %d-row emp relation\n", name, rows)
	return sys
}

func main() {
	// Node A compiles the application.
	nodeA := buildNode("A", 100)
	defer nodeA.Close()
	if _, err := nodeA.Install(`
module app export byKey
rel emp : Rel(id : Int, sal : Int)
let byKey(k : Int) : Int =
  count(select e from e in emp where e.id = k end)
end`); err != nil {
		log.Fatal(err)
	}
	v, err := nodeA.Call("app", "byKey", tycoon.Int(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node A: byKey(7) = %s\n", v.Show())

	// Export the function: its closure, code, PTML and bindings travel;
	// the relation and the standard library are bound by name on arrival.
	bundle, err := ship.ExportFunction(nodeA.Store, "app", "byKey")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shipped bundle: %d bytes\n", len(bundle))

	// Node B has its own (bigger) emp relation.
	nodeB := buildNode("B", 50000)
	defer nodeB.Close()
	oid, err := ship.Import(nodeB.Store, bundle)
	if err != nil {
		log.Fatal(err)
	}

	nodeB.ResetSteps()
	v, err = nodeB.Machine.Apply(machine.Ref{OID: oid}, []machine.Value{tycoon.Int(31415)})
	if err != nil {
		log.Fatal(err)
	}
	scanSteps := nodeB.Steps()
	fmt.Printf("node B: imported byKey(31415) = %s   (%d steps, sequential scan)\n", v.Show(), scanSteps)

	// Reflective optimization on node B uses node B's runtime bindings —
	// its index on emp.id — which node A never knew about.
	ro := reflectopt.New(nodeB.Store, reflectopt.Options{})
	res, err := ro.OptimizeAndInstall(nodeB.Machine.Code, oid)
	if err != nil {
		log.Fatal(err)
	}
	nodeB.ResetSteps()
	v, err = nodeB.Machine.Apply(machine.Ref{OID: oid}, []machine.Value{tycoon.Int(31415)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node B: after reflect.optimize      = %s   (%d steps, index-scan=%d)\n",
		v.Show(), nodeB.Steps(), res.Stats.Rules["index-scan"])
}
