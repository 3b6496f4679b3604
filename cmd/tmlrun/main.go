// Command tmlrun loads a function from a persistent Tycoon store and
// runs it, optionally after reflective runtime optimization across its
// module abstraction barriers (paper §4.1).
//
//	tmlrun -store db.tyst [-opt] [-steps] [-profile] [-explain] module.function [int args…]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/qopt"
	"tycoon/internal/reflectopt"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tmlrun: ")
	storePath := flag.String("store", "tycoon.tyst", "store file")
	dynOpt := flag.Bool("opt", false, "reflectively optimize before running")
	showSteps := flag.Bool("steps", false, "report abstract machine steps")
	profile := flag.Bool("profile", false, "report steps, engine transfers, frame allocations, vectorized rows and wall time")
	explain := flag.Bool("explain", false, "print the executed physical plan (chosen algorithms, est vs actual cardinalities)")
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("usage: tmlrun -store db.tyst [-opt] module.function [int args…]")
	}
	target := flag.Arg(0)
	dot := strings.IndexByte(target, '.')
	if dot <= 0 || dot == len(target)-1 {
		log.Fatalf("target %q must be module.function", target)
	}
	modName, fnName := target[:dot], target[dot+1:]

	args := make([]machine.Value, 0, flag.NArg()-1)
	for _, a := range flag.Args()[1:] {
		n, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			log.Fatalf("argument %q is not an integer", a)
		}
		args = append(args, machine.Int(n))
	}

	st, err := store.Open(*storePath)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	modOID, ok := st.Root(linker.ModuleRoot + modName)
	if !ok {
		log.Fatalf("module %s not found in %s", modName, *storePath)
	}

	m := machine.New(st)
	m.Out = os.Stdout
	mg := relalg.NewManager(st)
	mg.Register(m)

	if *dynOpt {
		mod := st.MustGet(modOID).(*store.Module)
		v, ok := mod.Lookup(fnName)
		if !ok || v.Kind != store.ValRef {
			log.Fatalf("%s.%s is not an exported function", modName, fnName)
		}
		ro := reflectopt.New(st, reflectopt.Options{})
		res, err := ro.OptimizeAndInstall(m.Code, v.Ref)
		if err != nil {
			log.Fatalf("optimize: %v", err)
		}
		fmt.Fprintf(os.Stderr, "optimized: %s (%d cross-barrier inlines)\n", res.Stats, res.Inlined)
		if *explain && len(res.Plan) > 0 {
			fmt.Fprintf(os.Stderr, "access plan:\n%s\n", qopt.RenderPlan(res.Plan))
		}
	}

	if *explain {
		mg.CaptureExplain(m)
	}
	start := time.Now()
	result, err := m.CallExport(modOID, fnName, args)
	elapsed := time.Since(start)
	if *explain {
		// Collect even on failure so the capture sink is cleaned up and a
		// partial plan still shows which operators ran.
		fmt.Fprintf(os.Stderr, "plan:\n%s\n", qopt.RenderPlan(mg.TakeExplain(m)))
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(result.Show())
	if *showSteps {
		fmt.Fprintf(os.Stderr, "%d machine steps\n", m.Steps())
	}
	if *profile {
		p := m.Profile()
		fmt.Fprintf(os.Stderr, "profile: %d steps, %d engine transfers, %d frames allocated, %d frames reused, %d vector / %d batched / %d row-at-a-time rows, %s wall time\n",
			p.Steps, p.Transfers, p.FramesAlloc, p.FramesReuse, p.VecRows, p.BatchRows, p.RowRows, elapsed)
	}
}
