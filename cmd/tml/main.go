// Command tml is the TML toolchain over a persistent Tycoon store: it
// compiles TL modules into a store, runs and inspects stored functions,
// optimizes TML terms, and ships compiled code between stores.
//
//	tml compile -store db.tyst [-O] [-direct] [-strip] file.tl…
//	tml run     -store db.tyst [-opt] [-steps] [-profile] [-explain] function [int args…]
//	tml dump    -store db.tyst [-oid 0x2a | -fn function]
//	tml opt     [-no-expand] [-no-fold] [-rounds N] [-query] [-stats] [-quiet] [file]
//	tml ship    -store db.tyst -export function [-out f.bundle]
//	tml ship    -store db.tyst -import f.bundle [-as name]
//
// A function is module.function, or a root name holding a closure (any
// name with a ':', such as shipped:app.fib).
//
// compile and ship -import open the store through tycoon.Open, creating
// it with the standard library if the path does not exist; run does the
// same but refuses a missing path, as do dump and ship -export. A verb
// writes in one transaction, which commits only when the verb succeeds,
// so a compile, a run or an import is all or nothing (a store the verb
// created keeps the standard library that opening it installed).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"time"

	"tycoon"
	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/qopt"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A verb declares its flags on a flag set and returns the action that
// runs, once they are parsed, on the remaining arguments, writing results
// to out and diagnostics to diag.
type verb func(flags *flag.FlagSet) action

type action func(args []string, out, diag io.Writer) error

var verbs = map[string]verb{
	"compile": compile,
	"run":     runFn,
	"dump":    dump,
	"opt":     optimize,
	"ship":    shipCode,
}

// run executes one tml command line and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || verbs[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: tml compile|run|dump|opt|ship [flags] [args]")
		return 2
	}
	flags := flag.NewFlagSet("tml "+args[0], flag.ContinueOnError)
	flags.SetOutput(stderr)
	act := verbs[args[0]](flags)
	if err := flags.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has printed the error and its defaults
	}
	if err := act(flags.Args(), stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "tml %s: %v\n", args[0], err)
		return 1
	}
	return 0
}

// requireStore refuses a store path that does not exist. Only compile
// and ship -import create a store: the other verbs refuse a mistyped path
// instead of silently creating an empty store there.
func requireStore(path string) error {
	_, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store %s does not exist", path)
	}
	return err
}

// inTxn runs a verb's writes f in one transaction over sys's store and
// commits it when f succeeds; a failing f commits nothing.
func inTxn(sys *tycoon.System, f func(tx *store.Txn) error) error {
	tx := sys.Store.Begin()
	defer tx.Abort()
	if err := f(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// closeSys closes sys at the end of a verb, reporting the close's error
// unless the verb already failed.
func closeSys(sys *tycoon.System, err *error) {
	if cerr := sys.Close(); *err == nil {
		*err = cerr
	}
}

// function resolves a function argument in st: a root name (anything
// with a ':') or module.function.
func function(st store.View, target string) (store.OID, error) {
	if strings.Contains(target, ":") {
		oid, ok := st.Root(target)
		if !ok {
			return store.Nil, fmt.Errorf("no root %s", target)
		}
		return oid, nil
	}
	mod, fn, ok := strings.Cut(target, ".")
	if !ok || mod == "" || fn == "" {
		return store.Nil, fmt.Errorf("function %q must be module.function or a root name", target)
	}
	return linker.Function(st, mod, fn)
}

func compile(flags *flag.FlagSet) action {
	storePath := flags.String("store", "tycoon.tyst", "store file")
	optimize := flags.Bool("O", false, "local compile-time optimization")
	direct := flags.Bool("direct", false, "compile scalars to primitives directly")
	strip := flags.Bool("strip", false, "omit PTML from installed closures")
	return func(files []string, out, _ io.Writer) (err error) {
		if len(files) == 0 {
			return errors.New("usage: tml compile -store db.tyst [flags] file.tl…")
		}
		// A new or empty store gets the standard library.
		info, err := os.Stat(*storePath)
		fresh := errors.Is(err, fs.ErrNotExist) || (err == nil && info.Size() == 0)
		sys, err := tycoon.Open(*storePath, tycoon.Config{LocalOpt: *optimize, DirectPrims: *direct, StripPTML: *strip})
		if err != nil {
			return err
		}
		defer closeSys(sys, &err)
		if fresh {
			fmt.Fprintln(out, "installed standard library (int, real, array, str)")
		}
		return inTxn(sys, func(tx *store.Txn) error {
			for _, path := range files {
				src, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				unit, err := sys.Compiler.Compile(string(src))
				if err != nil {
					return fmt.Errorf("%s: %w", path, err)
				}
				oid, err := sys.Linker.InstallModule(tx, unit)
				if err != nil {
					return fmt.Errorf("%s: %w", path, err)
				}
				fmt.Fprintf(out, "installed module %s (oid 0x%x, %d functions, %d constants)\n",
					unit.Name, uint64(oid), len(unit.Funcs), len(unit.Consts))
			}
			return nil
		})
	}
}

// runFn loads a function from a store and runs it, optionally after
// reflective runtime optimization across its module abstraction barriers
// (paper §4.1).
func runFn(flags *flag.FlagSet) action {
	storePath := flags.String("store", "tycoon.tyst", "store file")
	dynOpt := flags.Bool("opt", false, "reflectively optimize before running")
	showSteps := flags.Bool("steps", false, "report abstract machine steps")
	profile := flags.Bool("profile", false, "report steps, engine transfers, frame allocations, the continuation stack, vectorized rows and wall time")
	explain := flags.Bool("explain", false, "print the executed physical plan (chosen algorithms, est vs actual cardinalities)")
	return func(args []string, out, diag io.Writer) (err error) {
		if len(args) < 1 {
			return errors.New("usage: tml run -store db.tyst [-opt] function [int args…]")
		}
		callArgs := make([]machine.Value, 0, len(args)-1)
		for _, a := range args[1:] {
			n, err := strconv.ParseInt(a, 10, 64)
			if err != nil {
				return fmt.Errorf("argument %q is not an integer", a)
			}
			callArgs = append(callArgs, machine.Int(n))
		}
		if err := requireStore(*storePath); err != nil {
			return err
		}
		sys, err := tycoon.Open(*storePath, tycoon.Config{Out: out})
		if err != nil {
			return err
		}
		defer closeSys(sys, &err)
		fn, err := function(sys.Store, args[0])
		if err != nil {
			return err
		}
		m := sys.Machine
		if *dynOpt {
			res, err := sys.Reflect.OptimizeAndInstall(m.Code, fn)
			if err != nil {
				return fmt.Errorf("optimize: %w", err)
			}
			fmt.Fprintf(diag, "optimized: %s (%d cross-barrier inlines)\n", res.Stats, res.Inlined)
			if *explain && len(res.Plan) > 0 {
				fmt.Fprintf(diag, "access plan:\n%s\n", qopt.RenderPlan(res.Plan))
			}
		}

		if *explain {
			sys.Rel.CaptureExplain(m)
		}
		var result machine.Value
		start := time.Now()
		err = inTxn(sys, func(tx *store.Txn) (err error) {
			m.Store = tx
			defer func() { m.Store = sys.Store }()
			result, err = m.Apply(machine.Ref{OID: fn}, callArgs)
			return err
		})
		elapsed := time.Since(start)
		if *explain {
			// Collect even on failure so the capture sink is cleaned up and a
			// partial plan still shows which operators ran.
			fmt.Fprintf(diag, "plan:\n%s\n", qopt.RenderPlan(sys.Rel.TakeExplain(m)))
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(out, result.Show())
		if *showSteps {
			fmt.Fprintf(diag, "%d machine steps\n", m.Steps())
		}
		if *profile {
			p := m.Profile()
			fmt.Fprintf(diag, "profile: %d steps, %d engine transfers, %d frames allocated, %d frames reused, %d continuations pushed / %d on the heap / stack depth %d, %d library references resolved from the memo, %d vector / %d row-at-a-time rows, %s wall time\n",
				p.Steps, p.Transfers, p.FramesAlloc, p.FramesReuse, p.ContsPushed, p.ContsHeap, p.MaxContDepth,
				p.Resolved, p.VecRows, p.RowRows, elapsed)
		}
		return nil
	}
}

// shipCode moves compiled code between stores — the paper's §6
// code-shipping application. Export writes a self-contained bundle of a
// function's transitive code closure; import replays it into another
// store, binding relations and library modules by name against the
// target, and can register the imported closure as the root shipped:name.
func shipCode(flags *flag.FlagSet) action {
	storePath := flags.String("store", "tycoon.tyst", "store file")
	exportFn := flags.String("export", "", "function to export")
	bundlePath := flags.String("out", "code.bundle", "bundle file to write (with -export)")
	importPath := flags.String("import", "", "bundle file to import")
	as := flags.String("as", "", "register the imported closure as root shipped:<name> (optional)")
	return func(_ []string, out, _ io.Writer) (err error) {
		switch {
		case *exportFn != "":
			if err := requireStore(*storePath); err != nil {
				return err
			}
			st, err := store.Open(*storePath)
			if err != nil {
				return err
			}
			defer st.Close()
			fn, err := function(st, *exportFn)
			if err != nil {
				return err
			}
			bundle, err := ship.Export(st, fn)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*bundlePath, bundle, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "exported %s: %d bytes → %s\n", *exportFn, len(bundle), *bundlePath)
			return nil
		case *importPath != "":
			bundle, err := os.ReadFile(*importPath)
			if err != nil {
				return err
			}
			sys, err := tycoon.Open(*storePath)
			if err != nil {
				return err
			}
			defer closeSys(sys, &err)
			return inTxn(sys, func(tx *store.Txn) error {
				oid, err := ship.Import(tx, bundle)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "imported %s as oid 0x%x\n", *importPath, uint64(oid))
				if *as != "" {
					tx.SetRoot("shipped:"+*as, oid)
					fmt.Fprintf(out, "registered root shipped:%s\n", *as)
				}
				return nil
			})
		default:
			return errors.New("usage: tml ship -store db.tyst (-export function [-out f.bundle] | -import f.bundle [-as name])")
		}
	}
}
