package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"tycoon/internal/opt"
	"tycoon/internal/pipeline"
	"tycoon/internal/prim"
	"tycoon/internal/qopt"
	_ "tycoon/internal/relalg" // registers the query primitives
	"tycoon/internal/tml"
)

// optimize reads a TML term in s-expression syntax (a file, or standard
// input when no file is given), runs the optimizer of paper §3 over it
// through the compilation pipeline, and prints the optimized term with
// rewrite statistics:
//
//	echo '(cont(x) (+ x 1 e k) 41)' | tml opt
//	⇒ (k_2 42)
//
// With -stats, a per-pass table of the pipeline run is printed: one row
// per reduce/expand pass with its rewrite count, node-count delta and
// wall-clock time.
func optimize(flags *flag.FlagSet) action {
	noExpand := flags.Bool("no-expand", false, "disable the expansion (inlining) pass")
	noFold := flags.Bool("no-fold", false, "disable the fold rule (ablation)")
	rounds := flags.Int("rounds", 0, "reduction/expansion round limit (0 = default)")
	query := flags.Bool("query", false, "enable the static query rewrite rules of §4.2")
	stats := flags.Bool("stats", false, "print the per-pass rewrite/timing table of the pipeline run")
	quiet := flags.Bool("quiet", false, "print only the optimized term")
	return func(args []string, out, _ io.Writer) error {
		var src []byte
		var err error
		switch len(args) {
		case 0:
			src, err = io.ReadAll(os.Stdin)
		case 1:
			src, err = os.ReadFile(args[0])
		default:
			return errors.New("usage: tml opt [flags] [file]")
		}
		if err != nil {
			return err
		}

		app, err := tml.ParseApp(string(src), tml.ParseOpts{IsPrim: prim.IsPrim})
		if err != nil {
			return err
		}

		job := pipeline.Job{
			Name: "tml opt",
			Source: func(gen *tml.VarGen) (*tml.Abs, error) {
				gen.Skip(tml.MaxVarID(app))
				return &tml.Abs{Body: app}, nil
			},
			Opt: opt.Options{
				MaxRounds:   *rounds,
				NoExpansion: *noExpand,
				NoFold:      *noFold,
			},
		}
		if *query {
			job.Packs = []pipeline.RulePack{qopt.StaticPack()}
		}
		res, err := pipeline.New(nil, pipeline.Config{}).Run(job)
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintln(out, "; input")
			fmt.Fprintln(out, tml.Print(app))
			fmt.Fprintln(out, "; optimized —", res.Opt)
		}
		if *stats {
			printPassTable(out, res.Stats)
		}
		fmt.Fprintln(out, tml.Print(res.Abs.Body))
		return nil
	}
}

// printPassTable renders the pipeline's per-pass instrumentation.
func printPassTable(w io.Writer, s *pipeline.Stats) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "; pass\trewrites\tnodes\ttime\trules")
	for _, ps := range s.Passes {
		nodes := fmt.Sprintf("%d", ps.NodesAfter)
		if ps.NodesBefore != 0 && ps.NodesBefore != ps.NodesAfter {
			nodes = fmt.Sprintf("%d→%d", ps.NodesBefore, ps.NodesAfter)
		}
		fmt.Fprintf(tw, "; %s\t%d\t%s\t%s\t%s\n",
			ps.Name, ps.Rewrites, nodes, ps.Duration.Round(1000), ruleSummary(ps.Rules))
	}
	fmt.Fprintf(tw, "; total\t%d\t\t%s\t\n", s.Rewrites(), s.Total.Round(1000))
	tw.Flush()
}

// ruleSummary renders a pass's per-rule counts as "fold×3 subst×1".
func ruleSummary(rules map[string]int) string {
	if len(rules) == 0 {
		return ""
	}
	names := make([]string, 0, len(rules))
	for n := range rules {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s×%d", n, rules[n]))
	}
	return strings.Join(parts, " ")
}
