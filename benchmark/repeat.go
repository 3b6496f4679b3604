package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The steadiness self-check (-repeat N) and the saved-result comparison
// (-against FILE). Both judge end-to-end metrics by the bounds frozen in
// BENCHMARK.json, so there is one place where "how much worse is a
// regression" is written down.

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(root string) ([]bound, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

// worseBy is how much worse (as a share of base) cur is than base for a
// metric where better says which direction is good; negative is better.
func worseBy(b bound, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if b.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// selfCheck runs every selected workload in two sets of n runs (seeds
// seed … seed+n-1 in both), prints min/median/max and IQR/median per
// metric and set, and fails when a spread exceeds its bound or the
// second set's median is worse than the first's by more than the bound
// — the arithmetic the acceptance of this benchmark uses.
func selfCheck(e *env, selected []*workload, seed int64, seconds, n int) error {
	bounds, err := readBounds(e.root)
	if err != nil {
		return err
	}
	var problems []string
	for _, wl := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				rep, err := runUntraced(e, wl, seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s set %d run %d: %w", wl.name, s+1, i+1, err)
				}
				if !rep.Correct {
					problems = append(problems, fmt.Sprintf("%s set %d seed %d: %d of %d failed", wl.name, s+1, seed+int64(i), rep.Failed, rep.Attempted))
				}
				for name, m := range rep.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s  (%d runs per set, %d s each)\n", wl.name, n, seconds)
		fmt.Printf("  %-16s %-4s %12s %12s %12s %9s %7s\n", "metric", "set", "min", "median", "max", "iqr/med", "bound")
		for _, b := range bounds {
			for s := range sets {
				xs := sortedCopy(sets[s][b.Name])
				if len(xs) == 0 {
					return fmt.Errorf("%s reported no %s", wl.name, b.Name)
				}
				sp := spread(xs)
				fmt.Printf("  %-16s %-4d %12.3f %12.3f %12.3f %8.1f%% %6.0f%%\n",
					b.Name, s+1, xs[0], median(xs), xs[len(xs)-1], 100*sp, 100*b.Bound)
				if b.Name != "setup_s" && sp > b.Bound {
					problems = append(problems, fmt.Sprintf("%s %s set %d: spread %.1f%% exceeds bound %.0f%%", wl.name, b.Name, s+1, 100*sp, 100*b.Bound))
				}
			}
			if w := worseBy(b, median(sets[0][b.Name]), median(sets[1][b.Name])); w > b.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: second set's median is %.1f%% worse than the first's (bound %.0f%%)", wl.name, b.Name, 100*w, 100*b.Bound))
			}
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println("DISAGREE:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("self-check: %d disagreements between two sets of runs of the same code", len(problems))
	}
	fmt.Println("self-check: both sets agree within every bound")
	return nil
}

// compareAgainst judges a fresh report against one saved by an earlier
// run (benchmark/out/result-*.json). Numbers from different CPU models
// are not comparable and the comparison is refused.
func compareAgainst(rep *report, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if old.Env.CPU != rep.Env.CPU {
		return fmt.Errorf("refusing to compare: %s was measured on %q, this run on %q", path, old.Env.CPU, rep.Env.CPU)
	}
	if old.Workload != rep.Workload || old.Traced != rep.Traced {
		return fmt.Errorf("refusing to compare: %s holds %s (traced %v), this run is %s (traced %v)",
			path, old.Workload, old.Traced, rep.Workload, rep.Traced)
	}
	for _, name := range rep.order {
		was, ok := old.Metrics[name]
		if !ok {
			continue
		}
		now := rep.Metrics[name].Value
		change := 0.0
		if was.Value != 0 {
			change = 100 * (now - was.Value) / was.Value
		}
		rep.notef("against %s: %s %.4f -> %.4f %s (%+.1f%%)", filepath.Base(path), name, was.Value, now, was.Unit, change)
	}
	return nil
}
