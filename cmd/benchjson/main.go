// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON artifact for CI archival and cross-run comparison.
//
//	go test -bench E1 . | benchjson > BENCH_pipeline.json
//
// The artifact embeds the verbatim benchmark text under "raw", so it
// stays benchstat-friendly: extract two artifacts' .raw fields into
// files and diff them with benchstat as usual.
//
//	jq -r .raw old.json > old.txt; jq -r .raw new.json > new.txt
//	benchstat old.txt new.txt
//
// With -baseline, the run is additionally gated against a committed
// artifact: any gated metric regressing by more than -maxregress fails
// the command after the new artifact has been written.
//
//	go test -bench Exec . | benchjson -lane exec -baseline bench/BENCH_exec.json > new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix.
	Name string `json:"name"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value ("ns/op", "steps/call", …).
	Metrics map[string]float64 `json:"metrics"`
}

// Artifact is the emitted document.
type Artifact struct {
	// Lane names the benchmark lane the artifact belongs to
	// ("pipeline", "exec"), so baselines are never diffed across lanes.
	Lane string `json:"lane,omitempty"`
	// Env records the goos/goarch/pkg/cpu header lines.
	Env map[string]string `json:"env"`
	// Benchmarks are the parsed result lines, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw is the verbatim `go test -bench` output, for benchstat.
	Raw string `json:"raw"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	lane := flag.String("lane", "", "benchmark lane name to record in the artifact")
	baseline := flag.String("baseline", "", "committed baseline artifact to gate against; exit nonzero on regression")
	maxRegress := flag.Float64("maxregress", 0.2, "maximum allowed fractional regression per gated metric")
	flag.Parse()
	src, err := io.ReadAll(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	art := Artifact{Lane: *lane, Env: map[string]string{}, Raw: string(src)}

	sc := bufio.NewScanner(strings.NewReader(art.Raw))
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok && isEnvKey(k) {
			art.Env[k] = v
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			art.Benchmarks = append(art.Benchmarks, b)
		}
	}
	if len(art.Benchmarks) == 0 {
		log.Fatal("no benchmark result lines in input")
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		log.Fatal(err)
	}

	if *baseline != "" {
		viols := gate(&art, *baseline, *maxRegress)
		for _, v := range viols {
			log.Print(v)
		}
		if len(viols) > 0 {
			log.Fatalf("%d regression(s) beyond %.0f%% vs %s", len(viols), *maxRegress*100, *baseline)
		}
	}
}

// gate compares art against the committed baseline artifact at path and
// returns one message per violation. allocs/op and steps/call are
// machine-independent and always gated — as are the soak lane's errors
// and wrong counts, where the budget is zero and any increase is a
// correctness failure, not a perf regression. ns/op, B/op and the soak
// latency percentiles (p50-us…max-us) plus rps are gated only when the
// baseline was recorded on the same cpu model, since wall-clock
// comparisons across hosts measure the host, not the code. rps is
// higher-is-better: the violation is a drop below the margin.
func gate(art *Artifact, path string, maxRegress float64) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var base Artifact
	if err := json.Unmarshal(data, &base); err != nil {
		return []string{path + ": " + err.Error()}
	}
	if base.Lane != "" && art.Lane != "" && base.Lane != art.Lane {
		return []string{fmt.Sprintf("lane mismatch: this run is %q, baseline is %q", art.Lane, base.Lane)}
	}
	gated := map[string]bool{"allocs/op": true, "steps/call": true, "errors": true, "wrong": true}
	if art.Env["cpu"] != "" && art.Env["cpu"] == base.Env["cpu"] {
		for _, unit := range []string{"ns/op", "B/op", "p50-us", "p90-us", "p99-us", "max-us", "rps"} {
			gated[unit] = true
		}
	}
	higherBetter := map[string]bool{"rps": true}
	cur := make(map[string]Benchmark, len(art.Benchmarks))
	for _, b := range art.Benchmarks {
		cur[benchKey(b.Name)] = b
	}
	var viols []string
	for _, bb := range base.Benchmarks {
		nb, ok := cur[benchKey(bb.Name)]
		if !ok {
			viols = append(viols, fmt.Sprintf("%s: in baseline but missing from this run", bb.Name))
			continue
		}
		for unit, old := range bb.Metrics {
			if !gated[unit] {
				continue
			}
			now, ok := nb.Metrics[unit]
			if !ok {
				viols = append(viols, fmt.Sprintf("%s: metric %s missing from this run", bb.Name, unit))
				continue
			}
			if higherBetter[unit] {
				if now < old*(1-maxRegress) {
					viols = append(viols, fmt.Sprintf("%s: %s dropped %g -> %g (limit -%.0f%%)",
						bb.Name, unit, old, now, maxRegress*100))
				}
				continue
			}
			if now > old*(1+maxRegress) {
				viols = append(viols, fmt.Sprintf("%s: %s regressed %g -> %g (limit +%.0f%%)",
					bb.Name, unit, old, now, maxRegress*100))
			}
		}
	}
	return viols
}

// benchKey is the name two runs of one benchmark share: go test appends
// "-N" (GOMAXPROCS) to every name unless N is 1, so a baseline recorded
// on one cpu count must still match a run on another. Like benchstat,
// strip the trailing procs suffix on both sides.
func benchKey(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func isEnvKey(k string) bool {
	switch k {
	case "goos", "goarch", "pkg", "cpu":
		return true
	}
	return false
}

// parseBenchLine parses "BenchmarkName-8  100  123 ns/op  42 steps/call".
func parseBenchLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Name, iterations, and at least one value-unit pair.
	if len(fields) < 4 || (len(fields)-2)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.TrimPrefix(fields[0], "Benchmark"),
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
