package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, art Artifact) string {
	t.Helper()
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bm(name string, ns, allocs, steps float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, Metrics: map[string]float64{
		"ns/op": ns, "allocs/op": allocs, "steps/call": steps,
	}}
}

func TestGatePassesWithinMargin(t *testing.T) {
	base := writeBaseline(t, Artifact{
		Lane: "exec",
		Env:  map[string]string{"cpu": "Xeon 2.70GHz"},
		Benchmarks: []Benchmark{
			bm("Exec_Select", 1000, 30, 4001),
		},
	})
	art := Artifact{
		Lane: "exec",
		Env:  map[string]string{"cpu": "Xeon 2.70GHz"},
		Benchmarks: []Benchmark{
			// +10% ns, +10% allocs, equal steps: all inside the margin.
			bm("Exec_Select", 1100, 33, 4001),
		},
	}
	if viols := gate(&art, base, 0.2); len(viols) != 0 {
		t.Fatalf("expected clean gate, got %v", viols)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	base := writeBaseline(t, Artifact{
		Lane:       "exec",
		Env:        map[string]string{"cpu": "Xeon 2.70GHz"},
		Benchmarks: []Benchmark{bm("Exec_Join", 1000, 100, 200001)},
	})
	art := Artifact{
		Lane:       "exec",
		Env:        map[string]string{"cpu": "other"},
		Benchmarks: []Benchmark{bm("Exec_Join", 99999, 200, 200001)},
	}
	viols := gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "allocs/op") {
		t.Fatalf("expected one allocs/op violation, got %v", viols)
	}
}

func TestGateSkipsWallClockAcrossCPUs(t *testing.T) {
	base := writeBaseline(t, Artifact{
		Lane:       "exec",
		Env:        map[string]string{"cpu": "Xeon 2.10GHz"},
		Benchmarks: []Benchmark{bm("Exec_Exists", 1000, 17, 40001)},
	})
	art := Artifact{
		Lane: "exec",
		Env:  map[string]string{"cpu": "Xeon 2.70GHz"},
		// 5x the wall clock on a different machine: not a violation.
		Benchmarks: []Benchmark{bm("Exec_Exists", 5000, 17, 40001)},
	}
	if viols := gate(&art, base, 0.2); len(viols) != 0 {
		t.Fatalf("ns/op must not be gated across cpus, got %v", viols)
	}
	// Same cpu: the identical 5x slowdown now fails.
	art.Env["cpu"] = "Xeon 2.10GHz"
	viols := gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "ns/op") {
		t.Fatalf("expected one ns/op violation on matching cpu, got %v", viols)
	}
}

func TestGateFlagsMissingBenchmarkAndLaneMismatch(t *testing.T) {
	base := writeBaseline(t, Artifact{
		Lane:       "exec",
		Env:        map[string]string{"cpu": "x"},
		Benchmarks: []Benchmark{bm("Exec_IndexScan", 1000, 11, 2)},
	})
	art := Artifact{
		Lane:       "exec",
		Env:        map[string]string{"cpu": "x"},
		Benchmarks: []Benchmark{bm("Exec_Other", 1, 1, 1)},
	}
	viols := gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "missing") {
		t.Fatalf("expected missing-benchmark violation, got %v", viols)
	}

	art.Lane = "server"
	viols = gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "lane mismatch") {
		t.Fatalf("expected lane mismatch, got %v", viols)
	}
}

// TestGateMatchesAcrossProcsSuffix pins that a baseline recorded at one
// GOMAXPROCS gates a run at another: go test's "-N" name suffix (absent
// at N=1) is not part of a benchmark's identity.
func TestGateMatchesAcrossProcsSuffix(t *testing.T) {
	base := writeBaseline(t, Artifact{
		Lane: "exec",
		Env:  map[string]string{"cpu": "x"},
		Benchmarks: []Benchmark{
			bm("Exec_Select/n=1000", 1000, 35, 2),
			bm("Soak/tycd/call-1", 1000, 35, 2),
		},
	})
	art := Artifact{
		Lane: "exec",
		Env:  map[string]string{"cpu": "x"},
		Benchmarks: []Benchmark{
			bm("Exec_Select/n=1000-4", 1000, 35, 2),
			bm("Soak/tycd/call-8", 1000, 90, 2),
		},
	}
	viols := gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "Soak/tycd/call-1: allocs/op") {
		t.Fatalf("want both rows matched and only call's allocs/op flagged, got %v", viols)
	}
	for name, want := range map[string]string{
		"Exec_Select/n=1000": "Exec_Select/n=1000", "Exec_Select/n=1000-4": "Exec_Select/n=1000",
		"Soak/tycd/call-1": "Soak/tycd/call", "Soak/tycd/call-8": "Soak/tycd/call",
		"trailing-": "trailing-", "index-scan": "index-scan",
	} {
		if got := benchKey(name); got != want {
			t.Errorf("benchKey(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestGateReadsMedianOfRepeatedLines: with -count 3 a row has three
// lines. The gate reads each unit's median, so a slow last line alone
// does not fail it, and a regression in the median does.
func TestGateReadsMedianOfRepeatedLines(t *testing.T) {
	env := map[string]string{"cpu": "Xeon 2.70GHz"}
	base := writeBaseline(t, Artifact{Lane: "pipeline", Env: env, Benchmarks: []Benchmark{
		bm("E1_StanfordNone/perm-2", 1000, 475, 93627),
		bm("E1_StanfordNone/perm-2", 1300, 475, 93627),
		bm("E1_StanfordNone/perm-2", 900, 475, 93627),
	}})
	// Medians 1100 ns/op and 476 allocs/op; the last line alone is +50%
	// on ns/op and +21% on allocs/op.
	art := Artifact{Lane: "pipeline", Env: env, Benchmarks: []Benchmark{
		bm("E1_StanfordNone/perm-2", 1100, 476, 93627),
		bm("E1_StanfordNone/perm-2", 1050, 470, 93627),
		bm("E1_StanfordNone/perm-2", 1500, 575, 93627),
	}}
	if viols := gate(&art, base, 0.2); len(viols) != 0 {
		t.Fatalf("medians are inside the margin, got %v", viols)
	}
	if viols := gate(&Artifact{Lane: "pipeline", Env: env, Benchmarks: art.Benchmarks[2:]}, base, 0.2); len(viols) != 2 {
		t.Fatalf("the last line alone should fail ns/op and allocs/op, got %v", viols)
	}
	art.Benchmarks[0].Metrics["ns/op"] = 1400
	viols := gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "ns/op regressed 1000 -> 1400") {
		t.Fatalf("expected the median's ns/op regression, got %v", viols)
	}
}

func soakBM(name string, p50, p99, rps, errs, wrong float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, Metrics: map[string]float64{
		"p50-us": p50, "p99-us": p99, "rps": rps, "errors": errs, "wrong": wrong,
	}}
}

func TestGateSoakLatencyAndThroughput(t *testing.T) {
	base := writeBaseline(t, Artifact{
		Lane:       "soak",
		Env:        map[string]string{"cpu": "Xeon 2.70GHz"},
		Benchmarks: []Benchmark{soakBM("Soak/tycd/submit-8", 100, 900, 5000, 0, 0)},
	})

	// Same cpu, percentiles inside the margin, throughput up: clean.
	art := Artifact{
		Lane:       "soak",
		Env:        map[string]string{"cpu": "Xeon 2.70GHz"},
		Benchmarks: []Benchmark{soakBM("Soak/tycd/submit-8", 110, 950, 6000, 0, 0)},
	}
	if viols := gate(&art, base, 0.2); len(viols) != 0 {
		t.Fatalf("expected clean gate, got %v", viols)
	}

	// p99 blows the margin.
	art.Benchmarks = []Benchmark{soakBM("Soak/tycd/submit-8", 110, 2000, 6000, 0, 0)}
	viols := gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "p99-us") {
		t.Fatalf("expected one p99-us violation, got %v", viols)
	}

	// Throughput is higher-is-better: a drop beyond the margin fails, a
	// rise never does (covered above).
	art.Benchmarks = []Benchmark{soakBM("Soak/tycd/submit-8", 100, 900, 2000, 0, 0)}
	viols = gate(&art, base, 0.2)
	if len(viols) != 1 || !strings.Contains(viols[0], "rps dropped") {
		t.Fatalf("expected one rps violation, got %v", viols)
	}

	// Different cpu: latency and throughput are not comparable…
	art.Env["cpu"] = "other"
	art.Benchmarks = []Benchmark{soakBM("Soak/tycd/submit-8", 9999, 99999, 1, 0, 0)}
	if viols := gate(&art, base, 0.2); len(viols) != 0 {
		t.Fatalf("latency must not gate across cpus, got %v", viols)
	}
	// …but errors and wrong answers are correctness, gated everywhere.
	art.Benchmarks = []Benchmark{soakBM("Soak/tycd/submit-8", 9999, 99999, 1, 3, 1)}
	viols = gate(&art, base, 0.2)
	if len(viols) != 2 {
		t.Fatalf("expected errors+wrong violations on foreign cpu, got %v", viols)
	}
}

func TestParseSoakLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkSoak/tycd/call-8   20000   812 p50-us   2944 p99-us   4801 rps   0 errors   0 wrong")
	if !ok {
		t.Fatal("soak line did not parse")
	}
	if b.Name != "Soak/tycd/call-8" || b.Iterations != 20000 {
		t.Fatalf("parsed %+v", b)
	}
	for unit, want := range map[string]float64{"p50-us": 812, "p99-us": 2944, "rps": 4801, "errors": 0, "wrong": 0} {
		if b.Metrics[unit] != want {
			t.Fatalf("%s = %g, want %g", unit, b.Metrics[unit], want)
		}
	}
}
