package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tycoon"
	"tycoon/internal/ship"
)

// streamHash folds the first n ops of both connections of a workload's
// stream into one hash: every field the servers will see, plus the
// answer the oracle expects.
func streamHash(t *testing.T, wl *workload, seed int64, n int) string {
	t.Helper()
	h := sha256.New()
	num := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	w := wl.build(seed, 200)
	for conn := 0; conn < connections; conn++ {
		gen := wl.stream(w, conn)
		for i := 0; i < n; i++ {
			o := gen()
			num(int64(o.kind))
			if o.submit != nil {
				body, err := o.submit.Encode()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(body)
			} else {
				body, err := o.call.Encode()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(body)
			}
			num(int64(o.want.kind))
			num(o.want.i)
			num(int64(o.want.rows))
			if o.want.b {
				num(1)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// The op stream is a pure function of the seed: the same seed gives the
// same bytes on every machine and Go release (hashes pinned), another
// seed gives other bytes.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	pinned := map[string]string{
		"point_rpc":       "553edc14590398a4",
		"program_exec":    "863e5ce506b9b4fc",
		"query_scan":      "4155de8af95bd901",
		"adhoc_compile":   "6c9eebc7b8a9bb13",
		"oltp_mixed":      "8ff46bcfcc4b81bf",
		"cluster_scatter": "47adbfcac52f129c",
	}
	for _, wl := range workloads {
		a, b := streamHash(t, wl, 1, 300), streamHash(t, wl, 1, 300)
		if a != b {
			t.Errorf("%s: seed 1 hashed %s then %s", wl.name, a, b)
		}
		if want := pinned[wl.name]; a != want {
			t.Errorf("%s: seed 1 stream hash %s, pinned %s", wl.name, a, want)
		}
		if c := streamHash(t, wl, 2, 300); c == a {
			t.Errorf("%s: seeds 1 and 2 give the same stream", wl.name)
		}
	}
}

// Set-up runs one period of connection 0's stream alone so that the
// first operation of every kind — the first write to every object — has
// no neighbour (see bringUp): the period must hold every kind.
func TestFirstCycleHoldsEveryKind(t *testing.T) {
	for _, wl := range workloads {
		for _, seed := range []int64{1, 2, 3} {
			gen := wl.stream(wl.build(seed, 200), 0)
			seen := make(map[int]bool)
			for i := 0; i < wl.period; i++ {
				seen[gen().kind] = true
			}
			if len(seen) != len(wl.kinds) {
				t.Errorf("%s seed %d: the first %d operations hold %d of %d kinds", wl.name, seed, wl.period, len(seen), len(wl.kinds))
			}
		}
	}
}

// Every op kind of every workload, answered by an in-memory system
// through the staged executor, agrees with the oracle. The cluster's
// stream is answered by one system holding all three shards' rows.
func TestOracleAgreesWithInMemorySystem(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := wl.build(3, 200)
			sys, err := tycoon.Open("")
			if err != nil {
				t.Fatal(err)
			}
			ip := newInproc(sys)
			defer ip.close()
			union := *w.stores[0]
			for _, ds := range w.stores[1:] {
				union.emp = append(append([][3]int64(nil), union.emp...), ds.emp...)
			}
			if err := fill(sys, &union, w.modules); err != nil {
				t.Fatal(err)
			}
			for name, term := range w.saved {
				save := op{submit: &ship.Submit{Name: name, PTML: mustPTML(term), Save: name}}
				if _, err := ip.exec(&save); err != nil {
					t.Fatal(err)
				}
			}
			for _, mod := range w.optimize {
				if _, err := sys.OptimizeFunction(mod, "run"); err != nil {
					t.Fatal(err)
				}
			}
			ip.record = true
			seen := make([]int, len(wl.kinds))
			for conn := 0; conn < connections; conn++ {
				gen := wl.stream(w, conn)
				for i := 0; i < 80; i++ {
					o := gen()
					res, err := ip.exec(&o)
					if err != nil {
						t.Fatalf("%s: %v", wl.kinds[o.kind], err)
					}
					if !o.want.ok(res.Val) {
						t.Fatalf("%s: system answered %s, oracle expects %+v", wl.kinds[o.kind], res.Val.Show(), o.want)
					}
					seen[o.kind]++
				}
			}
			for k, n := range seen {
				if n == 0 {
					t.Errorf("kind %s never generated", wl.kinds[k])
				}
			}
			// Every request left a root span and its stages nest inside it.
			roots := 0
			for _, s := range ip.spans {
				if s.End < s.Start {
					t.Fatalf("span %s of request %d ends before it starts", stageNames[s.Stage], s.Req)
				}
				if s.Stage == stRequest {
					roots++
				}
			}
			if roots != 2*80 {
				t.Errorf("%d root spans for %d requests", roots, 2*80)
			}
		})
	}
}

// A 1/200-scale smoke of every workload through the real binaries:
// populate, boot, warm up, drive, drain, audit — nothing may fail.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binaries")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killAll()
		os.RemoveAll(e.tmp)
	})
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rep, err := runCounted(e, wl, 1, 200, 100)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || !rep.Correct {
				t.Fatalf("failed_ratio %d/%d: %v", rep.Failed, rep.Attempted, rep.Notes)
			}
			// cpu_us_per_op is left out: a phase this short can end
			// inside one 10 ms accounting tick.
			for _, name := range []string{"throughput_rps", "p50_us", "p95_us"} {
				if m, ok := rep.Metrics[name]; !ok || m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("%s = %v", name, m)
				}
			}
		})
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// whose arithmetic accepts or rejects this benchmark.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7}, 3, 10},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2.5, 9, 4, 4, 8, 1, 7.5}, 2.5, 8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); got != 10 {
		t.Errorf("p95 of ten = %v", got)
	}
}

// The hand-written Stanford results are right for the arguments used.
func TestStanfordClosedForms(t *testing.T) {
	for _, c := range []struct {
		got, want int64
	}{
		{factorial(6), 720}, {queensSolutions(7), 40}, {queensSolutions(8), 92},
		{primesUpTo(2000), 303}, {primesUpTo(500), 95}, {primesUpTo(3000), 430},
	} {
		if c.got != c.want {
			t.Errorf("got %d, want %d", c.got, c.want)
		}
	}
}

// BENCHMARK.json declares exactly the metrics the two kinds of run
// print, with the units they print them in: the driver refuses a result
// whose keys differ from the file's.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binaries")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []bound                 `json:"end_to_end"`
		PerLayer  []bound                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d declared as %s, implemented as %s", i, w.Name, workloads[i].name)
		}
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killAll()
		os.RemoveAll(e.tmp)
	})
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []bound, rep *report) {
		if len(declared) != len(rep.Metrics) {
			t.Errorf("%s: %d metrics declared, %d printed", kind, len(declared), len(rep.Metrics))
		}
		for _, d := range declared {
			m, ok := rep.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: %s declared but not printed", kind, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s declared in %s, printed in %s", kind, d.Name, d.Unit, m.Unit)
			}
		}
	}
	rep, err := runUntraced(e, adhocCompile, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("end_to_end", spec.EndToEnd, rep)
	if rep, err = runTraced(e, adhocCompile, 1, 1); err != nil {
		t.Fatal(err)
	}
	check("per_layer", spec.PerLayer, rep)
	if !rep.Correct {
		t.Errorf("traced run: %d of %d failed: %v", rep.Failed, rep.Attempted, rep.Notes)
	}
}
