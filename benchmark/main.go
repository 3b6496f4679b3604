// Command benchmark is the repository's end-to-end yardstick: it builds
// the real tycd and tycc binaries, populates file-backed stores through
// the public facade, boots the binaries as child processes, drives one
// of six named workloads from two closed-loop connections, checks every
// answer against an oracle computed from the seeded data, audits the
// drained stores offline, and prints every metric by name with its unit.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
// Usage (from anywhere inside a checkout):
//
//	bash benchmark/run.sh --workload point_rpc --seed 1 --seconds 12 --trace 0
//	cd benchmark && go run . -workload query_scan -trace 1
//	cd benchmark && go run . -repeat 3            # steadiness self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"tycoon/internal/ship"
)

// setupRepeats is how many times a run performs the whole set-up; the
// reported setup_s is the median, and the last one is measured on.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       environment       `json:"environment"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	order     []string          // metric names in reporting order
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// snapshot is one reading of everything the system exports about
// itself, taken on each side of a measured phase.
type snapshot struct {
	stats    []*ship.ServerStats // per process, front first
	procs    []procSample
	logBytes int64 // total size of the store files
}

func takeSnapshot(r *rig) (*snapshot, error) {
	s := &snapshot{}
	for i, m := range r.monitors {
		st, err := m.Stats()
		if err != nil {
			return nil, fmt.Errorf("stats from process %d: %w\n%s", i, err, r.childLogs())
		}
		s.stats = append(s.stats, st)
	}
	for _, p := range r.procs() {
		ps, err := p.sample()
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, ps)
	}
	for _, path := range r.paths {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		s.logBytes += fi.Size()
	}
	return s, nil
}

// phase is one measured closed-loop phase with the counters around it.
type phase struct {
	before, after *snapshot
	drive         *driveResult
}

// measure runs the closed loop — count operations per connection, or
// for d when count is 0 — between two snapshots.
func measure(r *rig, count int, d time.Duration) (*phase, error) {
	before, err := takeSnapshot(r)
	if err != nil {
		return nil, err
	}
	res := drive(r, count, d)
	after, err := takeSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &phase{before: before, after: after, drive: res}, nil
}

// latencies returns the successful operations' latencies in µs, sorted,
// for all operations, the reads and the writes.
func (p *phase) latencies() (all, reads, writes []float64) {
	for _, s := range p.drive.samples {
		us := float64(s.lat.Nanoseconds()) / 1e3
		all = append(all, us)
		if s.write {
			writes = append(writes, us)
		} else {
			reads = append(reads, us)
		}
	}
	sort.Float64s(all)
	sort.Float64s(reads)
	sort.Float64s(writes)
	return
}

// cpuSeconds is the user and system CPU all server processes burned
// over the phase.
func (p *phase) cpuSeconds() (user, sys float64) {
	for i := range p.after.procs {
		user += p.after.procs[i].cpuUser - p.before.procs[i].cpuUser
		sys += p.after.procs[i].cpuSys - p.before.procs[i].cpuSys
	}
	return
}

// endToEnd fills the metrics a user of the system sees: each is the
// median over the phase's one-second slices (see sliceLength). A phase
// too short to have three whole slices reports whole-phase figures.
func (p *phase) endToEnd(rep *report) {
	type slice struct {
		lats []float64
		secs float64
		cpu  float64
	}
	var slices []slice
	for i := 0; i+1 < len(p.drive.ticks); i++ {
		a, b := p.drive.ticks[i], p.drive.ticks[i+1]
		slices = append(slices, slice{secs: (b.at - a.at).Seconds(), cpu: b.cpu - a.cpu})
	}
	user, sys := p.cpuSeconds()
	whole := slice{secs: p.drive.wall.Seconds(), cpu: user + sys}
	for _, s := range p.drive.samples {
		us := float64(s.lat.Nanoseconds()) / 1e3
		whole.lats = append(whole.lats, us)
		// An operation belongs to the slice it completed in.
		done := s.start + s.lat
		for i := range slices {
			if done >= p.drive.ticks[i].at && done < p.drive.ticks[i+1].at {
				slices[i].lats = append(slices[i].lats, us)
				break
			}
		}
	}
	if len(slices) < 3 {
		slices = []slice{whole}
	}
	var thr, p50, p95, cpu []float64
	for _, sl := range slices {
		if len(sl.lats) == 0 || sl.secs <= 0 {
			continue
		}
		sort.Float64s(sl.lats)
		n := float64(len(sl.lats))
		thr = append(thr, n/sl.secs)
		p50 = append(p50, quantile(sl.lats, 0.50))
		p95 = append(p95, quantile(sl.lats, 0.95))
		cpu = append(cpu, sl.cpu*1e6/n)
	}
	rep.set("throughput_rps", median(thr), "1/s")
	rep.set("p50_us", median(p50), "us")
	rep.set("p95_us", median(p95), "us")
	rep.set("cpu_us_per_op", median(cpu), "us")
	sort.Float64s(whole.lats)
	rep.notef("whole phase: %d ops in %.2fs = %.1f/s, p50 %.1f us, p95 %.1f us, cpu %.1f us/op; %d slices",
		len(whole.lats), whole.secs, float64(len(whole.lats))/whole.secs,
		quantile(whole.lats, .5), quantile(whole.lats, .95), whole.cpu*1e6/float64(max(len(whole.lats), 1)), len(thr))
}

// finish drains the rig, audits its stores and folds the outcome into
// the report's correctness fields. The store files stay; the caller
// removes the rig's directory.
func finish(r *rig, rep *report, phases ...*phase) {
	for _, p := range phases {
		rep.Attempted += p.drive.attempted
		rep.Failed += p.drive.failed
		if p.drive.firstFailure != "" {
			rep.notef("first failed operation: %s", p.drive.firstFailure)
		}
	}
	if err := r.shutDown(); err != nil {
		rep.Failed++
		rep.notef("drain: %v", err)
	}
	a := audit(r)
	rep.Attempted += a.checks
	rep.Failed += len(a.failures)
	for i, f := range a.failures {
		if i == 3 {
			rep.notef("… and %d more audit failures", len(a.failures)-3)
			break
		}
		rep.notef("audit: %s", f)
	}
	rep.Correct = rep.Failed == 0
}

func newReport(e *env, wl *workload, seed int64, seconds int, traced bool) *report {
	return &report{Workload: wl.name, Seed: seed, Seconds: seconds, Traced: traced,
		Env: readEnvironment(e.tmp), Metrics: make(map[string]metric)}
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(e *env, wl *workload, seed int64, seconds int) (*report, error) {
	rep := newReport(e, wl, seed, seconds, false)
	w := wl.build(seed, 1)
	var setups []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if r, err = bringUp(e, wl, w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := r.shutDown(); err != nil {
				r.abandon()
				return nil, err
			}
			os.RemoveAll(r.dir)
		}
	}
	defer os.RemoveAll(r.dir)
	rep.set("setup_s", median(setups), "s")
	p, err := measure(r, 0, time.Duration(seconds)*time.Second)
	if err != nil {
		r.abandon()
		return nil, err
	}
	p.endToEnd(rep)
	finish(r, rep, p)
	return rep, nil
}

// runCounted drives a workload at 1/div scale for a fixed number of
// operations per connection instead of a fixed time: the whole path —
// populate, boot, warm, drive, drain, audit — in a second or two. The
// smoke tests use it; its metrics are not meant to be compared.
func runCounted(e *env, wl *workload, seed int64, div, count int) (*report, error) {
	rep := newReport(e, wl, seed, 0, false)
	r, err := bringUp(e, wl, wl.build(seed, div))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	p, err := measure(r, count, 0)
	if err != nil {
		r.abandon()
		return nil, err
	}
	p.endToEnd(rep)
	finish(r, rep, p)
	return rep, nil
}

// print writes the human-readable block and, last, the one-line JSON
// object the driver parses.
func (r *report) print() {
	fmt.Printf("workload %s  seed %d  seconds %d  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Printf("environment: nproc %d, cpu %q, %s, tmp on %s, flush: %s\n",
		r.Env.NProc, r.Env.CPU, r.Env.GoVersion, r.Env.Filesystem, r.Env.Flush)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("attempted %d  failed %d  failed_ratio %.6f  correct %v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

// save writes the full report (environment included) where -against of
// a later run can read it.
func (r *report) save(e *env) error {
	dir := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-trace%d.json", r.Workload, trace)), append(data, '\n'), 0o644)
}

func main() { os.Exit(realMain()) }

func realMain() int {
	defer reapOnPanic()
	workloadFlag := flag.String("workload", "all", "workload name, or all: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the data and the operation streams")
	seconds := flag.Int("seconds", 12, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run, per-layer metrics")
	repeat := flag.Int("repeat", 0, "steadiness self-check: two sets of N runs per workload, compared against BENCHMARK.json's bounds")
	against := flag.String("against", "", "compare end-to-end metrics with a saved result file; refused across CPU models")
	root := flag.String("root", "", "checkout root (default: found from the working directory)")
	flag.Parse()

	fail := func(err error) int {
		killAll()
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *root == "" {
		found, err := findRoot()
		if err != nil {
			return fail(err)
		}
		*root = found
	}
	e, err := newEnv(*root)
	if err != nil {
		return fail(err)
	}
	// Children die with the benchmark on a signal, too.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.RemoveAll(e.tmp)
		os.Exit(130)
	}()
	defer os.RemoveAll(e.tmp)

	var selected []*workload
	if *workloadFlag == "all" {
		selected = workloads
	} else if wl := findWorkload(*workloadFlag); wl != nil {
		selected = []*workload{wl}
	} else {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *workloadFlag, workloadNames()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	if err := e.build(); err != nil {
		return fail(err)
	}
	if *repeat > 0 {
		if err := selfCheck(e, selected, *seed, *seconds, *repeat); err != nil {
			return fail(err)
		}
		return 0
	}
	for _, wl := range selected {
		var rep *report
		if *trace == 1 {
			rep, err = runTraced(e, wl, *seed, *seconds)
		} else {
			rep, err = runUntraced(e, wl, *seed, *seconds)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		if *against != "" {
			if err := compareAgainst(rep, *against); err != nil {
				return fail(err)
			}
		}
		if err := rep.save(e); err != nil {
			return fail(err)
		}
		// A printed result means exit 0 even when it says correct=false:
		// the verdict is in the result, the exit code says one exists.
		rep.print()
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
