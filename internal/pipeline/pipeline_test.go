package pipeline

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tycoon/internal/opt"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// srcJob returns a job that optimizes (cont(x)(+ x 1 e k) 41).
func srcJob(t *testing.T, name string) (Job, *tml.App) {
	t.Helper()
	app, err := tml.ParseApp("(cont(x) (+ x 1 e_1 k_2) 41)", tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Name: name,
		Source: func(gen *tml.VarGen) (*tml.Abs, error) {
			gen.Skip(tml.MaxVarID(app))
			return &tml.Abs{Body: app}, nil
		},
	}, app
}

func TestRunInstrumentsPasses(t *testing.T) {
	p := New(nil, Config{})
	job, _ := srcJob(t, "t")
	res, err := p.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Passes) < 2 {
		t.Fatalf("want at least source+reduce passes, got %v", res.Stats.Passes)
	}
	if res.Stats.Passes[0].Name != "source" {
		t.Errorf("first pass = %s, want source", res.Stats.Passes[0].Name)
	}
	var sawReduce bool
	for _, ps := range res.Stats.Passes {
		if strings.HasPrefix(ps.Name, "reduce#") {
			sawReduce = true
			if ps.Rewrites == 0 {
				t.Errorf("%s reports 0 rewrites for a foldable term", ps.Name)
			}
		}
	}
	if !sawReduce {
		t.Error("no reduce pass recorded")
	}
	if res.Opt == nil || res.Opt.Rules["fold"] == 0 {
		t.Errorf("fold did not fire: %v", res.Opt)
	}
	// The folded term is (k_2 42).
	if got := res.Abs.Body.String(); !strings.Contains(got, "42") {
		t.Errorf("optimized term %s does not contain 42", got)
	}
}

func TestSkipOptimize(t *testing.T) {
	p := New(nil, Config{})
	job, app := srcJob(t, "t")
	job.SkipOptimize = true
	res, err := p.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Opt != nil {
		t.Error("SkipOptimize ran the optimizer")
	}
	if res.Abs.Body != app {
		t.Error("SkipOptimize did not hand back the source term")
	}
	if len(res.Stats.Passes) != 1 {
		t.Errorf("want only the source pass, got %v", res.Stats.Passes)
	}
}

func TestCacheHitAndEpochInvalidation(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := New(st, Config{})

	key := Key{Source: ptml.HashRaw([]byte("k")), Bindings: 1, Options: 1}
	job, _ := srcJob(t, "t")
	job.Key = key

	r1, err := p.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	r2, err := p.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if len(r2.Stats.Passes) != 0 || !r2.Stats.CacheHit {
		t.Errorf("cache hit ran passes: %v", r2.Stats.Passes)
	}
	if r2.Abs != r1.Abs {
		t.Error("cache hit did not share the optimized tree")
	}
	cs := p.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", cs)
	}

	// A binding-relevant store mutation advances the epoch and kills the
	// entry; an in-place MarkDirty does not.
	oid := st.Alloc(&store.Array{Elems: []store.Val{store.IntVal(1)}})
	st.MarkDirty(oid)
	if r, _ := p.Run(job); !r.CacheHit {
		t.Error("MarkDirty invalidated the cache")
	}
	if err := st.Update(oid, &store.Array{}); err != nil {
		t.Fatal(err)
	}
	r3, err := p.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("Update did not invalidate the cache entry")
	}
}

func TestSingleflightExactlyOnce(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := New(st, Config{})

	var executions int64
	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, _ := srcJob(t, "t")
			job.Key = Key{Bindings: 7, Options: 7}
			inner := job.Source
			job.Source = func(gen *tml.VarGen) (*tml.Abs, error) {
				atomic.AddInt64(&executions, 1)
				return inner(gen)
			}
			<-start
			if _, err := p.Run(job); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := atomic.LoadInt64(&executions); got != 1 {
		t.Errorf("source executed %d times, want exactly once", got)
	}
	cs := p.CacheStats()
	if cs.Misses != 1 {
		t.Errorf("misses = %d, want 1", cs.Misses)
	}
	if cs.Hits+cs.Shared != n-1 {
		t.Errorf("hits+shared = %d, want %d", cs.Hits+cs.Shared, n-1)
	}
}

func TestCacheEviction(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := New(st, Config{CacheEntries: 2})
	for i := 0; i < 3; i++ {
		job, _ := srcJob(t, "t")
		job.Key = Key{Bindings: uint64(i + 1), Options: 1}
		if _, err := p.Run(job); err != nil {
			t.Fatal(err)
		}
	}
	cs := p.CacheStats()
	if cs.Entries != 2 {
		t.Errorf("entries = %d, want 2 (bounded)", cs.Entries)
	}
	if cs.Evictions == 0 {
		t.Error("no eviction recorded")
	}
}

func TestWellformedGuardNamesPass(t *testing.T) {
	p := New(nil, Config{})
	// A rule that breaks a §2.2 invariant in a way no core rule can
	// repair: it violates the + primitive's calling convention by
	// inserting a third value argument.
	breaking := opt.Rule{Name: "break", Apply: func(ctx *opt.Ctx, app *tml.App) (*tml.App, bool) {
		p, ok := app.Fn.(*tml.Prim)
		if !ok || p.Name != "+" || len(app.Args) != 4 {
			return nil, false
		}
		args := append([]tml.Value{app.Args[0], app.Args[1], tml.Int(3)}, app.Args[2:]...)
		return tml.NewApp(app.Fn, args...), true
	}}
	app, err := tml.ParseApp("(+ 1 2 e_1 cont(x)(k_2 x))", tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name: "bad",
		Source: func(gen *tml.VarGen) (*tml.Abs, error) {
			gen.Skip(tml.MaxVarID(app))
			return &tml.Abs{Body: app}, nil
		},
		Opt: opt.Options{NoFold: true, Extra: []opt.Rule{breaking}},
	}
	_, err = p.Run(job)
	if err == nil {
		t.Fatal("pipeline accepted a rule that breaks well-formedness")
	}
	if !strings.Contains(err.Error(), "after pass reduce#1") {
		t.Errorf("error does not name the pass: %v", err)
	}
	// A rule's violation is the compiler's fault, not the input's.
	if !errors.Is(err, opt.ErrMiscompile) || errors.Is(err, tml.ErrIllFormed) {
		t.Errorf("error class: %v, want opt.ErrMiscompile and not tml.ErrIllFormed", err)
	}
}

// TestFlightReleasedOnPanic: a leader whose run panics must not wedge
// its key. A caller waiting on the same key returns, and a retry after
// the panic becomes the leader and runs.
func TestFlightReleasedOnPanic(t *testing.T) {
	var g flightGroup
	k := Key{Options: 1}
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.do(k, func() (*entry, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	type outcome struct {
		ran, shared bool
		err         error
	}
	waiter := make(chan outcome, 1)
	go func() {
		var o outcome
		_, o.shared, o.err = g.do(k, func() (*entry, error) {
			o.ran = true
			return &entry{}, nil
		})
		waiter <- o
	}()
	// Only makes the in-flight case likely; both orders are checked below.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v, want the panic to reach its caller", p)
	}
	select {
	case o := <-waiter:
		// Joined in flight: shares the leader's failure. Joined after the
		// panic: leads its own run.
		if o.shared && o.err != errLeaderPanicked || !o.shared && !o.ran {
			t.Errorf("waiter: %+v", o)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a caller of the panicked key is still blocked")
	}

	ran := false
	_, shared, err := g.do(k, func() (*entry, error) { ran = true; return &entry{}, nil })
	if !ran || shared || err != nil {
		t.Errorf("retry after the panic: ran=%t shared=%t err=%v, want a fresh run", ran, shared, err)
	}
}
