package reflectopt_test

import (
	"fmt"
	"sync"
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/store"
)

const complexSrc = `
module complex export T, new, x, y
type T = Tuple x, y : Real end
let new(x : Real, y : Real) : T = tuple x, y end
let x(c : T) : Real = c.x
let y(c : T) : Real = c.y
end`

const geomSrc = `
module geom export abs
let abs(c : complex.T) : Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end`

// installGeom installs the §4.1 example and returns the abs closure OID.
func installGeom(t *testing.T, w *world) store.OID {
	t.Helper()
	w.install(t, complexSrc)
	geomOID := w.install(t, geomSrc)
	return w.exportOID(t, geomOID, "abs")
}

// TestRepeatOptimizeCacheHit: re-optimizing an unchanged closure is a
// cache hit — no reduce/expand passes run, verified by the pass stats —
// and the derived results (Inlined, Stats) survive the hit.
func TestRepeatOptimizeCacheHit(t *testing.T) {
	w := setup(t)
	absOID := installGeom(t, w)

	r1, err := w.ro.Optimize(absOID)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first optimization reported a cache hit")
	}
	if len(r1.Pipeline.Passes) == 0 {
		t.Fatal("first optimization recorded no passes")
	}

	r2, err := w.ro.Optimize(absOID)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("repeat optimization of an unchanged closure missed the cache")
	}
	if len(r2.Pipeline.Passes) != 0 {
		t.Errorf("cache hit ran %d passes: %v", len(r2.Pipeline.Passes), r2.Pipeline.Passes)
	}
	if r2.Abs != r1.Abs || r2.Closure != r1.Closure {
		t.Error("cache hit did not share the computed artifacts")
	}
	if r2.Inlined != r1.Inlined || r2.Inlined == 0 {
		t.Errorf("Inlined not preserved across the hit: %d vs %d", r2.Inlined, r1.Inlined)
	}
	cs := w.ro.CacheStats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss / 1 hit", cs)
	}
}

// TestConcurrentOptimizeSameClosure: N goroutines reflecting on the same
// closure do the optimization work exactly once (singleflight), and all
// receive working code.
func TestConcurrentOptimizeSameClosure(t *testing.T) {
	w := setup(t)
	absOID := installGeom(t, w)
	point := &machine.Vector{Elems: []machine.Value{machine.Real(3), machine.Real(4)}}

	const n = 16
	results := make([]*machine.TAMClosure, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := w.ro.Optimize(absOID)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Closure
		}(i)
	}
	close(start)
	wg.Wait()

	cs := w.ro.CacheStats()
	if cs.Misses != 1 {
		t.Errorf("misses = %d, want exactly one execution", cs.Misses)
	}
	if cs.Hits+cs.Shared != n-1 {
		t.Errorf("hits+shared = %d, want %d", cs.Hits+cs.Shared, n-1)
	}
	for i, clo := range results {
		if clo == nil {
			t.Fatalf("goroutine %d got no closure", i)
		}
		v, err := w.m.Apply(clo, []machine.Value{point})
		if err != nil {
			t.Fatalf("goroutine %d's code: %v", i, err)
		}
		if r, ok := v.(machine.Real); !ok || r != 5.0 {
			t.Fatalf("goroutine %d's code computes %s, want 5", i, v.Show())
		}
	}
}

// TestConcurrentOptimizeDifferentClosures: goroutines optimizing
// different closures proceed independently — one miss per distinct
// closure, and every result is that closure's own code.
func TestConcurrentOptimizeDifferentClosures(t *testing.T) {
	w := setup(t)
	const nf = 4
	src := "module many export f0, f1, f2, f3\n"
	for i := 0; i < nf; i++ {
		src += fmt.Sprintf("let f%d(n : Int) : Int = n + %d\n", i, i)
	}
	modOID := w.install(t, src+"end")
	oids := make([]store.OID, nf)
	for i := 0; i < nf; i++ {
		oids[i] = w.exportOID(t, modOID, fmt.Sprintf("f%d", i))
	}

	const perClosure = 4
	results := make([]*machine.TAMClosure, nf*perClosure)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < nf; i++ {
		for j := 0; j < perClosure; j++ {
			wg.Add(1)
			go func(i, slot int) {
				defer wg.Done()
				<-start
				res, err := w.ro.Optimize(oids[i])
				if err != nil {
					t.Error(err)
					return
				}
				results[slot] = res.Closure
			}(i, i*perClosure+j)
		}
	}
	close(start)
	wg.Wait()

	// The machine itself is single-threaded; verify the code serially.
	for slot, clo := range results {
		if clo == nil {
			t.Fatalf("slot %d got no closure", slot)
		}
		i := slot / perClosure
		v, err := w.m.Apply(clo, []machine.Value{machine.Int(10)})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := v.(machine.Int); !ok || int(got) != 10+i {
			t.Errorf("f%d(10) = %s, want %d", i, v.Show(), 10+i)
		}
	}

	cs := w.ro.CacheStats()
	if cs.Misses != nf {
		t.Errorf("misses = %d, want one per distinct closure (%d)", cs.Misses, nf)
	}
	if cs.Hits+cs.Shared != nf*(perClosure-1) {
		t.Errorf("hits+shared = %d, want %d", cs.Hits+cs.Shared, nf*(perClosure-1))
	}
}

// TestBindingChangeInvalidates: a committed binding change — updating
// an object and republishing a module root, the writes a module upgrade
// commits — advances the binding epoch and forces recomputation instead
// of serving stale folded code. A committed non-binding mutation
// (MarkDirty) leaves the cache intact.
func TestBindingChangeInvalidates(t *testing.T) {
	w := setup(t)
	absOID := installGeom(t, w)

	if _, err := w.ro.Optimize(absOID); err != nil {
		t.Fatal(err)
	}

	// MarkDirty is an in-place mutation of a non-binding object: the
	// entry stays valid.
	var scratch store.OID
	w.write(t, func(tx *store.Txn) {
		scratch = tx.Alloc(&store.Array{Elems: []store.Val{store.IntVal(1)}})
	})
	w.write(t, func(tx *store.Txn) {
		tx.MustGet(scratch).(*store.Array).Elems[0] = store.IntVal(2)
		tx.MarkDirty(scratch)
	})
	res, err := w.ro.Optimize(absOID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("MarkDirty invalidated the optimized-code cache")
	}

	// Update republishes an object — the mutation a module upgrade
	// performs on its closures. The epoch advances; the entry dies.
	w.write(t, func(tx *store.Txn) {
		if err := tx.Update(scratch, &store.Array{}); err != nil {
			t.Fatal(err)
		}
	})
	res, err = w.ro.Optimize(absOID)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("optimization after a binding change was served from the cache")
	}
	cs := w.ro.CacheStats()
	if cs.Misses != 2 {
		t.Errorf("misses = %d, want 2 (recomputed after invalidation)", cs.Misses)
	}
}

// TestConcurrentInstallAndOptimize: module installation and reflective
// optimization run safely in parallel (exercised under -race).
func TestConcurrentInstallAndOptimize(t *testing.T) {
	w := setup(t)
	absOID := installGeom(t, w)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			src := fmt.Sprintf("module extra%d export g\nlet g(n : Int) : Int = n * 2\nend", i)
			unit, err := w.comp.Compile(src)
			if err != nil {
				t.Error(err)
				return
			}
			tx := w.st.Begin()
			if _, err := w.lk.InstallModuleOn(machine.New(tx), tx, unit); err != nil {
				tx.Abort()
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			res, err := w.ro.Optimize(absOID)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Closure == nil {
				t.Error("optimization returned no closure")
				return
			}
		}
	}()
	wg.Wait()
}
