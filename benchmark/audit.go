package main

import (
	"fmt"

	"tycoon"
	"tycoon/internal/fsck"
	"tycoon/internal/machine"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// The offline audit, run after every server has drained: each store
// must pass fsck, every keyed-save slot must hold its last acknowledged
// value, and events must hold the seed rows plus every acknowledged
// append and nothing that was never sent. Each violated expectation is
// one failure in the run's failed count.

type auditReport struct {
	checks   int // expectations examined
	failures []string
}

func (a *auditReport) failf(format string, args ...any) {
	a.failures = append(a.failures, fmt.Sprintf(format, args...))
}

// audit inspects the drained stores of a rig.
func audit(r *rig) *auditReport {
	rep := &auditReport{}
	for i, path := range r.paths {
		rep.checks++
		fr, err := fsck.CheckPath(path)
		switch {
		case err != nil:
			rep.failf("fsck store %d: %v", i, err)
		case !fr.OK():
			rep.failf("fsck store %d: %d errors, first: %s", i, fr.Errors(), fr.Findings[0])
		}
	}
	systems := make([]*tycoon.System, 0, len(r.paths))
	defer func() {
		for _, sys := range systems {
			sys.Close()
		}
	}()
	for i, path := range r.paths {
		sys, err := tycoon.Open(path)
		if err != nil {
			rep.checks++
			rep.failf("reopen store %d: %v", i, err)
			return rep
		}
		systems = append(systems, sys)
	}

	// Slots: the saved closure lives in exactly one store (the only one,
	// or the shard its name hashes to) and returns the last value acked.
	for conn, slots := range r.ackedSlot {
		for slot, want := range slots {
			rep.checks++
			name := slotName(r.w.slotPrefix, conn, slot)
			found := 0
			for _, sys := range systems {
				oid, ok := sys.Store.Root(ship.SavedRoot + name)
				if !ok {
					continue
				}
				found++
				v, err := sys.Machine.Apply(machine.Ref{OID: oid}, nil)
				if err != nil {
					rep.failf("slot %s: %v", name, err)
				} else if got, ok := v.(machine.Int); !ok || int64(got) != want {
					rep.failf("slot %s holds %s, last acknowledged write was %d", name, v.Show(), want)
				}
			}
			if found != 1 {
				rep.failf("slot %s found in %d stores, want 1", name, found)
			}
		}
	}

	// Events: seed rows in order, then appends; every acknowledged
	// append present once, nothing present that was never sent.
	seed := r.w.stores[0].events
	if seed == nil {
		return rep
	}
	rep.checks++
	oid, ok := systems[0].Store.Root("rel:events")
	if !ok {
		rep.failf("events relation missing after the run")
		return rep
	}
	obj, err := systems[0].Store.Get(oid)
	rel, isRel := obj.(*store.Relation)
	if err != nil || !isRel {
		rep.failf("events is not a readable relation: %v", err)
		return rep
	}
	rows := rel.RowsSnapshot()
	if len(rows) < len(seed) {
		rep.failf("events has %d rows, fewer than its %d seed rows", len(rows), len(seed))
		return rep
	}
	asRow := func(r []store.Val) [3]int64 { return [3]int64{r[0].Int, r[1].Int, r[2].Int} }
	for i, want := range seed {
		if asRow(rows[i]) != want {
			rep.failf("events seed row %d changed: %v", i, asRow(rows[i]))
			return rep
		}
	}
	tried := make(map[[3]int64]bool, len(r.triedEvents))
	for _, ev := range r.triedEvents {
		tried[ev] = true
	}
	present := make(map[[3]int64]int)
	for _, row := range rows[len(seed):] {
		ev := asRow(row)
		present[ev]++
		if !tried[ev] {
			rep.failf("events holds %v, which no connection ever sent", ev)
		}
	}
	for _, ev := range r.ackedEvents {
		rep.checks++
		if present[ev] != 1 {
			rep.failf("acknowledged append %v is present %d times", ev, present[ev])
		}
	}
	return rep
}
