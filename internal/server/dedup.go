package server

import (
	"container/list"
	"sync"

	"tycoon/internal/ship"
)

// DefaultDedupCap bounds the idempotency record table.
const DefaultDedupCap = 4096

// Dedup is the idempotency record table: the response of a keyed
// request whose execution had durable effects is recorded under client
// key × content hash, and a retry of the same key is answered from the
// record instead of being executed a second time — the mechanism that
// makes a retried save= install apply exactly once. Keyed requests that
// turn out to be effect-free reads are not retained (re-executing a
// read is harmless), so large query results never pile up in the
// table. The table is owned by the Server, not the session, so
// records survive session reconnects; the chaos harness goes further
// and passes one table through Config.Dedup across drain/restart
// incarnations over the same store.
//
// Concurrent duplicates (a client retrying while its first attempt is
// still executing) are collapsed too: followers of an in-flight key
// wait for the leader's outcome rather than executing in parallel, so
// "applied at most once" holds even under pathological timing.
//
// The table is bounded (LRU eviction). An evicted key's retry would
// re-execute; the cap is far above any plausible in-flight retry window.
type Dedup struct {
	mu       sync.Mutex
	cap      int
	entries  map[string]*list.Element // → *dedupEntry in lru
	lru      *list.List
	inflight map[string]chan struct{}
	applied  int64
	deduped  int64
}

type dedupEntry struct {
	key string
	res ship.Result
}

// NewDedup builds an idempotency table; cap <= 0 means DefaultDedupCap.
func NewDedup(cap int) *Dedup {
	if cap <= 0 {
		cap = DefaultDedupCap
	}
	return &Dedup{
		cap:      cap,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]chan struct{}),
	}
}

// Counters reports how many keyed requests were executed and recorded
// (applied) and how many retries were answered from the record
// (deduped).
func (d *Dedup) Counters() (applied, deduped int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied, d.deduped
}

// Do runs fn at most once per key: the first caller executes, and every
// later caller — concurrent or retrying after a lost response — gets the
// recorded result instead of executing again. fn's third return value
// says whether the execution is worth recording: executions with durable
// effects (a save=, an install, a store mutation) must return true so a
// retry can never double-apply them; effect-free executions return false
// and are not retained — a retry simply re-executes the read, which
// keeps the table from pinning large query results in memory. Failed
// executions are never recorded, so the key stays retryable.
func (d *Dedup) Do(key string, fn func() (*ship.Result, *ship.WireError, bool)) (*ship.Result, *ship.WireError) {
	for {
		d.mu.Lock()
		if el, ok := d.entries[key]; ok {
			d.lru.MoveToFront(el)
			res := el.Value.(*dedupEntry).res // copy; callers mutate Info
			d.deduped++
			d.mu.Unlock()
			return &res, nil
		}
		if ch, ok := d.inflight[key]; ok {
			// A duplicate of an executing request: wait for the leader,
			// then re-check (the leader may have failed, leaving the
			// key unrecorded — then this caller becomes the leader).
			d.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		d.inflight[key] = ch
		d.mu.Unlock()
		// Release the slot on every exit, a panic in fn included: the
		// key stays unrecorded, waiters wake to re-check it (the first
		// leads a retry), and the panic unwinds into the session's
		// recover.
		defer func() {
			d.mu.Lock()
			delete(d.inflight, key)
			d.mu.Unlock()
			close(ch)
		}()

		res, werr, record := fn()
		if record && werr == nil && res != nil {
			d.mu.Lock()
			d.entries[key] = d.lru.PushFront(&dedupEntry{key: key, res: *res})
			d.applied++
			for d.lru.Len() > d.cap {
				last := d.lru.Back()
				d.lru.Remove(last)
				delete(d.entries, last.Value.(*dedupEntry).key)
			}
			d.mu.Unlock()
		}
		return res, werr
	}
}
