package ship

import (
	"sync/atomic"
	"time"
)

// Gate is the inflight bound a daemon puts in front of its work verbs:
// a counting semaphore that refuses, rather than queues, what does not
// fit. The refusal (CodeOverloaded with a RetryAfterMs hint) happens
// before any part of the request executes, which is what makes it safe
// to resend for every verb. Probes (PING, STATS, HEALTH) never pass
// through a gate, so a saturated daemon stays observable.
type Gate struct {
	slots        chan struct{} // nil: unbounded
	refusal      string
	retryAfterMs uint32
	shed         atomic.Int64
}

// NewGate bounds concurrent work to n slots; n ≤ 0 leaves it unbounded.
// who names the daemon in refusals; retryAfter is their backoff hint.
func NewGate(n int, retryAfter time.Duration, who string) *Gate {
	g := &Gate{
		refusal:      who + " at inflight capacity, retry later",
		retryAfterMs: uint32(retryAfter / time.Millisecond),
	}
	if n > 0 {
		g.slots = make(chan struct{}, n)
	}
	return g
}

// Enter claims a slot, or counts the request as shed and returns the
// refusal. Every nil return must be paired with one Leave.
func (g *Gate) Enter() *WireError {
	if g.slots == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
		g.shed.Add(1)
		return &WireError{Code: CodeOverloaded, Msg: g.refusal, RetryAfterMs: g.retryAfterMs}
	}
}

// Leave frees the slot claimed by a successful Enter.
func (g *Gate) Leave() {
	if g.slots != nil {
		<-g.slots
	}
}

// Inflight reports how many requests hold a slot right now.
func (g *Gate) Inflight() int { return len(g.slots) }

// Shed counts the requests Enter refused.
func (g *Gate) Shed() int64 { return g.shed.Load() }
