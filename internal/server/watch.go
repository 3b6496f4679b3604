package server

import (
	"fmt"
	"sync"

	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// Defaults for the watch hub's Config zero values.
const (
	// DefaultWatchBacklog bounds the events retained for resume-from-CSN:
	// a reconnecting subscriber whose SinceCSN still falls inside the
	// backlog replays the gap; older positions are refused (the client
	// must start a fresh subscription).
	DefaultWatchBacklog = 4096
	// DefaultWatchQueue bounds one subscriber's undelivered events. A
	// subscriber that falls further behind is dropped with an overloaded
	// error — it resumes by CSN — rather than letting one slow consumer
	// hold event memory for everyone.
	DefaultWatchQueue = 1024
)

// hub fans committed root changes out to WATCH subscribers. It is fed
// by the store's root hook — called under the store lock, strictly in
// CSN order, one call per commit — and therefore does nothing but
// append under its own lock: no I/O, no store calls, no blocking sends.
// Session goroutines drain their subscriber queues and do the actual
// frame writes.
type hub struct {
	mu   sync.Mutex
	subs map[*subscriber]struct{}
	// backlog is the resume window: recent events in CSN order. floor is
	// the completeness horizon — every event with CSN > floor is present,
	// so a resume from SinceCSN >= floor is gapless and anything older is
	// refused.
	backlog  []ship.Notify
	floor    uint64
	cap      int
	queueCap int
	draining bool
	// Counters (see ship.WatchStats).
	total, resumed, events, delivered, dropped, lostHorizon int64
}

// subscriber is one WATCH session's delivery state. queue and dead are
// guarded by the hub lock; wake (capacity 1) nudges the session
// goroutine, which drains via take.
type subscriber struct {
	patterns []string
	queue    []ship.Notify
	wake     chan struct{}
	dead     bool
	reason   *ship.WireError
}

func newHub(backlogCap, queueCap int, startCSN uint64) *hub {
	if backlogCap <= 0 {
		backlogCap = DefaultWatchBacklog
	}
	if queueCap <= 0 {
		queueCap = DefaultWatchQueue
	}
	return &hub{
		subs:     make(map[*subscriber]struct{}),
		cap:      backlogCap,
		queueCap: queueCap,
		// Nothing before the hub existed is resumable: the backlog starts
		// empty, complete from the store's CSN at server start.
		floor: startCSN,
	}
}

// publish is the store's root hook: one committed publication event,
// all its root changes, at one CSN. Runs under the store lock — append
// only, never block.
func (h *hub) publish(csn uint64, changes []store.RootChange) {
	h.mu.Lock()
	defer h.mu.Unlock()
	notifs := make([]ship.Notify, len(changes))
	for i, ch := range changes {
		notifs[i] = ship.Notify{Root: ch.Root, OID: uint64(ch.OID), CSN: csn, More: i+1 < len(changes)}
	}
	h.events += int64(len(notifs))
	h.backlog = append(h.backlog, notifs...)
	// Evict whole commits only, so the resume window never splits a
	// batch: everything sharing the CSN of the evicted head goes too.
	for len(h.backlog) > h.cap {
		evict := h.backlog[0].CSN
		n := 0
		for n < len(h.backlog) && h.backlog[n].CSN == evict {
			n++
		}
		h.backlog = h.backlog[n:]
		h.floor = evict
	}
	for sub := range h.subs {
		if sub.dead {
			continue
		}
		matched := false
		for i := range notifs {
			if matchAny(sub.patterns, notifs[i].Root) {
				sub.queue = append(sub.queue, notifs[i])
				h.delivered++
				matched = true
			}
		}
		if !matched {
			continue
		}
		// A multi-root commit delivers only its matching subset; patch the
		// batch flag so the subscriber's last change of this commit closes
		// the batch.
		sub.queue[len(sub.queue)-1].More = false
		if len(sub.queue) > h.queueCap {
			sub.dead = true
			sub.reason = &ship.WireError{
				Code: ship.CodeOverloaded,
				Msg:  fmt.Sprintf("watch subscriber fell %d events behind; resume from last CSN", len(sub.queue)),
			}
			sub.queue = nil
			h.dropped++
		}
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
}

// matchAny reports whether any pattern matches the root name.
func matchAny(patterns []string, root string) bool {
	for _, p := range patterns {
		if ship.MatchRoot(p, root) {
			return true
		}
	}
	return false
}

// subscribe registers a subscription. since resumes from a previous
// position: matching backlog events with CSN > since are replayed into
// the queue before the subscriber goes live, atomically with
// registration, so the gap between the old connection and this one is
// covered without duplication. now is the store's current CSN, used as
// the position of a fresh subscription.
func (h *hub) subscribe(patterns []string, since, now uint64) (*subscriber, uint64, *ship.WireError) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return nil, 0, &ship.WireError{Code: ship.CodeShutdown, Msg: "tycd is draining"}
	}
	pos := now
	sub := &subscriber{patterns: patterns, wake: make(chan struct{}, 1)}
	if since != 0 {
		if since < h.floor {
			h.lostHorizon++
			return nil, 0, &ship.WireError{
				Code: ship.CodeBadRequest,
				Msg:  fmt.Sprintf("resume horizon lost: CSN %d is below the retained backlog (floor %d); subscribe fresh", since, h.floor),
			}
		}
		pos = since
		h.resumed++
	}
	// Replay the backlog above the position — for a resume that is the
	// reconnect gap; for a fresh subscription it covers the window between
	// the caller reading the store CSN and this registration, so the
	// handoff from replay to live delivery is gapless either way.
	for i := range h.backlog {
		if h.backlog[i].CSN > pos && matchAny(patterns, h.backlog[i].Root) {
			sub.queue = append(sub.queue, h.backlog[i])
			h.delivered++
		}
	}
	if n := len(sub.queue); n > 0 {
		// Pattern filtering can cut a commit's batch mid-way; recompute the
		// batch flags from CSN adjacency (each commit has a unique CSN).
		for i := range sub.queue {
			sub.queue[i].More = i+1 < n && sub.queue[i+1].CSN == sub.queue[i].CSN
		}
		sub.wake <- struct{}{}
	}
	h.subs[sub] = struct{}{}
	h.total++
	return sub, pos, nil
}

// take drains a subscriber's pending events. dead reports a terminated
// subscription; after delivering the returned events the session sends
// reason and closes.
func (h *hub) take(sub *subscriber) (events []ship.Notify, dead bool, reason *ship.WireError) {
	h.mu.Lock()
	defer h.mu.Unlock()
	events = sub.queue
	sub.queue = nil
	return events, sub.dead, sub.reason
}

// remove unregisters a subscriber (idempotent).
func (h *hub) remove(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
}

// drain terminates every subscription with a shutdown error and
// refuses new ones. Watch sessions wake, flush what is queued, send the
// error and close — the push-stream analogue of nudging a reader.
func (h *hub) drain() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.draining = true
	for sub := range h.subs {
		if !sub.dead {
			sub.dead = true
			sub.reason = &ship.WireError{Code: ship.CodeShutdown, Msg: "tycd is draining"}
		}
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
}

// handleWatch opens one WATCH subscription: validate, register, answer
// watch-ok — and take the connection over as a push stream that runs
// until the peer goes away, the subscriber is dropped (overflow), or the
// server drains.
func (s *session) handleWatch(body []byte) (ship.Verb, []byte, *ship.WireError) {
	req, err := ship.DecodeWatch(body)
	if err != nil {
		return 0, nil, ship.WireErr(ship.CodeProto, err)
	}
	if len(req.Patterns) == 0 {
		return 0, nil, &ship.WireError{Code: ship.CodeBadRequest, Msg: "watch without patterns (use \"*\" for everything)"}
	}
	for _, p := range req.Patterns {
		if p == "" {
			return 0, nil, &ship.WireError{Code: ship.CodeBadRequest, Msg: "empty watch pattern"}
		}
	}
	// The store CSN is read before subscribing (lock order: the hub lock
	// nests inside the store lock via the root hook, so the hub must
	// never call the store); the subscribe replay covers the gap.
	now := s.srv.st.CSN()
	sub, pos, werr := s.srv.watch.subscribe(req.Patterns, req.SinceCSN, now)
	if werr != nil {
		return 0, nil, werr
	}
	s.srv.Logf("session %d: watching %v from CSN %d", s.c.ID(), req.Patterns, pos)
	s.c.Stream(func(gone <-chan struct{}) { s.streamWatch(sub, gone) })
	return ship.VWatchOK, (&ship.WatchOK{CSN: pos}).Encode(), nil
}

// streamWatch pushes a subscriber's notifications until the stream ends.
func (s *session) streamWatch(sub *subscriber, gone <-chan struct{}) {
	defer s.srv.watch.remove(sub)
	flush := func() (stop bool) {
		events, dead, reason := s.srv.watch.take(sub)
		for i := range events {
			if !s.c.Send(ship.VNotify, events[i].Encode()) {
				return true
			}
		}
		if dead {
			if reason != nil {
				s.c.SendErr(reason)
			}
			return true
		}
		return false
	}
	for {
		select {
		case <-sub.wake:
			if flush() {
				return
			}
		case <-gone:
			// The peer closed — or the drain nudge fired the parked read.
			// A final flush tells a drained subscriber why the stream ends
			// (the hub was marked draining before sessions were nudged).
			flush()
			return
		}
	}
}

// stats snapshots the hub counters; nil when the hub was never used so
// the JSON block stays absent on servers that never saw a WATCH.
func (h *hub) stats() *ship.WatchStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 && h.events == 0 {
		return nil
	}
	return &ship.WatchStats{
		Subscribers:  len(h.subs),
		TotalWatches: h.total,
		Resumed:      h.resumed,
		Events:       h.events,
		Delivered:    h.delivered,
		Dropped:      h.dropped,
		LostHorizon:  h.lostHorizon,
		Backlog:      len(h.backlog),
	}
}
