package pipeline

import (
	"errors"
	"sync"
)

// flightGroup deduplicates concurrent pipeline runs of the same key: the
// first caller executes, later callers block on the same call and share
// its result. A minimal reimplementation of the well-known singleflight
// pattern specialised to cache entries (no external dependency).
type flightGroup struct {
	mu    sync.Mutex
	calls map[Key]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  *entry
	err  error
}

// errLeaderPanicked is what callers sharing a run see when its leader
// panicked; the panic itself unwinds the leader's goroutine.
var errLeaderPanicked = errors.New("pipeline: shared run panicked")

// do runs fn once per concurrently-identical key. shared reports that
// this caller received another caller's result. The call is finished on
// every exit: if fn panics, waiters are released with errLeaderPanicked,
// the key is freed for a retry, and the panic continues to unwind into
// the caller's recover.
func (g *flightGroup) do(k Key, fn func() (*entry, error)) (res *entry, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[Key]*flightCall)
	}
	if c, ok := g.calls[k]; ok {
		g.mu.Unlock()
		<-c.done
		return c.res, true, c.err
	}
	c := &flightCall{done: make(chan struct{}), err: errLeaderPanicked}
	g.calls[k] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, k)
		g.mu.Unlock()
		close(c.done)
	}()

	c.res, c.err = fn()
	return c.res, false, c.err
}
