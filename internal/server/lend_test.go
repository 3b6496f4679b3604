package server

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// TestIdleSessionsHoldNoMachine: a machine belongs to a request, not to a
// connection. Connections that each ran a CALL in turn and stay open
// leave the server one machine, not one each; K concurrent requests
// leave at most K.
func TestIdleSessionsHoldNoMachine(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	dial := func() *client.Client {
		c, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 30 * time.Second, Client: t.Name()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	idle := func() int { return len(srv.core.Idle()) }
	call := func(c *client.Client, n int64) error {
		res, err := c.Call("app", "fib", ship.WVal{Kind: ship.WInt, Int: n})
		if err == nil && n == 15 && res.Val.Int != 610 {
			t.Errorf("fib 15 = %s, want 610", res.Val.Show())
		}
		return err
	}

	if _, err := dial().Install(`module app export fib
let fib(n : Int) : Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end
end`); err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	for i := 0; i < sessions; i++ {
		if err := call(dial(), 15); err != nil {
			t.Fatal(err)
		}
	}
	if n := idle(); n != 1 {
		t.Errorf("%d sessions that ran in turn left %d machines, want 1", sessions+1, n)
	}

	const concurrent = 4
	conns := make([]*client.Client, concurrent)
	for i := range conns {
		conns[i] = dial()
	}
	start := make(chan struct{})
	errs := make(chan error, concurrent)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			<-start
			errs <- call(c, 20)
		}(c)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := idle(); n < 1 || n > concurrent {
		t.Errorf("%d concurrent requests left %d machines, want 1 to %d", concurrent, n, concurrent)
	}
}
