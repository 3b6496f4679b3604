package server

import (
	"context"
	"net"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// TestServedSelectRunsVectorized pins which kernel tier serves a SUBMIT:
// the predicate arrives TAM-compiled (every submit does), and a select
// over a scan long enough to amortise a decompile must run on the vector
// kernels — the compiling request and the pipeline-cache hit alike — with
// no row booked to the batched or row-at-a-time tier.
func TestServedSelectRunsVectorized(t *testing.T) {
	const rows = 1000
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oid, err := srv.Manager().CreateRelation("t", []store.Column{
		{Name: "id", Type: store.ColInt}, {Name: "val", Type: store.ColInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := srv.Manager().InsertRow(oid, []store.Val{store.IntVal(int64(i)), store.IntVal(int64(i % 97))}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-front the server so the test can reach its one session's machine.
	var sess *session
	srv.FrontEnd = ship.NewFrontEnd(ship.Daemon{
		Name: "tycd",
		Session: func(c *ship.Session) map[ship.Verb]ship.Handler {
			sess = newSession(srv, c)
			return sess.verbs()
		},
		Stats: srv.fillStats,
	})
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
	c, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 30 * time.Second, Client: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const src = `(select proc(x !ce !cc)
	  ([] x 1 cont(a) (+ a 1 ce cont(b) (< b 51 cont() (cc true) cont() (cc false))))
	  r e k)`
	binds := []ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:t"}}}
	for i, wantHit := range []bool{false, true} {
		res, err := c.SubmitTML("sel", src, binds, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Info.CacheHit != wantHit || len(res.Val.Rel.Rows) != 530 {
			t.Fatalf("submit %d: cache hit %v, %d rows; want hit %v, 530 rows",
				i, res.Info.CacheHit, len(res.Val.Rel.Rows), wantHit)
		}
	}

	// Read the session's machine profile once its goroutine has exited
	// (deregistration under the front end's lock orders its writes before
	// the Stats read that no longer counts it).
	c.Close()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Sessions != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session did not end after its client closed")
		}
	}
	if sess == nil {
		t.Fatal("no session registered")
	}
	if p := sess.m.Profile(); p.VecRows != 2*rows || p.BatchRows != 0 || p.RowRows != 0 {
		t.Errorf("tier split over miss + hit: %+v, want %d vector rows and none in the row tiers", p, 2*rows)
	}
}
