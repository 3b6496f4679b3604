package server

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// servedPred renders the benchmark's predicate shape: column col of x
// compared with rhs.
func servedPred(col int, cmp, rhs string) string {
	return fmt.Sprintf("proc(x !ce !cc) ([] x %d cont(a) (%s a %s cont() (cc true) cont() (cc false)))", col, cmp, rhs)
}

// servedJoinOn renders the benchmark's equi-join predicate over the
// concatenated row.
func servedJoinOn(l, r int) string {
	return fmt.Sprintf("proc(x !ce !cc) ([] x %d cont(a) ([] x %d cont(b) (== a b cont() (cc true) cont() (cc false))))", l, r)
}

// TestServedSelectRunsVectorized pins which kernel tier serves the
// relational shapes the benchmark sends: each predicate arrives
// TAM-compiled (every submit does), and over relations of the
// benchmark's sizes every shape must run on the vector kernels — the
// compiling request and the pipeline-cache hit alike — with no row
// booked to the row-at-a-time path. The terms are the benchmark's
// (benchmark/ops.go, named as there): query_scan's select, project, join,
// exists and merge-select, oltp_mixed's scan-count and cluster_scatter's
// shard select.
func TestServedSelectRunsVectorized(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's relations (benchmark/data.go): integer columns,
	// indexed on the first. Each is a pure function of the row number, so
	// every expected answer below is computed from the same generator.
	type relation struct {
		n   int
		row func(i int64) []int64
	}
	const deptRows = 97
	rels := map[string]relation{
		"emp":    {20_000, func(i int64) []int64 { return []int64{i, i % deptRows, 1000 + (i*7919)%9000} }},
		"mid":    {10_000, func(i int64) []int64 { return []int64{i, (i * 31) % deptRows, (i * 613) % 1000} }},
		"team":   {200, func(i int64) []int64 { return []int64{i, (i * 31) % deptRows, (i * 613) % 1000} }},
		"dept":   {deptRows, func(i int64) []int64 { return []int64{i, i * 1000} }},
		"events": {1_000, func(i int64) []int64 { return []int64{i, i % 10, (i * 37) % 500} }},
		"t":      {1_000, func(i int64) []int64 { return []int64{i, i % 97} }},
	}
	for name, r := range rels {
		cols := make([]store.Column, len(r.row(0)))
		for i := range cols {
			cols[i] = store.Column{Name: fmt.Sprintf("c%d", i), Type: store.ColInt}
		}
		tx := srv.core.Store.Begin()
		oid, err := relalg.CreateRelation(tx, name, cols, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < int64(r.n); i++ {
			cells := r.row(i)
			vals := make([]store.Val, len(cells))
			for j, c := range cells {
				vals[j] = store.IntVal(c)
			}
			if err := relalg.InsertRow(tx, oid, vals); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
	// matches counts the rows of a relation that keep holds for.
	matches := func(name string, keep func(row []int64) bool) int64 {
		var n int64
		for i := int64(0); i < int64(rels[name].n); i++ {
			if keep(rels[name].row(i)) {
				n++
			}
		}
		return n
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

	rel := func(name, root string) ship.WBind {
		return ship.WBind{Name: name, Val: ship.WVal{Kind: ship.WRoot, Str: "rel:" + root}}
	}
	num := func(name string, v int64) ship.WBind {
		return ship.WBind{Name: name, Val: ship.WVal{Kind: ship.WInt, Int: v}}
	}
	emp := rel("emp", "emp")
	empN, deptN := rels["emp"].n, rels["dept"].n
	// Each shape's answer (a count, a row count, or 0/1 for exists) and
	// the rows its kernels scan per request, which the vector tier must
	// book in full on the miss and on the hit.
	shapes := []struct {
		name     string
		src      string
		binds    []ship.WBind
		optimize bool
		answer   int64
		scanned  int
	}{
		{"qs-select-count", "(select " + servedPred(2, "<", "5500") + " emp e cont(t) (count t e k))", []ship.WBind{emp}, false,
			matches("emp", func(r []int64) bool { return r[2] < 5500 }), empN},
		{"qs-select-rows", "(select " + servedPred(1, "<", "5") + " emp e k)", []ship.WBind{emp}, false,
			matches("emp", func(r []int64) bool { return r[1] < 5 }), empN},
		{"qs-project-rows", "(project proc(x !ce !cc) ([] x 2 cont(a) (+ a 1 ce cont(b) (vector b cont(row) (cc row)))) mid e k)",
			[]ship.WBind{rel("mid", "mid")}, false, int64(rels["mid"].n), rels["mid"].n},
		// Every team row's c1 is one dept key, so the join yields one row
		// per team row; likewise the self-join on the key, one per dept.
		{"qs-join-hash", "(join " + servedJoinOn(1, 3) + " team dept e cont(t) (count t e k))",
			[]ship.WBind{rel("team", "team"), rel("dept", "dept")}, false, int64(rels["team"].n), rels["team"].n + deptN},
		{"qs-join-merge", "(join " + servedJoinOn(0, 2) + " dept dept2 e cont(t) (count t e k))",
			[]ship.WBind{rel("dept", "dept"), rel("dept2", "dept")}, false, int64(deptN), 2 * deptN},
		{"qs-exists-scan", "(exists " + servedPred(2, ">", "100000") + " emp e k)", []ship.WBind{emp}, false,
			matches("emp", func(r []int64) bool { return r[2] > 100000 }), empN},
		{"qs-merge-select", "(select " + servedPred(1, "==", "3") + " emp e cont(t) (select " +
			servedPred(2, "<", "5500") + " t e cont(u) (count u e k)))", []ship.WBind{emp}, true,
			matches("emp", func(r []int64) bool { return r[1] == 3 && r[2] < 5500 }), empN},
		{"ol-count", "(select " + servedPred(1, "==", "kind") + " r e cont(t) (count t e k))",
			[]ship.WBind{rel("r", "events"), num("kind", 4)}, false,
			matches("events", func(r []int64) bool { return r[1] == 4 }), rels["events"].n},
		{"cl-select", "(select " + servedPred(1, "==", "d") + " r e k)",
			[]ship.WBind{rel("r", "emp"), num("d", 11)}, false,
			matches("emp", func(r []int64) bool { return r[1] == 11 }), empN},
		// A predicate outside the fused comparison: the general vector
		// evaluator.
		{"general-vector", `(select proc(x !ce !cc)
		  ([] x 1 cont(a) (+ a 1 ce cont(b) (< b 51 cont() (cc true) cont() (cc false))))
		  r e k)`, []ship.WBind{rel("r", "t")}, false,
			matches("t", func(r []int64) bool { return r[1]+1 < 51 }), rels["t"].n},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			c, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 30 * time.Second, Client: t.Name()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			vec0, row0 := idleRows(srv)
			for i, wantHit := range []bool{false, true} {
				res, err := c.SubmitTML(sh.name, sh.src, sh.binds, sh.optimize, "")
				if err != nil {
					t.Fatal(err)
				}
				if res.Info.CacheHit != wantHit {
					t.Fatalf("submit %d: cache hit %v, want %v", i, res.Info.CacheHit, wantHit)
				}
				if got := answerOf(res.Val); got != sh.answer {
					t.Fatalf("submit %d: answer %s (%d), want %d", i, res.Val.Show(), got, sh.answer)
				}
			}

			// Each request's machine was back on the idle list before its
			// answer was written.
			vec, row := idleRows(srv)
			if vec-vec0 != int64(2*sh.scanned) || row != row0 {
				t.Errorf("tier split over miss + hit: %d vector rows, %d row at a time; want %d and none",
					vec-vec0, row-row0, 2*sh.scanned)
			}
		})
	}
}

// idleRows sums the rows the server's idle machines booked to the vector
// and to the row-at-a-time tier.
func idleRows(srv *Server) (vec, row int64) {
	for _, m := range srv.core.Idle() {
		p := m.Profile()
		vec += p.VecRows
		row += p.RowRows
	}
	return vec, row
}

// answerOf reduces a served answer to one number: an integer as itself,
// a boolean as 0 or 1, a relation as its row count.
func answerOf(v ship.WVal) int64 {
	switch {
	case v.Rel != nil:
		return int64(len(v.Rel.Rows))
	case v.Kind == ship.WBool && v.Bool:
		return 1
	case v.Kind == ship.WBool:
		return 0
	}
	return v.Int
}
