package main

import (
	"fmt"

	"tycoon"
)

// The seeded data model. Every relation the workloads touch is defined
// here twice: once as plain Go slices (the oracle's copy, from which
// every expected answer is computed) and once as rows inserted through
// the public facade into a file-backed store (the copy the servers
// read). Both are pure functions of the seed, so the system under test
// never supplies its own expected answers.

// splitmix64 is the stateless mixer all seeded values come from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cell is the seeded value of (table, id): uniform in [0, mod).
func cell(seed int64, table uint64, id int64, mod int64) int64 {
	return int64(splitmix64(uint64(seed)*0x100000001b3^table<<56^uint64(id)) % uint64(mod))
}

// rng is a tiny deterministic generator for op streams (one per
// connection): the stream must be byte-identical for one seed on every
// Go version, which math/rand does not promise across releases.
type rng struct{ s uint64 }

func newRNG(seed int64, lane uint64) *rng {
	return &rng{s: splitmix64(uint64(seed)) ^ splitmix64(lane+0x5bd1e995)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// Table tags for cell.
const (
	tagAcctBal uint64 = iota + 1
	tagEmpSal
	tagMidVal
	tagEventAmt
)

// Relation sizes at scale 1. The smoke tests shrink them; the ratios
// (dept ≪ mid < emp, 64-key pool ≪ acct) are what the workloads rely on.
const (
	acctRows   = 10_000
	empRows    = 20_000
	midRows    = 10_000
	deptRows   = 97
	teamRows   = 200 // join input: the served join is a nested loop, so it stays small
	eventRows  = 1_000
	shardRows  = 3_000 // emp rows per shard in cluster_scatter
	keyDomain  = 100_000
	salCeiling = 10_000
)

// dataset is the oracle's copy of one store's relations. A nil slice
// means the workload's store does not hold that relation.
type dataset struct {
	acct   [][2]int64 // id, bal
	emp    [][3]int64 // id, dept, sal
	mid    [][3]int64 // id, dept, val
	dept   [][2]int64 // id, budget
	team   [][3]int64 // id, dept, val
	events [][3]int64 // id, kind, amt
}

// scaled shrinks a row count for the smoke tests, never below a floor
// that keeps every query non-empty.
func scaled(n, div int) int {
	n /= div
	if n < 200 {
		n = 200
	}
	return n
}

func genAcct(seed int64, n int) [][2]int64 {
	rows := make([][2]int64, n)
	for i := range rows {
		rows[i] = [2]int64{int64(i), cell(seed, tagAcctBal, int64(i), 1_000_000)}
	}
	return rows
}

// genEmp generates emp rows for ids first, first+step, …: a single
// store holds every id (first 0, step 1), a cluster shard every third.
func genEmp(seed int64, n int, first, step int64) [][3]int64 {
	rows := make([][3]int64, n)
	for i := range rows {
		id := first + int64(i)*step
		rows[i] = [3]int64{id, id % deptRows, 1000 + cell(seed, tagEmpSal, id, salCeiling-1000)}
	}
	return rows
}

func genMid(seed int64, n int) [][3]int64 {
	rows := make([][3]int64, n)
	for i := range rows {
		id := int64(i)
		rows[i] = [3]int64{id, (id * 31) % deptRows, cell(seed, tagMidVal, id, 1000)}
	}
	return rows
}

func genDept() [][2]int64 {
	rows := make([][2]int64, deptRows)
	for i := range rows {
		rows[i] = [2]int64{int64(i), int64(i) * 1000}
	}
	return rows
}

func genEvents(seed int64, n int) [][3]int64 {
	rows := make([][3]int64, n)
	for i := range rows {
		id := int64(i)
		rows[i] = [3]int64{id, id % 10, cell(seed, tagEventAmt, id, 500)}
	}
	return rows
}

// intCols builds an all-integer schema.
func intCols(names ...string) []tycoon.Column {
	cols := make([]tycoon.Column, len(names))
	for i, n := range names {
		cols[i] = tycoon.Column{Name: n, Type: tycoon.ColInt}
	}
	return cols
}

// insertRows creates relation name (indexed on column 0) and appends
// the rows through the facade.
func insertRows[R [2]int64 | [3]int64](sys *tycoon.System, name string, cols []string, rows []R) error {
	rel, err := sys.CreateRelation(name, intCols(cols...), 0)
	if err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	for _, r := range rows {
		// The relation keeps the slice it is handed: one per row.
		vals := make([]tycoon.Val, len(cols))
		for i := range vals {
			vals[i] = tycoon.IntVal(r[i])
		}
		if err := sys.InsertRow(rel, vals...); err != nil {
			return fmt.Errorf("insert into %s: %w", name, err)
		}
	}
	return nil
}

// fill inserts the dataset's relations and installs the given TL
// modules into an open system through the facade.
func fill(sys *tycoon.System, ds *dataset, modules []string) error {
	if ds.acct != nil {
		if err := insertRows(sys, "acct", []string{"id", "bal"}, ds.acct); err != nil {
			return err
		}
	}
	if ds.emp != nil {
		if err := insertRows(sys, "emp", []string{"id", "dept", "sal"}, ds.emp); err != nil {
			return err
		}
	}
	if ds.mid != nil {
		if err := insertRows(sys, "mid", []string{"id", "dept", "val"}, ds.mid); err != nil {
			return err
		}
	}
	if ds.dept != nil {
		if err := insertRows(sys, "dept", []string{"id", "budget"}, ds.dept); err != nil {
			return err
		}
	}
	if ds.team != nil {
		if err := insertRows(sys, "team", []string{"id", "dept", "val"}, ds.team); err != nil {
			return err
		}
	}
	if ds.events != nil {
		if err := insertRows(sys, "events", []string{"id", "kind", "amt"}, ds.events); err != nil {
			return err
		}
	}
	for _, src := range modules {
		if _, err := sys.Install(src); err != nil {
			return fmt.Errorf("install: %w", err)
		}
	}
	return nil
}

// populate writes the dataset and modules into a fresh file-backed store
// at path through the public facade, then closes it — the state a server
// later opens and replays.
func populate(path string, ds *dataset, modules []string) error {
	sys, err := tycoon.Open(path)
	if err != nil {
		return fmt.Errorf("populate: open %s: %w", path, err)
	}
	if err := fill(sys, ds, modules); err != nil {
		sys.Close()
		return fmt.Errorf("populate: %w", err)
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("populate: close %s: %w", path, err)
	}
	return nil
}
