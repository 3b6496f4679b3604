package main

import (
	"fmt"
	"strings"

	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/ship"
	"tycoon/internal/stanford"
	"tycoon/internal/tml"
)

// The six workloads: what each connection sends, and what the answer
// must be. An op stream is a pure function of (seed, connection): the
// kinds follow a fixed repeating schedule, so the traffic mix is exactly
// the same on every seed and only keys, literals and arguments vary —
// a seed moves the inputs, never the share of expensive operations.

// expKind says how an expected answer is compared.
type expKind uint8

const (
	expInt  expKind = iota // scalar integer, exact
	expBool                // scalar boolean, exact
	expRel                 // relation: row count and the sum of every integer cell
)

// expect is the oracle's answer to one op.
type expect struct {
	kind expKind
	i    int64 // expInt value; expRel cell sum
	b    bool
	rows int
}

// ok compares a wire value against the oracle.
func (e expect) ok(v ship.WVal) bool {
	switch e.kind {
	case expInt:
		return v.Kind == ship.WInt && v.Int == e.i
	case expBool:
		return v.Kind == ship.WBool && v.Bool == e.b
	default:
		if v.Kind != ship.WRel || v.Rel == nil || len(v.Rel.Rows) != e.rows {
			return false
		}
		var sum int64
		for _, row := range v.Rel.Rows {
			for _, c := range row {
				if c.Kind != ship.WInt {
					return false
				}
				sum += c.Int
			}
		}
		return sum == e.i
	}
}

// relExpect sums the oracle's rows the way expect.ok sums the answer's.
func relExpect[R [2]int64 | [3]int64](rows []R) expect {
	e := expect{kind: expRel, rows: len(rows)}
	for _, r := range rows {
		for i := 0; i < len(r); i++ {
			e.i += r[i]
		}
	}
	return e
}

// op is one request with its expected answer. Exactly one of submit and
// call is set. A durable op names what the post-run audit must find:
// slot ≥ 0 is a keyed save of value want.i, event > 0 an appended row.
type op struct {
	kind   int
	submit *ship.Submit
	call   *ship.Call
	want   expect
	write  bool
	slot   int
	event  [3]int64
}

// world is everything one run of a workload is made of, derived from
// the seed before any process starts.
type world struct {
	seed    int64
	stores  []*dataset // one per tycd: 1, or 3 for the cluster
	modules []string   // TL sources installed into every store at populate time
	// saved closures created over the wire during set-up: name → term.
	saved map[string]string
	// optimize lists module names whose run() each connection
	// reflectively optimizes during set-up.
	optimize []string
	// Keyed-save slots per connection, and the prefix of their names.
	slots      int
	slotPrefix string
}

// workload describes one named traffic mix.
type workload struct {
	name  string
	why   string
	kinds []string // op kind names, indexed by op.kind
	// relational marks the kinds whose execution is a relational
	// primitive: the traced run books their machine.Apply time to relalg,
	// everything else's to machine. queryMetric optionally names the
	// per-layer metric a kind's apply time is also reported under.
	relational  []bool
	queryMetric []string
	cluster     bool
	warmup      int // operations per connection before measuring
	// period is the length of one connection's kind schedule; replay is
	// the operation count of the in-process traced replay, a multiple of
	// two cycles (2 × connections × period) so that recorded and plain
	// blocks pair up.
	period int
	replay int
	build  func(seed int64, div int) *world
	// stream returns connection conn's generator; each call to the
	// generator yields the next op of that connection.
	stream func(w *world, conn int) func() op
}

// encodeTML parses TML concrete syntax and encodes it as PTML — the
// client half of a SUBMIT.
func encodeTML(src string) ([]byte, error) {
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", src, err)
	}
	return ptml.EncodeApp(app)
}

// mustPTML is encodeTML for the benchmark's own fixed templates, where
// a failure is a bug in this file.
func mustPTML(src string) []byte {
	data, err := encodeTML(src)
	if err != nil {
		panic(err)
	}
	return data
}

func intBind(name string, v int64) ship.WBind {
	return ship.WBind{Name: name, Val: ship.WVal{Kind: ship.WInt, Int: v}}
}

func relBind(name, rel string) ship.WBind {
	return ship.WBind{Name: name, Val: ship.WVal{Kind: ship.WRoot, Str: "rel:" + rel}}
}

func intArg(v int64) ship.WVal { return ship.WVal{Kind: ship.WInt, Int: v} }

// pred renders proc(x !ce !cc) comparing column col of x with rhs.
func pred(col int, cmp, rhs string) string {
	return fmt.Sprintf("proc(x !ce !cc) ([] x %d cont(a) (%s a %s cont() (cc true) cont() (cc false)))", col, cmp, rhs)
}

// keyPool draws n distinct keys below limit from the seed.
func keyPool(seed int64, lane uint64, n int, limit int64) []int64 {
	r := newRNG(seed, lane)
	seen := make(map[int64]bool, n)
	pool := make([]int64, 0, n)
	for len(pool) < n {
		k := r.intn(limit)
		if !seen[k] {
			seen[k] = true
			pool = append(pool, k)
		}
	}
	return pool
}

// saveValue is the value connection conn's seq-th keyed save stores:
// unique per write, so the audit can tell the last one from any other.
func saveValue(conn int, seq int64) int64 { return int64(conn+1)*1_000_000_000 + seq }

// slotName names one keyed-save root; the prefix keeps workloads apart
// in a store a developer reuses.
func slotName(prefix string, conn, slot int) string {
	return fmt.Sprintf("%s-c%d-s%d", prefix, conn, slot)
}

// saveOp builds the keyed saving submit both write workloads use. The
// idempotency key is a function of the stream position, so a retried
// request carries the key of the attempt it repeats.
func saveOp(kind int, prefix string, seed int64, conn, slot int, seq int64) op {
	val := saveValue(conn, seq)
	name := slotName(prefix, conn, slot)
	return op{
		kind:  kind,
		write: true,
		slot:  slot,
		want:  expect{kind: expInt, i: val},
		submit: &ship.Submit{
			Name:    name,
			PTML:    mustPTML(fmt.Sprintf("(+ %d 0 e cont(n) (k n))", val)),
			Save:    name,
			IdemKey: fmt.Sprintf("bench-%d-%s-%d", seed, name, seq),
		},
	}
}

// savedAnswer is what every set-up-saved closure returns.
const (
	savedTerm   = "(* 101 42 e cont(n) (k n))"
	savedAnswer = 4242
)

// --- point_rpc ---------------------------------------------------------------

const pointFnSrc = `module ptfn export inc
let inc(a : Int) : Int = a + 1
end`

var pointRPC = &workload{
	name:        "point_rpc",
	why:         "tiny cache-hit reads: client, wire codec, session loop, PTML hash and snapshot open/close are the whole cost; compile, relalg and fsync do nothing",
	kinds:       []string{"add", "lookup", "call_saved", "call_fn"},
	relational:  []bool{false, true, false, false},
	queryMetric: []string{"", "relalg.query_us.indexscan", "", ""},
	warmup:      400,
	period:      4,
	replay:      40_000,
	build: func(seed int64, div int) *world {
		return &world{seed: seed,
			stores:  []*dataset{{acct: genAcct(seed, scaled(acctRows, div))}},
			modules: []string{pointFnSrc},
			saved:   map[string]string{"pt-saved": savedTerm},
		}
	},
	stream: func(w *world, conn int) func() op {
		acct := w.stores[0].acct
		pool := keyPool(w.seed, 1, 64, int64(len(acct)))
		add := mustPTML("(+ a b e cont(n) (k n))")
		scan := mustPTML("(indexscan r 0 key e k)")
		r := newRNG(w.seed, uint64(100+conn))
		i := 0
		return func() op {
			kind := i % 4
			i++
			switch kind {
			case 0:
				return op{kind: 0, want: expect{kind: expInt, i: 42}, submit: &ship.Submit{
					Name: "pt-add", PTML: add, Binds: []ship.WBind{intBind("a", 40), intBind("b", 2)}}}
			case 1:
				// The first pass walks the pool in order, so the warm-up
				// compiles every key and the measured phase only hits.
				pick := int64(i / 4)
				if pick >= int64(len(pool)) {
					pick = r.intn(int64(len(pool)))
				}
				row := acct[pool[pick]]
				return op{kind: 1, want: relExpect([][2]int64{row}), submit: &ship.Submit{
					Name: "pt-lookup", PTML: scan, Binds: []ship.WBind{relBind("r", "acct"), intBind("key", row[0])}}}
			case 2:
				return op{kind: 2, want: expect{kind: expInt, i: savedAnswer}, call: &ship.Call{Fn: "pt-saved"}}
			default:
				x := r.intn(1_000_000)
				return op{kind: 3, want: expect{kind: expInt, i: x + 1},
					call: &ship.Call{Module: "ptfn", Fn: "inc", Args: []ship.WVal{intArg(x)}}}
			}
		}
	},
}

// --- program_exec ------------------------------------------------------------

// stanfordProgram is one Stanford program with the argument each regime
// is called with — sized so a call costs 2–5 ms either way (perm and
// queens grow by a factor per step of n, so they cannot be placed
// closer) and the latency distribution stays unimodal — and its
// hand-written result.
type stanfordProgram struct {
	name       string
	src        string
	rawN, optN int64
	result     func(n int64) int64
}

var stanfordPrograms = []stanfordProgram{
	{"perm", stanford.PermSrc, 5, 6, factorial},
	{"towers", stanford.TowersSrc, 10, 12, func(n int64) int64 { return 1<<uint(n) - 1 }},
	{"queens", stanford.QueensSrc, 6, 7, queensSolutions},
	{"sieve", stanford.SieveSrc, 500, 3000, primesUpTo},
}

func factorial(n int64) int64 {
	f := int64(1)
	for i := int64(2); i <= n; i++ {
		f *= i
	}
	return f
}

// queensSolutions is the known solution count of the n-queens problem.
func queensSolutions(n int64) int64 {
	return []int64{1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724}[n]
}

// primesUpTo counts primes ≤ n by trial division — deliberately not the
// sieve the program under test runs.
func primesUpTo(n int64) int64 {
	var count int64
	for c := int64(2); c <= n; c++ {
		prime := true
		for d := int64(2); d*d <= c; d++ {
			if c%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			count++
		}
	}
	return count
}

// optCopy renames a Stanford module so the reflectively optimized copy
// can live beside the module as installed.
func optCopy(p stanfordProgram) (name, src string) {
	name = p.name + "_o"
	return name, strings.Replace(p.src, "module "+p.name+" ", "module "+name+" ", 1)
}

var programExec = &workload{
	name:       "program_exec",
	why:        "Stanford programs called through tycd, half as installed and half reflectively optimized: the TAM machine is nearly all of the time (the paper's E2 effect over the wire)",
	kinds:      []string{"perm_raw", "towers_raw", "queens_raw", "sieve_raw", "perm_opt", "towers_opt", "queens_opt", "sieve_opt"},
	relational: make([]bool, 8),
	warmup:     16,
	period:     8,
	replay:     480,
	build: func(seed int64, div int) *world {
		w := &world{seed: seed, stores: []*dataset{{}}}
		for _, p := range stanfordPrograms {
			name, src := optCopy(p)
			w.modules = append(w.modules, p.src, src)
			w.optimize = append(w.optimize, name)
		}
		return w
	},
	stream: func(w *world, conn int) func() op {
		// Results are computed once: the oracle is closed-form, the
		// arguments are fixed per (program, regime).
		type variant struct {
			module string
			n      int64
			want   int64
		}
		var vs []variant
		for _, p := range stanfordPrograms {
			vs = append(vs, variant{p.name, p.rawN, p.result(p.rawN)})
		}
		for _, p := range stanfordPrograms {
			vs = append(vs, variant{p.name + "_o", p.optN, p.result(p.optN)})
		}
		// The seed picks where in the 8-cycle each connection starts;
		// the mix itself is fixed.
		i := int(newRNG(w.seed, uint64(200+conn)).intn(8))
		return func() op {
			// Alternate regimes so both connections rarely run the
			// same program at once.
			k := (i*5 + conn*3) % 8
			i++
			v := vs[k]
			return op{kind: k, want: expect{kind: expInt, i: v.want},
				call: &ship.Call{Module: v.module, Fn: "run", Args: []ship.WVal{intArg(v.n)}}}
		}
	},
}

// --- query_scan --------------------------------------------------------------

// Thresholds of the fixed query terms; the oracle applies the same ones.
const (
	qsSalBelow  = 5500 // select_count: sal < qsSalBelow
	qsDeptBelow = 5    // select_rows: dept < qsDeptBelow (~1 k of 20 k rows)
	qsChainDept = 3    // merge_select: dept == 3 ∧ sal < qsSalBelow
)

var queryScan = &workload{
	name:       "query_scan",
	why:        "alpha-identical cache-hit relational queries over read-only relations: relalg kernels, the columnar cache and result encoding do the work; compile and commit do none",
	kinds:      []string{"select_count", "select_rows", "project_rows", "join_hash", "join_merge", "exists_scan", "merge_select"},
	relational: []bool{true, true, true, true, true, true, true},
	queryMetric: []string{"relalg.query_us.select_count", "relalg.query_us.select_rows", "relalg.query_us.project_rows",
		"relalg.query_us.join_hash", "relalg.query_us.join_merge", "relalg.query_us.exists_scan", "relalg.query_us.merge_select"},
	warmup: 28,
	period: 7,
	replay: 840,
	build: func(seed int64, div int) *world {
		return &world{seed: seed, stores: []*dataset{{
			emp:  genEmp(seed, scaled(empRows, div), 0, 1),
			mid:  genMid(seed, scaled(midRows, div)),
			dept: genDept(),
			team: genMid(seed, teamRows),
		}}}
	},
	stream: func(w *world, conn int) func() op {
		ds := w.stores[0]
		type query struct {
			sub  ship.Submit
			want expect
		}
		emp, mid := relBind("emp", "emp"), relBind("mid", "mid")
		dept, dept2, team := relBind("dept", "dept"), relBind("dept2", "dept"), relBind("team", "team")
		joinOn := func(l, r int) string {
			return fmt.Sprintf("proc(x !ce !cc) ([] x %d cont(a) ([] x %d cont(b) (== a b cont() (cc true) cont() (cc false))))", l, r)
		}
		var salBelow, chain int64
		var deptRowsBelow [][3]int64
		for _, r := range ds.emp {
			if r[2] < qsSalBelow {
				salBelow++
				if r[1] == qsChainDept {
					chain++
				}
			}
			if r[1] < qsDeptBelow {
				deptRowsBelow = append(deptRowsBelow, r)
			}
		}
		project := expect{kind: expRel, rows: len(ds.mid)}
		for _, r := range ds.mid {
			project.i += r[2] + 1
		}
		// Every team.dept is a dept id, and dept ids are unique, so each
		// join matches every row of its left input exactly once. Both
		// inputs are small on purpose: the served (TAM-compiled) join
		// predicate runs the nested loop, |L|·|R| predicate calls.
		qs := []query{
			{ship.Submit{Name: "qs-select-count", Binds: []ship.WBind{emp},
				PTML: mustPTML("(select " + pred(2, "<", fmt.Sprint(qsSalBelow)) + " emp e cont(t) (count t e k))")},
				expect{kind: expInt, i: salBelow}},
			{ship.Submit{Name: "qs-select-rows", Binds: []ship.WBind{emp},
				PTML: mustPTML("(select " + pred(1, "<", fmt.Sprint(qsDeptBelow)) + " emp e k)")},
				relExpect(deptRowsBelow)},
			{ship.Submit{Name: "qs-project-rows", Binds: []ship.WBind{mid},
				PTML: mustPTML("(project proc(x !ce !cc) ([] x 2 cont(a) (+ a 1 ce cont(b) (vector b cont(row) (cc row)))) mid e k)")},
				project},
			{ship.Submit{Name: "qs-join-hash", Binds: []ship.WBind{team, dept},
				PTML: mustPTML("(join " + joinOn(1, 3) + " team dept e cont(t) (count t e k))")},
				expect{kind: expInt, i: int64(len(ds.team))}},
			{ship.Submit{Name: "qs-join-merge", Binds: []ship.WBind{dept, dept2},
				PTML: mustPTML("(join " + joinOn(0, 2) + " dept dept2 e cont(t) (count t e k))")},
				expect{kind: expInt, i: int64(len(ds.dept))}},
			{ship.Submit{Name: "qs-exists-scan", Binds: []ship.WBind{emp},
				PTML: mustPTML("(exists " + pred(2, ">", fmt.Sprint(salCeiling*10)) + " emp e k)")},
				expect{kind: expBool, b: false}},
			{ship.Submit{Name: "qs-merge-select", Binds: []ship.WBind{emp}, Optimize: true,
				PTML: mustPTML("(select " + pred(1, "==", fmt.Sprint(qsChainDept)) + " emp e cont(t) (select " +
					pred(2, "<", fmt.Sprint(qsSalBelow)) + " t e cont(u) (count u e k)))")},
				expect{kind: expInt, i: chain}},
		}
		i := int(newRNG(w.seed, uint64(300+conn)).intn(int64(len(qs))))
		return func() op {
			k := (i*3 + conn) % len(qs)
			i++
			sub := qs[k].sub
			return op{kind: k, want: qs[k].want, submit: &sub}
		}
	},
}

// --- adhoc_compile -----------------------------------------------------------

var adhocCompile = &workload{
	name:       "adhoc_compile",
	why:        "every request is a term the server has never seen (literal from a 100 k domain, optimize=true, one-row plan): PTML decode and hash, rebind, reduce/expand, codegen, encode and cache eviction are the cost",
	kinds:      []string{"eq_rows", "eq_count", "chain", "wrapped"},
	relational: []bool{true, true, true, true},
	warmup:     40,
	period:     4,
	replay:     6_000,
	build: func(seed int64, div int) *world {
		return &world{seed: seed, stores: []*dataset{{
			acct: genAcct(seed, scaled(acctRows, div)), dept: genDept()}}}
	},
	stream: func(w *world, conn int) func() op {
		acct, dept := w.stores[0].acct, w.stores[0].dept
		off := newRNG(w.seed, 400).intn(keyDomain)
		i := int64(0)
		return func() op {
			// A bijection of the position onto the key domain: no
			// literal repeats within 50 k operations per connection, and
			// the two connections draw from disjoint halves.
			lit := ((2*i+int64(conn))*7919 + off) % keyDomain
			kind := int(i % 4)
			i++
			sub := &ship.Submit{Optimize: true}
			var want expect
			switch kind {
			case 0:
				sub.Name, sub.Binds = "ah-eq-rows", []ship.WBind{relBind("r", "acct")}
				sub.PTML = mustPTML("(select " + pred(0, "==", fmt.Sprint(lit)) + " r e k)")
				if lit < int64(len(acct)) {
					want = relExpect(acct[lit : lit+1])
				} else {
					want = expect{kind: expRel}
				}
			case 1:
				sub.Name, sub.Binds = "ah-eq-count", []ship.WBind{relBind("r", "acct")}
				sub.PTML = mustPTML("(select " + pred(0, "==", fmt.Sprint(lit)) + " r e cont(t) (count t e k))")
				want = expect{kind: expInt}
				if lit < int64(len(acct)) {
					want.i = 1
				}
			case 2:
				sub.Name, sub.Binds = "ah-chain", []ship.WBind{relBind("r", "dept")}
				sub.PTML = mustPTML("(select " + pred(1, ">=", "0") + " r e cont(t) (select " +
					pred(0, "==", fmt.Sprint(lit)) + " t e k))")
				if lit < int64(len(dept)) {
					want = relExpect(dept[lit : lit+1])
				} else {
					want = expect{kind: expRel}
				}
			default:
				sub.Name, sub.Binds = "ah-wrapped", []ship.WBind{relBind("r", "dept")}
				sub.PTML = mustPTML("(cont(lim) (select " + pred(1, "<", "lim") + " r e cont(t) (count t e k)) " + fmt.Sprint(lit) + ")")
				want = expect{kind: expInt}
				for _, d := range dept {
					if d[1] < lit {
						want.i++
					}
				}
			}
			return op{kind: kind, want: want, submit: sub}
		}
	},
}

// --- oltp_mixed --------------------------------------------------------------

// appendKind is the kind column of every appended event: outside the
// 0–9 the count queries ask for, so their answer does not depend on how
// far the other connection has got.
const appendKind = 99

// eventID is the id of connection conn's seq-th appended event.
func eventID(conn int, seq int64) int64 { return int64(conn+1)*10_000_000 + seq }

var oltpMixed = &workload{
	name:        "oltp_mixed",
	why:         "reads beside durable writes on the same data, fsync on: point reads and a scan-count next to keyed overwrites (dedup, group commit) and single-row appends (index upkeep, relation re-logging)",
	kinds:       []string{"lookup", "events_count", "save", "append"},
	relational:  []bool{true, true, false, true},
	queryMetric: []string{"relalg.query_us.indexscan", "", "", ""},
	warmup:      60,
	period:      20,
	replay:      4_000,
	build: func(seed int64, div int) *world {
		return &world{seed: seed, slots: 4, slotPrefix: "ol", stores: []*dataset{{
			acct: genAcct(seed, scaled(acctRows, div)), events: genEvents(seed, scaled(eventRows, div))}}}
	},
	stream: func(w *world, conn int) func() op {
		ds := w.stores[0]
		pool := keyPool(w.seed, 2, 64, int64(len(ds.acct)))
		scan := mustPTML("(indexscan r 0 key e k)")
		count := mustPTML("(select " + pred(1, "==", "kind") + " r e cont(t) (count t e k))")
		var perKind [10]int64
		for _, ev := range ds.events {
			perKind[ev[1]]++
		}
		// 20-op schedule: 12 lookups, 2 counts, 5 saves, 1 append,
		// spread so writes never come back to back.
		schedule := [20]int{0, 0, 2, 0, 1, 0, 2, 0, 0, 2, 0, 3, 0, 2, 0, 1, 0, 2, 0, 0}
		r := newRNG(w.seed, uint64(500+conn))
		var i, saves, appends int64
		return func() op {
			kind := schedule[i%20]
			i++
			switch kind {
			case 0:
				row := ds.acct[pool[r.intn(int64(len(pool)))]]
				return op{kind: 0, want: relExpect([][2]int64{row}), submit: &ship.Submit{
					Name: "ol-lookup", PTML: scan, Binds: []ship.WBind{relBind("r", "acct"), intBind("key", row[0])}}}
			case 1:
				k := r.intn(10)
				return op{kind: 1, want: expect{kind: expInt, i: perKind[k]}, submit: &ship.Submit{
					Name: "ol-count", PTML: count, Binds: []ship.WBind{relBind("r", "events"), intBind("kind", k)}}}
			case 2:
				saves++
				return saveOp(2, w.slotPrefix, w.seed, conn, int(r.intn(int64(w.slots))), saves)
			default:
				appends++
				ev := [3]int64{eventID(conn, appends), appendKind, r.intn(500)}
				return op{kind: 3, write: true, slot: -1, event: ev, want: expect{kind: expInt, i: ev[0]},
					submit: &ship.Submit{
						Name:    "ol-append",
						Binds:   []ship.WBind{relBind("r", "events")},
						IdemKey: fmt.Sprintf("bench-%d-ev-%d", w.seed, ev[0]),
						PTML: mustPTML(fmt.Sprintf("(vector %d %d %d cont(row) (rinsert r row e cont(u) (k %d)))",
							ev[0], ev[1], ev[2], ev[0])),
					}}
			}
		}
	},
}

// --- cluster_scatter ---------------------------------------------------------

const clusterShards = 3

var clusterScatter = &workload{
	name:       "cluster_scatter",
	why:        "three tycd shards behind tycc: scatter count and scatter select, routed call and routed keyed save; pooling, fan-out, merge and key propagation in the coordinator are the cost",
	kinds:      []string{"scatter_count", "scatter_select", "routed_call", "routed_save"},
	relational: []bool{true, true, false, false},
	cluster:    true,
	warmup:     60,
	period:     20,
	replay:     0,
	build: func(seed int64, div int) *world {
		w := &world{seed: seed, slots: 4, slotPrefix: "cl", saved: map[string]string{"cl-saved": savedTerm}}
		for s := 0; s < clusterShards; s++ {
			w.stores = append(w.stores, &dataset{
				emp: genEmp(seed, scaled(shardRows, div), int64(s), clusterShards)})
		}
		return w
	},
	stream: func(w *world, conn int) func() op {
		var total int64
		perDept := make([][][3]int64, deptRows)
		for _, ds := range w.stores {
			total += int64(len(ds.emp))
			for _, r := range ds.emp {
				perDept[r[1]] = append(perDept[r[1]], r)
			}
		}
		count := mustPTML("(count r e k)")
		sel := mustPTML("(select " + pred(1, "==", "d") + " r e k)")
		depts := keyPool(w.seed, 3, 16, deptRows)
		// 20-op schedule: 8 scatter counts, 6 scatter selects, 3 routed
		// calls, 3 routed saves.
		schedule := [20]int{0, 1, 0, 2, 1, 0, 3, 0, 1, 0, 2, 1, 0, 3, 0, 1, 2, 0, 1, 3}
		r := newRNG(w.seed, uint64(600+conn))
		var i, saves int64
		return func() op {
			kind := schedule[i%20]
			i++
			switch kind {
			case 0:
				return op{kind: 0, want: expect{kind: expInt, i: total}, submit: &ship.Submit{
					Name: "cl-count", PTML: count, Merge: ship.MergeSum, Binds: []ship.WBind{relBind("r", "emp")}}}
			case 1:
				d := depts[r.intn(int64(len(depts)))]
				return op{kind: 1, want: relExpect(perDept[d]), submit: &ship.Submit{
					Name: "cl-select", PTML: sel, Binds: []ship.WBind{relBind("r", "emp"), intBind("d", d)}}}
			case 2:
				return op{kind: 2, want: expect{kind: expInt, i: savedAnswer}, call: &ship.Call{Fn: "cl-saved"}}
			default:
				saves++
				return saveOp(3, w.slotPrefix, w.seed, conn, int(r.intn(int64(w.slots))), saves)
			}
		}
	},
}

// queryKindMetrics are the per-kind apply-time metrics of the traced
// run, in reporting order; a workload without the kind reports 0.
var queryKindMetrics = []string{
	"relalg.query_us.select_count", "relalg.query_us.select_rows", "relalg.query_us.project_rows",
	"relalg.query_us.join_hash", "relalg.query_us.join_merge", "relalg.query_us.exists_scan",
	"relalg.query_us.merge_select", "relalg.query_us.indexscan",
}

// workloads lists the suite in reporting order.
var workloads = []*workload{pointRPC, programExec, queryScan, adhocCompile, oltpMixed, clusterScatter}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
