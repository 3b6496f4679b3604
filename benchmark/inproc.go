package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"tycoon"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/ptml"
	"tycoon/internal/qopt"
	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// The in-process staged executor. It answers one request the way a tycd
// session does — the same exported functions, in the handlers' order —
// but in this process and on one goroutine, so every layer boundary can
// be timed from outside without touching the program: frame out → frame
// in → decode → α-hash → pipeline (cache or passes) → begin → apply →
// commit → result out → result in. What is absent is exactly what only
// in-program spans could see (socket, session loop, gates, dedup,
// scheduling); the traced run reports that remainder as
// server.unattributed_us.

// stage identifies one span kind.
type stage uint8

const (
	stRequest stage = iota // root: the whole request
	stEncodeReq
	stDecodeReq
	stHash
	stPipeline
	stPassSource // child of stPipeline, as are the other passes
	stPtmlDecode // child of stPassSource
	stPassReduce
	stPassExpand
	stPassCodegen
	stPassEncodeTAM
	stPassEncodePTML
	stBegin
	stApply
	stCommit
	stEncodeRes
	stDecodeRes
	numStages
)

var stageNames = [numStages]string{
	"request", "ship.encode_request", "ship.decode_request", "ptml.hash", "pipeline.run",
	"pipeline.pass.source", "ptml.decode", "pipeline.pass.reduce", "pipeline.pass.expand",
	"pipeline.pass.codegen", "pipeline.pass.encode-tam", "pipeline.pass.encode-ptml",
	"store.begin", "exec.apply", "store.commit", "ship.encode_result", "ship.decode_result",
}

// stageParent is the span that causes each stage.
var stageParent = [numStages]stage{
	stRequest, stRequest, stRequest, stRequest, stRequest,
	stPipeline, stPassSource, stPipeline, stPipeline,
	stPipeline, stPipeline, stPipeline,
	stRequest, stRequest, stRequest, stRequest, stRequest,
}

// span is one timed interval of one request. Start and End are
// nanoseconds since the replay began.
type span struct {
	Req        int32
	Stage      stage
	Start, End int64
}

// inproc is an opened store with the server-side objects a session
// shares: one compilation pipeline, one relational manager.
type inproc struct {
	sys  *tycoon.System
	pipe *pipeline.Pipeline
	m    *machine.Machine

	// Recording state of the request in flight.
	record bool
	epoch  time.Time
	req    int32
	spans  []span

	// Per-request facts the caller reads after exec.
	last struct {
		hit, submit, mutated bool
		reqBytes, resBytes   int
		ptmlBytes            int
		passes               []pipeline.PassStat
	}
	buf bytes.Buffer
}

// openInproc opens the store at path through the facade and attaches a
// server-style pipeline to it.
func openInproc(path string) (*inproc, error) {
	sys, err := tycoon.Open(path)
	if err != nil {
		return nil, err
	}
	return newInproc(sys), nil
}

// newInproc wraps an already open system.
func newInproc(sys *tycoon.System) *inproc {
	return &inproc{sys: sys, pipe: pipeline.New(sys.Store, pipeline.Config{}), m: sys.Machine, epoch: time.Now()}
}

func (ip *inproc) close() error { return ip.sys.Close() }

// mark records one span ending now.
func (ip *inproc) mark(st stage, start time.Time) time.Time {
	now := time.Now()
	if ip.record {
		ip.spans = append(ip.spans, span{Req: ip.req, Stage: st,
			Start: start.Sub(ip.epoch).Nanoseconds(), End: now.Sub(ip.epoch).Nanoseconds()})
	}
	return now
}

// exec answers one op through every stage and returns the decoded
// result exactly as a client would see it.
func (ip *inproc) exec(o *op) (*ship.Result, error) {
	ip.req++
	ip.last.hit, ip.last.submit, ip.last.mutated, ip.last.passes = false, o.submit != nil, false, nil
	ip.last.ptmlBytes = 0
	begin := time.Now()

	// Request out: encode and frame.
	var body []byte
	var err error
	verb := ship.VCall
	if o.submit != nil {
		verb = ship.VSubmit
		body, err = o.submit.Encode()
	} else {
		body, err = o.call.Encode()
	}
	if err != nil {
		return nil, err
	}
	ip.buf.Reset()
	if err := ship.WriteFrame(&ip.buf, verb, body); err != nil {
		return nil, err
	}
	ip.last.reqBytes = ip.buf.Len()
	t := ip.mark(stEncodeReq, begin)

	// Request in: unframe and decode.
	_, rbody, err := ship.ReadFrame(&ip.buf, 0)
	if err != nil {
		return nil, err
	}
	var val machine.Value
	var info ship.ExecInfo
	if o.submit != nil {
		req, err := ship.DecodeSubmit(rbody)
		if err != nil {
			return nil, err
		}
		t = ip.mark(stDecodeReq, t)
		val, info, err = ip.submit(req, t)
		if err != nil {
			return nil, err
		}
	} else {
		req, err := ship.DecodeCall(rbody)
		if err != nil {
			return nil, err
		}
		t = ip.mark(stDecodeReq, t)
		val, info, err = ip.call(req, t)
		if err != nil {
			return nil, err
		}
	}

	// Result out, result in.
	t = time.Now()
	wv, err := toWire(val)
	if err != nil {
		return nil, err
	}
	resBody, err := (&ship.Result{Val: wv, Info: info}).Encode()
	if err != nil {
		return nil, err
	}
	ip.buf.Reset()
	if err := ship.WriteFrame(&ip.buf, ship.VResult, resBody); err != nil {
		return nil, err
	}
	ip.last.resBytes = ip.buf.Len()
	t = ip.mark(stEncodeRes, t)
	_, back, err := ship.ReadFrame(&ip.buf, 0)
	if err != nil {
		return nil, err
	}
	res, err := ship.DecodeResult(back)
	if err != nil {
		return nil, err
	}
	ip.mark(stDecodeRes, t)
	ip.mark(stRequest, begin)
	return res, nil
}

// submit mirrors the server's SUBMIT handler from the α-hash on.
func (ip *inproc) submit(req *ship.Submit, t time.Time) (machine.Value, ship.ExecInfo, error) {
	var info ship.ExecInfo
	ip.last.ptmlBytes = len(req.PTML)
	srcHash, err := ptml.CanonicalHash(req.PTML)
	if err != nil {
		return nil, info, err
	}
	t = ip.mark(stHash, t)

	st := ip.sys.Store
	binds := make(map[string]store.Val, len(req.Binds))
	fp := make([]store.Binding, 0, len(req.Binds))
	for _, b := range req.Binds {
		var sv store.Val
		switch b.Val.Kind {
		case ship.WInt:
			sv = store.IntVal(b.Val.Int)
		case ship.WRoot:
			oid, ok := st.Root(b.Val.Str)
			if !ok {
				return nil, info, fmt.Errorf("no root named %q", b.Val.Str)
			}
			sv = store.RefVal(oid)
		default:
			return nil, info, fmt.Errorf("binding %s: kind %d is not one the benchmark sends", b.Name, b.Val.Kind)
		}
		binds[b.Name] = sv
		fp = append(fp, store.Binding{Name: b.Name, Val: sv})
	}
	sort.Slice(fp, func(i, j int) bool { return fp[i].Name < fp[j].Name })
	name := req.Name
	if name == "" {
		name = "submit:" + srcHash.Short()
	}
	var packs []pipeline.RulePack
	if req.Optimize {
		packs = append(packs, qopt.RuntimePack(st))
	}
	var decodeStart, decodeEnd time.Time
	res, err := ip.pipe.Run(pipeline.Job{
		Name: name,
		Source: func(gen *tml.VarGen) (*tml.Abs, error) {
			decodeStart = time.Now()
			app, free, err := ptml.DecodeApp(req.PTML, gen)
			decodeEnd = time.Now()
			if err != nil {
				return nil, err
			}
			return rebind(app, free, binds, gen)
		},
		Packs: packs, SkipOptimize: !req.Optimize,
		Codegen: true, RequireClosed: true, EncodeTAM: true, EncodePTML: true,
		Key: pipeline.Key{
			Source:   srcHash,
			Bindings: pipeline.BindingFingerprint(fp),
			Options:  pipeline.FingerprintOptions("tycd-submit", req.Optimize),
		},
	})
	if err != nil {
		return nil, info, err
	}
	ip.last.hit = res.CacheHit
	ip.last.passes = res.Stats.Passes
	if ip.record && !res.CacheHit {
		// The passes ran back to back inside Run; lay their measured
		// durations out from the source pass's real start.
		at := decodeStart
		for _, p := range res.Stats.Passes {
			ps := passStage(p.Name)
			end := at.Add(p.Duration)
			if ps == stPassSource {
				// The source pass began just before its decode did.
				ip.spans = append(ip.spans, span{Req: ip.req, Stage: stPtmlDecode,
					Start: decodeStart.Sub(ip.epoch).Nanoseconds(), End: decodeEnd.Sub(ip.epoch).Nanoseconds()})
			}
			ip.spans = append(ip.spans, span{Req: ip.req, Stage: ps,
				Start: at.Sub(ip.epoch).Nanoseconds(), End: end.Sub(ip.epoch).Nanoseconds()})
			at = end
		}
	}
	t = ip.mark(stPipeline, t)

	ip.m.ResetProfile()
	txn := st.Begin()
	ip.m.Store = txn
	defer func() {
		ip.m.Store = st
		txn.Abort()
	}()
	t = ip.mark(stBegin, t)
	v, err := ip.m.Apply(res.Closure, nil)
	if err != nil {
		return nil, info, err
	}
	t = ip.mark(stApply, t)
	if req.Save != "" {
		codeOID := txn.Alloc(&store.Blob{Bytes: res.Code})
		ptmlOID := txn.Alloc(&store.Blob{Bytes: res.PTML})
		txn.SetRoot(ship.SavedRoot+req.Save, txn.Alloc(&store.Closure{Name: name, Code: codeOID, PTML: ptmlOID}))
	}
	ip.last.mutated = txn.Mutated()
	if err := txn.Commit(); err != nil {
		return nil, info, err
	}
	ip.mark(stCommit, t)
	info = ship.ExecInfo{Steps: ip.m.Steps(), CacheHit: res.CacheHit, Rewrites: int64(res.Stats.Rewrites())}
	return v, info, nil
}

// call mirrors the server's CALL handler.
func (ip *inproc) call(req *ship.Call, t time.Time) (machine.Value, ship.ExecInfo, error) {
	var info ship.ExecInfo
	args := make([]machine.Value, len(req.Args))
	for i, a := range req.Args {
		if a.Kind != ship.WInt {
			return nil, info, fmt.Errorf("call argument kind %d is not one the benchmark sends", a.Kind)
		}
		args[i] = machine.IntValue(a.Int)
	}
	st := ip.sys.Store
	ip.m.ResetProfile()
	txn := st.Begin()
	ip.m.Store = txn
	defer func() {
		ip.m.Store = st
		txn.Abort()
	}()
	t = ip.mark(stBegin, t)
	var v machine.Value
	var err error
	if req.Module != "" {
		mod, ok := ip.sys.Module(req.Module)
		if !ok {
			return nil, info, fmt.Errorf("module %s not installed", req.Module)
		}
		v, err = ip.m.CallExport(mod, req.Fn, args)
	} else {
		oid, ok := txn.Root(ship.SavedRoot + req.Fn)
		if !ok {
			return nil, info, fmt.Errorf("no saved closure %s", req.Fn)
		}
		v, err = ip.m.Apply(machine.Ref{OID: oid}, args)
	}
	if err != nil {
		return nil, info, err
	}
	t = ip.mark(stApply, t)
	ip.last.mutated = txn.Mutated()
	if err := txn.Commit(); err != nil {
		return nil, info, err
	}
	ip.mark(stCommit, t)
	info.Steps = ip.m.Steps()
	return v, info, nil
}

// passStage maps a pipeline pass name ("reduce#2") to its span kind.
func passStage(name string) stage {
	for i := 0; i < len(name); i++ {
		if name[i] == '#' {
			name = name[:i]
			break
		}
	}
	switch name {
	case "source":
		return stPassSource
	case "reduce":
		return stPassReduce
	case "expand":
		return stPassExpand
	case "codegen":
		return stPassCodegen
	case "encode-tam":
		return stPassEncodeTAM
	default:
		return stPassEncodePTML
	}
}

// rebind closes a decoded application the way the server does: bound
// free variables become literals or OIDs, e and k the parameters of the
// wrapping procedure.
func rebind(app *tml.App, free []*tml.Var, binds map[string]store.Val, gen *tml.VarGen) (*tml.Abs, error) {
	var eVar, kVar *tml.Var
	subst := make(map[*tml.Var]tml.Value)
	for _, v := range free {
		switch v.Name {
		case "e":
			eVar = v
			continue
		case "k":
			kVar = v
			continue
		}
		sv, ok := binds[v.Name]
		if !ok {
			return nil, fmt.Errorf("no binding for free variable %s", v.Name)
		}
		if sv.Kind == store.ValRef {
			subst[v] = tml.NewOid(uint64(sv.Ref))
		} else {
			subst[v] = tml.Int(sv.Int)
		}
	}
	if len(subst) > 0 {
		app = tml.SubstMany(app, subst).(*tml.App)
	}
	if eVar == nil {
		eVar = gen.FreshCont("e")
	} else {
		eVar.Cont = true
	}
	if kVar == nil {
		kVar = gen.FreshCont("k")
	} else {
		kVar.Cont = true
	}
	return &tml.Abs{Params: []*tml.Var{eVar, kVar}, Body: app}, nil
}

// toWire lowers a result value the way the server does, for the value
// shapes the benchmark's operations return.
func toWire(v machine.Value) (ship.WVal, error) {
	switch v := v.(type) {
	case machine.Unit:
		return ship.WVal{Kind: ship.WNil}, nil
	case machine.Int:
		return ship.WVal{Kind: ship.WInt, Int: int64(v)}, nil
	case machine.Bool:
		return ship.WVal{Kind: ship.WBool, Bool: bool(v)}, nil
	case *relalg.Rel:
		t := &ship.WTable{}
		for _, c := range v.Schema {
			t.Cols = append(t.Cols, c.Name)
		}
		for _, row := range v.Rows {
			out := make([]ship.WVal, len(row))
			for i, f := range row {
				if f.Kind != store.ValInt {
					return ship.WVal{}, fmt.Errorf("result cell kind %d is not one the benchmark reads", f.Kind)
				}
				out[i] = ship.WVal{Kind: ship.WInt, Int: f.Int}
			}
			t.Rows = append(t.Rows, out)
		}
		return ship.WVal{Kind: ship.WRel, Rel: t}, nil
	default:
		return ship.WVal{}, fmt.Errorf("result %s is not a value the benchmark reads", v.Show())
	}
}
