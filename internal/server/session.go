package server

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/ptml"
	"tycoon/internal/qopt"
	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// session is one client connection's view of the server: the verb
// handlers over the shared store, derived caches, code image and
// pipeline. It owns no execution state; each request that runs code
// borrows a machine for its duration (core.Run). The connection itself
// belongs to the serving core (ship.Session).
type session struct {
	srv *Server
	c   *ship.Session
}

func newSession(s *Server, c *ship.Session) *session {
	return &session{srv: s, c: c}
}

// verbs is the session's verb table: what tycd speaks beyond the core's
// PING/STATS/HEALTH/BYE.
func (s *session) verbs() map[ship.Verb]ship.Handler {
	return map[ship.Verb]ship.Handler{
		ship.VInstall:  s.gated(result(s.handleInstall)),
		ship.VCall:     s.gated(result(s.handleCall)),
		ship.VSubmit:   s.gated(result(s.handleSubmit)),
		ship.VOptimize: s.gated(result(s.handleOptimize)),
		ship.VSync:     s.gated(s.handleSync),
		// The anti-entropy probe stays outside the overload gate, like
		// STATS: the repair loop must be able to compare digests against a
		// busy shard without queueing behind the work it is repairing.
		ship.VDigest: s.handleDigest,
		ship.VWatch:  s.handleWatch,
	}
}

// gated passes a work verb through the overload gate before it runs.
func (s *session) gated(h ship.Handler) ship.Handler {
	return func(body []byte) (ship.Verb, []byte, *ship.WireError) {
		if werr := s.srv.gate.Enter(); werr != nil {
			return 0, nil, werr
		}
		defer s.srv.gate.Leave()
		return h(body)
	}
}

// result adapts a Result-valued handler to the verb table.
func result(h func([]byte) (*ship.Result, *ship.WireError)) ship.Handler {
	return func(body []byte) (ship.Verb, []byte, *ship.WireError) {
		start := time.Now()
		res, werr := h(body)
		if werr != nil {
			return 0, nil, werr
		}
		return ship.Reply(res, start)
	}
}

func (s *session) handleDigest(body []byte) (ship.Verb, []byte, *ship.WireError) {
	req, err := ship.DecodeDigest(body)
	if err != nil {
		return 0, nil, ship.WireErr(ship.CodeProto, err)
	}
	return ship.VDigestOK, s.srv.Digests(req.Prefix).Encode(), nil
}

// handleInstall compiles and installs a TL module in one transaction:
// the module is published whole at its commit, and an install that
// fails anywhere leaves nothing in the store. The module's constants run
// on a machine the core lends over that transaction, under the request's
// step and wall budgets. A keyed request runs through the idempotency
// table: a client retrying a lost response gets the recorded result
// instead of reinstalling.
func (s *session) handleInstall(body []byte) (*ship.Result, *ship.WireError) {
	req, err := ship.DecodeInstall(body)
	if err != nil {
		return nil, ship.WireErr(ship.CodeProto, err)
	}
	install := func() (*ship.Result, *ship.WireError, bool) {
		var werr *ship.WireError
		unit, _, err := s.srv.core.Install(req.Source, func(txn *store.Txn) error {
			if werr = s.commitTxn(txn, "install"); werr != nil {
				return werr
			}
			return nil
		})
		switch {
		case werr != nil:
			return nil, werr, false
		case err != nil && execErr(err).Code == ship.CodeBudget:
			return nil, execErr(err), false
		case err != nil:
			return nil, ship.WireErr(ship.CodeCompile, err), false
		}
		s.srv.Logf("session %d: installed module %s", s.c.ID(), unit.Name)
		// An install is always a durable write: record it.
		return &ship.Result{Val: ship.WVal{Kind: ship.WStr, Str: unit.Name}}, nil, true
	}
	if req.IdemKey == "" {
		res, werr, _ := install()
		return res, werr
	}
	// The record key pairs the client's key with the content hash, so a
	// key reused for different source is a distinct request, never a
	// false dedup hit.
	return s.srv.dedup.Do(req.IdemKey+"\x1f"+ptml.HashRaw([]byte(req.Source)).String(), install)
}

// handleCall applies an exported function — or, with an empty module, a
// closure previously saved by submit.
func (s *session) handleCall(body []byte) (*ship.Result, *ship.WireError) {
	req, err := ship.DecodeCall(body)
	if err != nil {
		return nil, ship.WireErr(ship.CodeProto, err)
	}
	args := make([]machine.Value, len(req.Args))
	for i, a := range req.Args {
		v, err := s.wireToMachine(a)
		if err != nil {
			return nil, ship.WireErr(ship.CodeBadRequest, err)
		}
		args[i] = v
	}
	// The call executes against its own transaction: reads come from a
	// snapshot pinned at begin, writes stay private until the commit below
	// (after which the deferred Abort is a no-op).
	txn := s.srv.core.Store.Begin()
	defer txn.Abort()
	fn := req.Fn
	if req.Module == "" {
		fn = ship.SavedRoot + req.Fn
	}
	v, steps, err := s.srv.core.Call(txn, req.Module, fn, args)
	if err != nil {
		var nf *linker.NotFoundError
		switch {
		case !errors.As(err, &nf):
			return nil, execErr(err)
		case req.Module == "":
			return nil, &ship.WireError{Code: ship.CodeNotFound, Msg: "no saved closure " + req.Fn}
		default:
			return nil, ship.WireErr(ship.CodeNotFound, err)
		}
	}
	if werr := s.commitTxn(txn, "call"); werr != nil {
		return nil, werr
	}
	return &ship.Result{Val: s.machineToWire(v), Info: ship.ExecInfo{Steps: steps}}, nil
}

// commitTxn commits the request's transaction and maps the outcome onto
// the wire: a first-committer-wins abort becomes the retryable
// CodeConflict (nothing was applied; the client re-executes against a
// fresh snapshot), an I/O failure becomes CodeDegraded and latches the
// advisory degraded flag, and a successful durable commit clears it.
func (s *session) commitTxn(txn *store.Txn, what string) *ship.WireError {
	mutated := txn.Mutated()
	err := txn.Commit()
	switch {
	case err == nil:
		if mutated {
			s.srv.noteCommit(nil)
		}
		return nil
	case errors.Is(err, store.ErrConflict):
		return &ship.WireError{Code: ship.CodeConflict, Msg: what + " aborted: " + err.Error()}
	default:
		s.srv.noteCommit(err)
		return &ship.WireError{Code: ship.CodeDegraded, Msg: what + " not durable: " + err.Error()}
	}
}

// handleSync replays a batch of deferred keyed writes (replica repair).
// Items apply strictly in the coordinator's original order through the
// ordinary INSTALL/SUBMIT handlers — which is what routes each item
// through the idempotency table under its original key, making a
// re-shipped prefix (crash mid-drain, coordinator retry) a no-op. The
// first failing item aborts the batch so order is never violated; the
// coordinator retries the whole batch and the already-applied prefix
// dedups away.
func (s *session) handleSync(body []byte) (ship.Verb, []byte, *ship.WireError) {
	req, err := ship.DecodeSync(body)
	if err != nil {
		return 0, nil, ship.WireErr(ship.CodeProto, err)
	}
	for i, it := range req.Items {
		var werr *ship.WireError
		switch it.Verb {
		case ship.VSubmit:
			_, werr = s.handleSubmit(it.Body)
		case ship.VInstall:
			_, werr = s.handleInstall(it.Body)
		default:
			werr = &ship.WireError{Code: ship.CodeBadRequest,
				Msg: "sync item verb " + it.Verb.String() + " is not a replayable write"}
		}
		if werr != nil {
			werr.Msg = fmt.Sprintf("sync item %d of %d: %s", i+1, len(req.Items), werr.Msg)
			return 0, nil, werr
		}
	}
	return ship.VSyncOK, (&ship.SyncOK{Applied: uint32(len(req.Items))}).Encode(), nil
}

// handleSubmit is the headline verb: decode the shipped PTML
// application, re-establish the R-value bindings of its free variables
// (paper §4.1's rebinding, across the wire), close it over the server's
// exception and result continuations, compile it through the shared
// pipeline — content-addressed by the α-invariant tree hash, the
// binding fingerprint and the option set, so every session submitting
// the same query compiles it once — and run it.
func (s *session) handleSubmit(body []byte) (*ship.Result, *ship.WireError) {
	req, err := ship.DecodeSubmit(body)
	if err != nil {
		return nil, ship.WireErr(ship.CodeProto, err)
	}
	srcHash, err := ptml.CanonicalHash(req.PTML)
	if err != nil {
		return nil, ship.WireErr(ship.CodeBadRequest, fmt.Errorf("undecodable PTML: %w", err))
	}
	if req.IdemKey == "" {
		res, werr, _ := s.runSubmit(req, srcHash)
		return res, werr
	}
	// Keyed: exactly-once through the idempotency table. The key pairs
	// the client's request key with the α-invariant tree hash, so the
	// same key on different PTML is a distinct request, and a retried
	// save= install applies once even if the first response was lost.
	// Only executions with durable effects — a save, or a term that
	// mutated the store through a writer primitive — are recorded; a
	// keyed read leaves no record, so a retry re-executes it instead of
	// the table pinning its (possibly large) result relation in memory.
	return s.srv.dedup.Do(req.IdemKey+"\x1f"+srcHash.String(), func() (*ship.Result, *ship.WireError, bool) {
		return s.runSubmit(req, srcHash)
	})
}

// runSubmit is handleSubmit's execution core, shared by the keyed and
// keyless paths. The third result reports whether the request had
// durable effects (a save, or a term that wrote through a writer
// primitive) — the signal the idempotency table records on.
func (s *session) runSubmit(req *ship.Submit, srcHash ptml.Hash) (*ship.Result, *ship.WireError, bool) {
	// Resolve the binding table to store values up front: they feed both
	// the cache key fingerprint and the substitution.
	binds := make(map[string]store.Val, len(req.Binds))
	fpBinds := make([]store.Binding, 0, len(req.Binds))
	for _, b := range req.Binds {
		sv, err := s.wireToStoreVal(b.Val)
		if err != nil {
			return nil, ship.WireErr(ship.CodeBadRequest, fmt.Errorf("binding %s: %w", b.Name, err)), false
		}
		if _, dup := binds[b.Name]; dup {
			return nil, &ship.WireError{Code: ship.CodeBadRequest, Msg: "duplicate binding " + b.Name}, false
		}
		binds[b.Name] = sv
		fpBinds = append(fpBinds, store.Binding{Name: b.Name, Val: sv})
	}
	// Fingerprint in name order so the key is independent of the order
	// the client listed the bindings in.
	sort.Slice(fpBinds, func(i, j int) bool { return fpBinds[i].Name < fpBinds[j].Name })

	name := req.Name
	if name == "" {
		name = "submit:" + srcHash.Short()
	}
	var packs []pipeline.RulePack
	if req.Optimize {
		packs = append(packs, qopt.RuntimePack(s.srv.core.Store))
	}
	job := pipeline.Job{
		Name: name,
		Source: func(gen *tml.VarGen) (*tml.Abs, error) {
			return s.rebind(req.PTML, binds, gen)
		},
		Packs:         packs,
		SkipOptimize:  !req.Optimize,
		Codegen:       true,
		RequireClosed: true,
		EncodeTAM:     true,
		EncodePTML:    true,
		Key: pipeline.Key{
			Source:   srcHash,
			Bindings: pipeline.BindingFingerprint(fpBinds),
			Options:  pipeline.FingerprintOptions("tycd-submit", req.Optimize),
		},
	}
	res, err := s.srv.core.Pipe.Run(job)
	switch {
	case errors.Is(err, tml.ErrIllFormed):
		// The shipped term violates a §2.2 constraint: the client's fault.
		return nil, ship.WireErr(ship.CodeBadRequest, err), false
	case err != nil:
		return nil, ship.WireErr(ship.CodeCompile, err), false
	}

	// The transaction opens after the pipeline ran, so no snapshot stays
	// pinned while a term compiles; the pipeline itself writes nothing to
	// the store. The execution reads the transaction's snapshot; its
	// writes, and the objects a save= stages, stay buffered until the
	// commit (after which the deferred Abort is a no-op).
	txn := s.srv.core.Store.Begin()
	defer txn.Abort()
	var v machine.Value
	var steps int64
	var explain string
	err = s.srv.core.Run(txn, func(m *machine.Machine) (err error) {
		if req.Explain {
			s.srv.core.Rel.CaptureExplain(m)
			// Release the capture even if execution panics; after the
			// take below this is a no-op.
			defer s.srv.core.Rel.TakeExplain(m)
		}
		v, err = m.Apply(res.Closure, nil)
		steps = m.Steps()
		if req.Explain {
			// Collect even on failure so the capture sink never leaks.
			explain = qopt.RenderPlan(s.srv.core.Rel.TakeExplain(m))
		}
		return err
	})
	if err != nil {
		return nil, execErr(err), false
	}

	if req.Save != "" {
		if werr := s.save(txn, req.Save, name, res); werr != nil {
			return nil, werr, false
		}
	}
	wrote := req.Save != "" || txn.Mutated()
	if werr := s.commitTxn(txn, "submit"); werr != nil {
		return nil, werr, false
	}
	info := ship.ExecInfo{
		Steps:    steps,
		CacheHit: res.CacheHit,
		Rewrites: int64(res.Stats.Rewrites()),
	}
	return &ship.Result{Val: s.machineToWire(v), Info: info, Explain: explain}, nil, wrote
}

// save stages a submitted term's compiled closure — TAM code and the
// re-optimizable PTML tree, no bindings (rebinding closed the term) —
// under the srv: root namespace tycfsck audits. The writes ride the
// request's transaction; durability (and any conflict with a concurrent
// save under the same name) is decided by its commit.
func (s *session) save(st *store.Txn, saveAs, name string, res *pipeline.Result) *ship.WireError {
	if len(res.Code) == 0 || len(res.PTML) == 0 {
		return &ship.WireError{Code: ship.CodeInternal, Msg: "compiled submit carries no encodings to save"}
	}
	codeOID := st.Alloc(&store.Blob{Bytes: res.Code})
	ptmlOID := st.Alloc(&store.Blob{Bytes: res.PTML})
	cloOID := st.Alloc(&store.Closure{Name: name, Code: codeOID, PTML: ptmlOID})
	// SetRoot advances the store's binding epoch at commit, which
	// conservatively invalidates the pipeline cache — saving is a binding
	// change, the same rule every other root update follows.
	st.SetRoot(ship.SavedRoot+saveAs, cloOID)
	s.srv.Logf("session %d: saved %s as %s%s", s.c.ID(), name, ship.SavedRoot, saveAs)
	return nil
}

// rebind decodes the submitted application and closes it: free value
// variables are substituted with their bound R-values, and the free
// continuation variables e (exception) and k (result) become the
// parameters of the wrapping procedure, which Apply binds to the
// top-level halt continuations.
func (s *session) rebind(data []byte, binds map[string]store.Val, gen *tml.VarGen) (*tml.Abs, error) {
	app, free, err := ptml.DecodeApp(data, gen)
	if err != nil {
		return nil, err
	}
	var eVar, kVar *tml.Var
	subst := make(map[*tml.Var]tml.Value)
	for _, v := range free {
		switch v.Name {
		case "e":
			if eVar != nil {
				return nil, fmt.Errorf("submit: two free variables named e")
			}
			eVar = v
			continue
		case "k":
			if kVar != nil {
				return nil, fmt.Errorf("submit: two free variables named k")
			}
			kVar = v
			continue
		}
		if v.Cont {
			return nil, fmt.Errorf("submit: free continuation %s (only e and k may be free)", v)
		}
		sv, ok := binds[v.Name]
		if !ok {
			sv, ok = binds[v.String()]
		}
		if !ok {
			return nil, fmt.Errorf("submit: no binding for free variable %s", v.Name)
		}
		subst[v] = machine.StoreValToTML(sv)
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

// handleOptimize reflectively optimizes an installed function and
// installs the code in the core's code table, so every session's next
// call runs it; the compilation lands in the shared pipeline cache, so a
// repeated optimize of the same function is a hit. It reads the store
// and writes nothing to it.
func (s *session) handleOptimize(body []byte) (*ship.Result, *ship.WireError) {
	req, err := ship.DecodeOptimize(body)
	if err != nil {
		return nil, ship.WireErr(ship.CodeProto, err)
	}
	res, err := s.srv.core.Optimize(req.Module, req.Fn)
	if err != nil {
		var nf *linker.NotFoundError
		if errors.As(err, &nf) {
			return nil, ship.WireErr(ship.CodeNotFound, err)
		}
		return nil, ship.WireErr(ship.CodeCompile, err)
	}
	info := ship.ExecInfo{
		CacheHit: res.CacheHit,
		Inlined:  int64(res.Inlined),
		Rewrites: int64(res.Pipeline.Rewrites()),
	}
	return &ship.Result{
		Val:  ship.WVal{Kind: ship.WStr, Str: req.Module + "." + req.Fn},
		Info: info,
	}, nil
}

// execErr classifies an execution failure for the wire.
func execErr(err error) *ship.WireError {
	switch {
	case errors.Is(err, machine.ErrStepBudget), errors.Is(err, machine.ErrWallBudget):
		return ship.WireErr(ship.CodeBudget, err)
	default:
		return ship.WireErr(ship.CodeExec, err)
	}
}

// --- value conversions -----------------------------------------------------

// wireToMachine lifts a wire argument into a runtime value: a shipped
// table as a transient relation, anything else through its store slot
// form.
func (s *session) wireToMachine(v ship.WVal) (machine.Value, error) {
	if v.Kind == ship.WRel {
		return s.wireToRel(v.Rel)
	}
	sv, err := s.wireToStoreVal(v)
	if err != nil {
		return nil, err
	}
	return machine.FromStoreVal(sv), nil
}

// wireToStoreVal lowers a wire binding into a store slot value (the
// form R-value rebinding and key fingerprinting work on).
func (s *session) wireToStoreVal(v ship.WVal) (store.Val, error) {
	switch v.Kind {
	case ship.WNil:
		return store.NilVal(), nil
	case ship.WInt:
		return store.IntVal(v.Int), nil
	case ship.WReal:
		return store.RealVal(v.Real), nil
	case ship.WBool:
		return store.BoolVal(v.Bool), nil
	case ship.WChar:
		return store.CharVal(v.Ch), nil
	case ship.WStr:
		return store.StrVal(v.Str), nil
	case ship.WRef:
		return store.RefVal(store.OID(v.Ref)), nil
	case ship.WRoot:
		oid, ok := s.srv.core.Store.Root(v.Str)
		if !ok {
			return store.Val{}, fmt.Errorf("no root named %q", v.Str)
		}
		return store.RefVal(oid), nil
	default:
		return store.Val{}, fmt.Errorf("wire value %s cannot be a binding", v.Show())
	}
}

// wireToRel materialises a shipped table as a transient relation.
func (s *session) wireToRel(t *ship.WTable) (*relalg.Rel, error) {
	if t == nil {
		return nil, fmt.Errorf("relation value without table")
	}
	rel := &relalg.Rel{}
	for _, c := range t.Cols {
		rel.Schema = append(rel.Schema, store.Column{Name: c, Type: store.ColStr})
	}
	for _, row := range t.Rows {
		out := make([]store.Val, len(row))
		for i, f := range row {
			sv, err := s.wireToStoreVal(f)
			if err != nil {
				return nil, err
			}
			out[i] = sv
		}
		rel.Rows = append(rel.Rows, out)
	}
	if len(rel.Schema) == 0 && len(rel.Rows) > 0 {
		for i, f := range rel.Rows[0] {
			rel.Schema = append(rel.Schema, store.Column{Name: fmt.Sprintf("c%d", i), Type: colTypeOf(f)})
		}
	}
	return rel, nil
}

func colTypeOf(v store.Val) store.ColType {
	switch v.Kind {
	case store.ValInt:
		return store.ColInt
	case store.ValReal:
		return store.ColReal
	case store.ValBool:
		return store.ColBool
	default:
		return store.ColStr
	}
}

// machineToWire lowers a result value for the wire: scalars by value,
// references by OID, relations as materialised tables. Transient values
// with no wire form (closures, continuations) degrade to their printed
// representation — a REPL answer, not round-trippable data.
func (s *session) machineToWire(v machine.Value) ship.WVal {
	switch v := v.(type) {
	case *relalg.Rel:
		return ship.WVal{Kind: ship.WRel, Rel: relToWire(v)}
	case *machine.Vector:
		row := make([]ship.WVal, len(v.Elems))
		for i, el := range v.Elems {
			row[i] = s.machineToWire(el)
		}
		return ship.WVal{Kind: ship.WRel, Rel: &ship.WTable{Rows: [][]ship.WVal{row}}}
	}
	if sv, err := machine.ToStoreVal(v); err == nil {
		return storeValToWire(sv)
	}
	return ship.WVal{Kind: ship.WStr, Str: v.Show()}
}

// relToWire lowers a relation in one pass: the row headers in one exact
// slice, every cell in one slab, each row capacity-capped so an append to
// one row can never reach its neighbour.
func relToWire(rel *relalg.Rel) *ship.WTable {
	t := &ship.WTable{Rows: make([][]ship.WVal, len(rel.Rows))}
	if len(rel.Schema) > 0 {
		t.Cols = make([]string, len(rel.Schema))
		for i, c := range rel.Schema {
			t.Cols[i] = c.Name
		}
	}
	n := 0
	for _, row := range rel.Rows {
		n += len(row)
	}
	cells := make([]ship.WVal, n)
	for i, row := range rel.Rows {
		out := cells[:len(row):len(row)]
		cells = cells[len(row):]
		for j, f := range row {
			out[j] = storeValToWire(f)
		}
		t.Rows[i] = out
	}
	return t
}

func storeValToWire(v store.Val) ship.WVal {
	switch v.Kind {
	case store.ValInt:
		return ship.WVal{Kind: ship.WInt, Int: v.Int}
	case store.ValReal:
		return ship.WVal{Kind: ship.WReal, Real: v.Real}
	case store.ValBool:
		return ship.WVal{Kind: ship.WBool, Bool: v.Bool}
	case store.ValChar:
		return ship.WVal{Kind: ship.WChar, Ch: v.Ch}
	case store.ValStr:
		return ship.WVal{Kind: ship.WStr, Str: v.Str}
	case store.ValRef:
		return ship.WVal{Kind: ship.WRef, Ref: uint64(v.Ref)}
	default:
		return ship.WVal{Kind: ship.WNil}
	}
}
