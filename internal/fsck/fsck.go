// Package fsck implements integrity checking for persistent Tycoon
// stores: structural log verification, OID reachability from the root
// table, and well-formedness of the persistent intermediate code
// representations (PTML trees and TAM code) attached to closures.
//
// The paper's central bet is that intermediate code representations stay
// in the store for years and get re-optimized long after the compiler
// session that produced them died; fsck is the tool that tells an
// administrator whether that accumulated state is still sound. It lives
// outside package store because the closure checks need the PTML codec,
// the TML well-formedness checker and the TAM decoder, which sit above
// the store in the dependency order.
package fsck

import (
	"fmt"
	"sort"

	"tycoon/internal/iofault"
	"tycoon/internal/machine"
	"tycoon/internal/ptml"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// Severity classifies a finding. Errors make the store unsound (dangling
// references, undecodable code, ill-formed TML); warnings are benign but
// worth surfacing (unreachable garbage awaiting compaction).
type Severity int

// The severities.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one problem discovered by a check.
type Finding struct {
	Severity Severity
	OID      store.OID // the object the finding is about; Nil for store-level findings
	Message  string
}

func (f Finding) String() string {
	if f.OID != store.Nil {
		return fmt.Sprintf("%s: 0x%x: %s", f.Severity, uint64(f.OID), f.Message)
	}
	return fmt.Sprintf("%s: %s", f.Severity, f.Message)
}

// ClosureHash records the canonical α-invariant content hash of one
// closure's PTML tree (ptml.HashNode). Two closures with the same hash
// carry the same intermediate code up to bound-variable renaming — the
// identity the pipeline's optimized-code cache is keyed on.
type ClosureHash struct {
	OID  store.OID
	Name string
	Hash ptml.Hash
}

// Report is the result of a store check.
type Report struct {
	// Log is the structural log verification result (nil when the check
	// ran on an already open store rather than a file).
	Log *store.LogReport

	Objects     int // objects in the store
	Roots       int // entries in the root table
	Reachable   int // objects reachable from the roots
	Unreachable int // objects not reachable from any root (warnings)
	Closures    int // closures whose code/PTML were verified

	// Hashes lists the canonical content hash of every closure whose
	// PTML decoded, in OID order.
	Hashes []ClosureHash

	Findings []Finding
}

// Errors counts the error-severity findings.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// Warnings counts the warning-severity findings.
func (r *Report) Warnings() int { return len(r.Findings) - r.Errors() }

// OK reports that the store is sound: no error findings (warnings, such
// as unreachable garbage, are tolerated).
func (r *Report) OK() bool { return r.Errors() == 0 }

func (r *Report) errf(oid store.OID, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Severity: Error, OID: oid, Message: fmt.Sprintf(format, args...)})
}

func (r *Report) warnf(oid store.OID, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Severity: Warning, OID: oid, Message: fmt.Sprintf(format, args...)})
}

// CheckPath verifies the store log at path structurally, then opens it
// and runs the full object-level check. A log whose body is damaged
// (store.ErrCorrupt) still yields a report — with the damage as an error
// finding — rather than an error, so the caller can print it and suggest
// salvage.
func CheckPath(path string) (*Report, error) { return CheckPathFS(iofault.OS(), path) }

// CheckPathFS is CheckPath over an explicit filesystem.
func CheckPathFS(fsys iofault.FS, path string) (*Report, error) {
	rep := &Report{}
	logRep, err := store.VerifyLogFS(fsys, path)
	if err != nil {
		return nil, err
	}
	rep.Log = logRep
	if logRep.Damage != nil {
		rep.errf(logRep.Damage.OID, "log damage at offset %d: %s", logRep.Damage.Offset, logRep.Damage.Reason)
		return rep, nil // the store will not open; report what we know
	}
	if logRep.TornTailOffset >= 0 {
		rep.warnf(store.Nil, "torn tail at offset %d (crash artifact, dropped on open)", logRep.TornTailOffset)
	}
	if logRep.Uncommitted > 0 {
		rep.warnf(store.Nil, "%d uncommitted trailing records (crash artifact, rolled back on open)", logRep.Uncommitted)
	}
	st, err := store.OpenFS(fsys, path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	Check(st, rep)
	return rep, nil
}

// Check runs the object-level checks on an open store, appending to rep
// (pass a fresh &Report{} when there is no log report to carry over):
// root resolution, reachability, per-object reference integrity, and
// PTML/TAM well-formedness for every closure.
func Check(st *store.Store, rep *Report) {
	oids := st.OIDs()
	rep.Objects = len(oids)

	// Resolve the roots and walk the object graph from them.
	reachable := make(map[store.OID]bool)
	var queue []store.OID
	rootNames := st.Roots()
	rep.Roots = len(rootNames)
	for _, name := range rootNames {
		oid, _ := st.Root(name)
		obj, err := st.Get(oid)
		if err != nil {
			rep.errf(oid, "root %q is dangling", name)
			continue
		}
		// Server-saved session roots (tycd SUBMIT save=…) must name
		// closures: the whole point of saving is that the intermediate
		// code stays re-optimizable, so a srv: root bound to anything
		// without code is a corruption worth flagging.
		if len(name) > len(ship.SavedRoot) && name[:len(ship.SavedRoot)] == ship.SavedRoot {
			if _, ok := obj.(*store.Closure); !ok {
				rep.errf(oid, "server-saved root %q is a %s, not a closure", name, obj.Kind())
			}
		}
		if !reachable[oid] {
			reachable[oid] = true
			queue = append(queue, oid)
		}
	}
	for len(queue) > 0 {
		oid := queue[0]
		queue = queue[1:]
		obj, err := st.Get(oid)
		if err != nil {
			continue // reported at the referencing object below
		}
		for _, ref := range refs(obj) {
			if reachable[ref] {
				continue
			}
			reachable[ref] = true
			queue = append(queue, ref)
		}
	}
	rep.Reachable = len(reachable)

	// Per-object checks, in OID order for deterministic output.
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		obj := st.MustGet(oid)
		for _, ref := range refs(obj) {
			if _, err := st.Get(ref); err != nil {
				rep.errf(oid, "dangling reference to 0x%x", uint64(ref))
			}
		}
		if !reachable[oid] {
			rep.Unreachable++
			rep.warnf(oid, "unreachable from the root table (garbage; Compact keeps it, delete roots carefully)")
		}
		if clo, ok := obj.(*store.Closure); ok {
			rep.Closures++
			checkClosure(st, rep, oid, clo)
		}
	}
}

// checkClosure verifies a closure's persistent representations: the TAM
// code must decode and every variable it captures must have a binding;
// the PTML tree must decode, satisfy the §2.2 well-formedness
// constraints, and close over exactly the recorded bindings.
func checkClosure(st *store.Store, rep *Report, oid store.OID, clo *store.Closure) {
	bindings := make(map[string]bool, len(clo.Bindings))
	for _, b := range clo.Bindings {
		bindings[b.Name] = true
	}

	if clo.Code != store.Nil {
		if data, ok := blobBytes(st, rep, oid, "code", clo.Code); ok {
			prog, err := machine.DecodeProgram(data)
			if err != nil {
				rep.errf(oid, "closure %s: TAM code undecodable: %v", clo.Name, err)
			} else {
				for _, name := range prog.EntryBlock().FreeNames {
					if !bindings[name] {
						rep.errf(oid, "closure %s: TAM code captures %s but the closure has no such binding", clo.Name, name)
					}
				}
			}
		}
	}

	if clo.PTML == store.Nil {
		return
	}
	data, ok := blobBytes(st, rep, oid, "PTML", clo.PTML)
	if !ok {
		return
	}
	node, free, err := ship.CheckPTML(data)
	if node == nil {
		rep.errf(oid, "closure %s: %v", clo.Name, err)
		return
	}
	rep.Hashes = append(rep.Hashes, ClosureHash{OID: oid, Name: clo.Name, Hash: ptml.HashNode(node)})
	if err != nil {
		rep.errf(oid, "closure %s: %v", clo.Name, err)
	}
	for _, v := range free {
		if !bindings[v.String()] && !bindings[v.Name] {
			rep.errf(oid, "closure %s: PTML free variable %s has no binding", clo.Name, v)
		}
	}
}

// blobBytes resolves an OID that must be a Blob, reporting findings for
// dangling or mistyped references.
func blobBytes(st *store.Store, rep *Report, owner store.OID, what string, oid store.OID) ([]byte, bool) {
	obj, err := st.Get(oid)
	if err != nil {
		// Already reported as a dangling reference by the caller's walk.
		return nil, false
	}
	blob, ok := obj.(*store.Blob)
	if !ok {
		rep.errf(owner, "%s reference 0x%x is a %s, not a blob", what, uint64(oid), obj.Kind())
		return nil, false
	}
	return blob.Bytes, true
}

// refs lists the OIDs an object refers to.
func refs(obj store.Object) []store.OID {
	var out []store.OID
	addVal := func(v store.Val) {
		if v.Kind == store.ValRef && v.Ref != store.Nil {
			out = append(out, v.Ref)
		}
	}
	switch o := obj.(type) {
	case *store.Tuple:
		for _, v := range o.Fields {
			addVal(v)
		}
	case *store.Array:
		for _, v := range o.Elems {
			addVal(v)
		}
	case *store.Module:
		for _, e := range o.Exports {
			addVal(e.Val)
		}
	case *store.Closure:
		if o.Code != store.Nil {
			out = append(out, o.Code)
		}
		if o.PTML != store.Nil {
			out = append(out, o.PTML)
		}
		for _, b := range o.Bindings {
			addVal(b.Val)
		}
	case *store.Relation:
		for _, row := range o.RowsSnapshot() {
			for _, v := range row {
				addVal(v)
			}
		}
	}
	return out
}
