package machine

import (
	"fmt"
	"sync"

	"tycoon/internal/store"
)

// This file implements lazy linking: applying an OID reference to a
// persistent closure record swizzles it into an executable TAM closure,
// resolving the R-value bindings of its free variables from the closure
// record (paper §4.1, Fig. 3). A link depends only on the store and the
// standard primitive table, so links and decoded code blobs live in the
// machine's CodeTable, shared by every machine using the table.

// CodeTable is a code image over one store: closure OIDs bound to
// executable values — code installed by the caller (the reflective
// optimizer's output) or the lazy link of the persistent original — and
// code-blob OIDs bound to their decoded programs. tycd keeps one per
// server, so each closure is linked and each code blob decoded once per
// server, and an optimization installed by one session serves all of
// them. The zero value is an empty table, safe for concurrent use.
//
// The table holds at most one value per closure record and one program
// per code blob, all of which the store already holds, so it has no
// bound of its own. Sharing links is sound because the code and bindings
// of a complete closure record, and a code blob, are never rewritten
// (SetClosureAttrs replaces only derived attributes). Only placeholders
// are: the linker's closure records without code and ship.Import's empty
// objects. A placeholder fails to link or decode, and failures are never
// cached.
type CodeTable struct {
	closures sync.Map // store.OID → Value: installs and links
	programs sync.Map // store.OID → *Program: decoded code blobs
}

// Install binds oid to compiled closure c for every machine using the
// table, without touching the persistent original. It replaces an
// earlier install or link of the same OID.
func (t *CodeTable) Install(oid store.OID, c *TAMClosure) { t.closures.Store(oid, Value(c)) }

// Within one request a library reference resolves once. A machine keeps
// two memos in front of the store and the CodeTable: (module OID, export
// index) → member value, filled by the generic [] on a module and read by
// the fused one, and closure OID → linked value, filled and read by
// linkClosure. Only module exports are memoized: a complete module is
// never rewritten, and an empty placeholder has no in-range export to
// memoize, while arrays and tuples are mutable and go to the store on
// every access. The memos live for the outermost drive — one request —
// and empty when it leaves (endRequest), so an install or a rebinding is
// visible at the next request, never in the middle of one, as the
// request's snapshot already promises for data.

// maxMemo bounds what the memos keep between requests: a map that grew
// past it is dropped, not cleared, so one request cannot pin a large
// table on a long-lived machine.
const maxMemo = 1024

// memberKey names export idx of module mod in one word — the OID in the
// high 48 bits, the index in the low 16 — so the member memo hashes one
// word per library call. A reference outside that range, or a negative
// index, has no key (ok false) and is never memoized.
func memberKey(mod store.OID, idx int64) (key uint64, ok bool) {
	if uint64(mod) >= 1<<48 || uint64(idx) >= 1<<16 {
		return 0, false
	}
	return uint64(mod)<<16 | uint64(idx), true
}

// memoMember records the value of module mod's export idx.
func (m *Machine) memoMember(mod store.OID, idx int64, v Value) {
	key, ok := memberKey(mod, idx)
	if !ok {
		return
	}
	if m.members == nil {
		m.members = make(map[uint64]Value)
	}
	m.members[key] = v
}

// endRequest runs when the outermost drive leaves: it empties the memos
// and clears the operand registers and the one-result scratch slot, so
// none of them keeps a value alive between requests.
func (m *Machine) endRequest() {
	clear(m.opnd)
	m.result[0] = nil
	m.members = emptyMemo(m.members)
	m.links = emptyMemo(m.links)
}

func emptyMemo[K comparable](t map[K]Value) map[K]Value {
	if len(t) > maxMemo {
		return nil
	}
	if len(t) > 0 {
		clear(t)
	}
	return t
}

// linkClosure resolves a persistent closure record into a runtime value,
// once per request (see above).
func (m *Machine) linkClosure(oid store.OID) (Value, error) {
	if v, ok := m.links[oid]; ok {
		m.resolved++
		return v, nil
	}
	v, err := m.link(oid)
	if err != nil {
		return nil, err
	}
	if m.links == nil {
		m.links = make(map[store.OID]Value)
	}
	m.links[oid] = v
	return v, nil
}

// link resolves a closure record through the machine's CodeTable.
func (m *Machine) link(oid store.OID) (Value, error) {
	if v, ok := m.Code.closures.Load(oid); ok {
		return v.(Value), nil
	}
	if m.Store == nil {
		return nil, rtErr("link", "no store attached")
	}
	obj, err := m.Store.Get(oid)
	if err != nil {
		return nil, rtErr("link", "%v", err)
	}
	clo, ok := obj.(*store.Closure)
	if !ok {
		return nil, rtErr("link", "oid 0x%x is a %s, not a closure", uint64(oid), obj.Kind())
	}
	prog, err := m.program(clo.Code)
	if err != nil {
		return nil, fmt.Errorf("linking %s: %w", clo.Name, err)
	}
	entry := prog.EntryBlock()
	free := make([]Value, len(entry.FreeNames))
	for i, name := range entry.FreeNames {
		val, ok := clo.Binding(name)
		if !ok {
			return nil, rtErr("link", "%s: no binding for free variable %s", clo.Name, name)
		}
		free[i] = FromStoreVal(val)
	}
	// Whatever was published first — an install or a concurrent link —
	// stays, so a link never shadows an install.
	v, _ := m.Code.closures.LoadOrStore(oid, Value(&TAMClosure{Prog: prog, Blk: prog.Entry, Free: free, Name: clo.Name}))
	return v.(Value), nil
}

// program decodes a TAM code blob once per table.
func (m *Machine) program(oid store.OID) (*Program, error) {
	if p, ok := m.Code.programs.Load(oid); ok {
		return p.(*Program), nil
	}
	obj, err := m.Store.Get(oid)
	if err != nil {
		return nil, err
	}
	blob, ok := obj.(*store.Blob)
	if !ok {
		return nil, rtErr("link", "code oid 0x%x is a %s, not a blob", uint64(oid), obj.Kind())
	}
	decoded, err := DecodeProgram(blob.Bytes)
	if err != nil {
		return nil, err
	}
	p, _ := m.Code.programs.LoadOrStore(oid, decoded)
	return p.(*Program), nil
}

// CallExport looks up an exported member of a stored module and applies
// it — the host-side entry point examples and benchmarks use.
func (m *Machine) CallExport(moduleOID store.OID, member string, args []Value) (Value, error) {
	obj, err := m.Store.Get(moduleOID)
	if err != nil {
		return nil, err
	}
	mod, ok := obj.(*store.Module)
	if !ok {
		return nil, rtErr("call", "oid 0x%x is a %s, not a module", uint64(moduleOID), obj.Kind())
	}
	val, ok := mod.Lookup(member)
	if !ok {
		return nil, rtErr("call", "module %s exports no %s", mod.Name, member)
	}
	return m.Apply(FromStoreVal(val), args)
}
