package machine

import (
	"fmt"
	"sync"

	"tycoon/internal/store"
)

// This file implements lazy linking: applying an OID reference to a
// persistent closure record swizzles it into an executable TAM closure,
// resolving the R-value bindings of its free variables from the closure
// record (paper §4.1, Fig. 3). Linking is cached per machine; decoded
// code blobs are additionally shared across closures. Code installed in
// the machine's CodeTable is consulted first and overrides both.

// CodeTable holds installed code: OIDs bound to closures of the caller's
// choosing (the reflective optimizer's output), which every machine using
// the table runs in place of the lazily linked original. tycd keeps one
// per server, so an optimization installed by one session serves all of
// them. The zero value is an empty table, safe for concurrent use.
type CodeTable struct {
	installs sync.Map // store.OID → Value
}

// Install binds oid to v for every machine using the table, without
// touching the persistent original. A later Install of the same OID
// replaces it.
func (t *CodeTable) Install(oid store.OID, v Value) { t.installs.Store(oid, v) }

// lookup returns the code installed for oid, if any.
func (t *CodeTable) lookup(oid store.OID) (Value, bool) {
	v, ok := t.installs.Load(oid)
	if !ok {
		return nil, false
	}
	return v.(Value), true
}

// linkClosure resolves a persistent closure record into a runtime value.
func (m *Machine) linkClosure(oid store.OID) (Value, error) {
	if v, ok := m.Code.lookup(oid); ok {
		return v, nil
	}
	m.linkMu.Lock()
	v, ok := m.linked[oid]
	m.linkMu.Unlock()
	if ok {
		return v, nil
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
	built := Value(&TAMClosure{Prog: prog, Blk: prog.Entry, Free: free, Name: clo.Name})
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	// A concurrent linker may have linked the closure meanwhile; the first
	// one stays.
	if v, ok := m.linked[oid]; ok {
		return v, nil
	}
	if m.linked == nil {
		m.linked = make(map[store.OID]Value)
	}
	m.linked[oid] = built
	return built, nil
}

// program decodes (with caching) a TAM code blob.
func (m *Machine) program(oid store.OID) (*Program, error) {
	m.linkMu.Lock()
	p, ok := m.programs[oid]
	m.linkMu.Unlock()
	if ok {
		return p, nil
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
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	if p, ok := m.programs[oid]; ok {
		return p, nil
	}
	if m.programs == nil {
		m.programs = make(map[store.OID]*Program)
	}
	m.programs[oid] = decoded
	return decoded, nil
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
