package machine

import (
	"fmt"

	"tycoon/internal/store"
)

// This file implements lazy linking: applying an OID reference to a
// persistent closure record swizzles it into an executable TAM closure,
// resolving the R-value bindings of its free variables from the closure
// record (paper §4.1, Fig. 3). Linking is cached per machine; decoded
// code blobs are additionally shared across closures.

// linkClosure resolves a persistent closure record into a runtime value.
func (m *Machine) linkClosure(oid store.OID) (Value, error) {
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
		val, ok := bindingByName(clo.Bindings, name)
		if !ok {
			return nil, rtErr("link", "%s: no binding for free variable %s", clo.Name, name)
		}
		free[i] = FromStoreVal(val)
	}
	built := Value(&TAMClosure{Prog: prog, Blk: prog.Entry, Free: free, Name: clo.Name})
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	// A concurrent linker (or OverrideLink from the reflective optimizer)
	// may have installed a value meanwhile; first writer wins so an
	// installed override is never clobbered by a stale lazy link.
	if v, ok := m.linked[oid]; ok {
		return v, nil
	}
	if m.linked == nil {
		m.linked = make(map[store.OID]Value)
	}
	m.linked[oid] = built
	return built, nil
}

func bindingByName(bs []store.Binding, name string) (store.Val, bool) {
	for _, b := range bs {
		if b.Name == name {
			return b.Val, true
		}
	}
	return store.Val{}, false
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

// OverrideLink binds an OID to a specific runtime value, overriding lazy
// linking; the reflective optimizer uses this to install dynamically
// optimized code without touching the persistent original.
func (m *Machine) OverrideLink(oid store.OID, v Value) {
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	if m.linked == nil {
		m.linked = make(map[store.OID]Value)
	}
	m.linked[oid] = v
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
