// Package ship implements code shipping between Tycoon stores — the
// application domain paper §6 names for uniform persistent code
// representations ("like code shipping in distributed systems [Mathiske
// et al. 1995]").
//
// Export walks the transitive reachability graph of a persistent closure
// — its TAM code, its PTML tree, its R-value bindings, the modules and
// closures those reference — and serialises a self-contained bundle.
// Import replays the bundle into another store, remapping every OID
// (including the OIDs embedded in PTML and TAM literal pools).
//
// Two kinds of objects cross the wire by *name* rather than by value:
//
//   - relations: code ships, bulk data stays; an imported binding to
//     relation R resolves against the target store's "rel:R" root;
//   - modules: the shipped code binds to the target's installed module of
//     the same name — shipping an application neither re-ships the stdlib
//     nor overrides the target's libraries. Modules the target lacks make
//     Import fail with ErrUnresolved (install them first).
package ship

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// ErrBadBundle wraps structural bundle decoding failures (bad magic,
// malformed entries).
var ErrBadBundle = errors.New("ship: corrupt bundle")

// ErrCorruptBundle is the sentinel wrapped by CorruptBundleError: the
// bundle was damaged in transit (truncation, bit flips) and its v2
// integrity envelope caught it.
var ErrCorruptBundle = errors.New("ship: bundle damaged in transit")

// ErrUnresolved reports a by-name dependency missing in the target store.
var ErrUnresolved = errors.New("ship: unresolved dependency")

// CorruptBundleError reports damage detected by the v2 bundle envelope.
type CorruptBundleError struct {
	Reason string
}

func (e *CorruptBundleError) Error() string { return "ship: corrupt bundle: " + e.Reason }

// Unwrap makes errors.Is(err, ErrCorruptBundle) hold.
func (e *CorruptBundleError) Unwrap() error { return ErrCorruptBundle }

const (
	// bundleMagic tags the current bundle format: the magic, a u32 body
	// length, the body, and a CRC32C (Castagnoli) of the body. Bundles
	// cross machine boundaries, so unlike the store log they get no second
	// chance at detecting rot — Import verifies before touching the store.
	bundleMagic = "TYSHIP02"
	// bundleMagicV1 tags the legacy unchecksummed format, still imported.
	bundleMagicV1 = "TYSHIP01"

	entryObject   = byte(1) // shipped by value
	entryRelation = byte(2) // resolved by name in the target
	entryModule   = byte(3) // resolved by name in the target
)

var bundleCRC = crc32.MakeTable(crc32.Castagnoli)

// Export serialises the transitive code closure of root.
func Export(st *store.Store, root store.OID) ([]byte, error) {
	e := &exporter{st: st, index: make(map[store.OID]int)}
	if err := e.visit(root); err != nil {
		return nil, err
	}
	body := appendU32(nil, uint32(len(e.entries)))
	for _, ent := range e.entries {
		body = append(body, ent.kind)
		if ent.kind == entryRelation || ent.kind == entryModule {
			body = appendStr(body, ent.relName)
			continue
		}
		body = appendBytes(append(body, byte(ent.obj.Kind())), encodeShipped(ent.obj, e.index))
	}
	// The root is always entry 0 (visit order). Wrap the body in the v2
	// integrity envelope: length up front, checksum at the end.
	out := append(make([]byte, 0, len(bundleMagic)+4+len(body)+4), bundleMagic...)
	out = append(appendU32(out, uint32(len(body))), body...)
	return appendU32(out, crc32.Checksum(body, bundleCRC)), nil
}

// bundleBody validates a bundle's envelope and returns its entry stream.
// V2 bundles are length- and checksum-verified; v1 bundles pass through
// unchecked (they carry no integrity data).
func bundleBody(bundle []byte) ([]byte, error) {
	mlen := len(bundleMagic)
	if len(bundle) < mlen {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBundle)
	}
	switch string(bundle[:mlen]) {
	case bundleMagicV1:
		return bundle[mlen:], nil
	case bundleMagic:
		if len(bundle) < mlen+4+4 {
			return nil, &CorruptBundleError{Reason: "truncated envelope"}
		}
		n := int(binary.LittleEndian.Uint32(bundle[mlen:]))
		if len(bundle) != mlen+4+n+4 {
			return nil, &CorruptBundleError{
				Reason: fmt.Sprintf("envelope frames %d body bytes, bundle has %d", n, len(bundle)-mlen-8),
			}
		}
		buf := bundle[mlen+4 : mlen+4+n]
		want := binary.LittleEndian.Uint32(bundle[mlen+4+n:])
		if got := crc32.Checksum(buf, bundleCRC); got != want {
			return nil, &CorruptBundleError{
				Reason: fmt.Sprintf("checksum mismatch (computed %08x, recorded %08x)", got, want),
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadBundle)
	}
}

type entry struct {
	kind    byte
	obj     store.Object
	relName string
}

type exporter struct {
	st      *store.Store
	index   map[store.OID]int
	entries []entry
}

// visit records oid (and everything reachable from it) in the bundle.
func (e *exporter) visit(oid store.OID) error {
	if oid == store.Nil {
		return nil
	}
	if _, done := e.index[oid]; done {
		return nil
	}
	obj, err := e.st.Get(oid)
	if err != nil {
		return fmt.Errorf("ship: %w", err)
	}
	// Reserve the slot before recursing (cycles: mutually recursive
	// closures reference each other through bindings).
	idx := len(e.entries)
	e.index[oid] = idx
	switch o := obj.(type) {
	case *store.Relation:
		e.entries = append(e.entries, entry{kind: entryRelation, relName: o.Name})
		return nil
	case *store.Module:
		e.entries = append(e.entries, entry{kind: entryModule, relName: o.Name})
		return nil
	}
	e.entries = append(e.entries, entry{kind: entryObject, obj: obj})

	for _, ref := range refsOf(obj) {
		if err := e.visit(ref); err != nil {
			return err
		}
	}
	return nil
}

// refsOf enumerates the outgoing OID references of an object, including
// the OIDs embedded in PTML and TAM blobs (none are produced by the
// regular compilation pipeline, but reflectively generated code may
// carry them).
func refsOf(obj store.Object) []store.OID {
	var refs []store.OID
	val := func(v store.Val) {
		if v.Kind == store.ValRef && v.Ref != store.Nil {
			refs = append(refs, v.Ref)
		}
	}
	switch o := obj.(type) {
	case *store.Closure:
		refs = append(refs, o.Code)
		if o.PTML != store.Nil {
			refs = append(refs, o.PTML)
		}
		for _, b := range o.Bindings {
			val(b.Val)
		}
	case *store.Module:
		for _, ex := range o.Exports {
			val(ex.Val)
		}
	case *store.Tuple:
		for _, f := range o.Fields {
			val(f)
		}
	case *store.Array:
		for _, f := range o.Elems {
			val(f)
		}
	}
	return refs
}

// Import replays a bundle into st and returns the new OID of the
// bundle's root object.
func Import(st *store.Store, bundle []byte) (store.OID, error) {
	body, err := bundleBody(bundle)
	if err != nil {
		return store.Nil, err
	}
	r := bundleCursor(body)
	// Every entry takes at least two bytes; count refuses a larger
	// declared count before it can drive a huge allocation (v1 bundles
	// have no checksum to catch this earlier).
	n := r.count(2)
	type pending struct {
		byName  bool // resolved in the target; nothing to decode
		kind    store.Kind
		payload []byte
	}
	entries := make([]pending, 0, n)
	oids := make([]store.OID, n)

	// Pass 1: allocate OIDs (placeholders for objects, resolved roots
	// for by-name relations) so cyclic references can be rewritten.
	for i := 0; i < n && r.err == nil; i++ {
		switch r.u8() {
		case entryRelation:
			name := r.str()
			oid, ok := st.Root("rel:" + name)
			if !ok {
				return store.Nil, fmt.Errorf("%w: relation %q not present in target store", ErrUnresolved, name)
			}
			oids[i] = oid
			entries = append(entries, pending{byName: true})
		case entryModule:
			name := r.str()
			oid, ok := st.Root("module:" + name)
			if !ok {
				return store.Nil, fmt.Errorf("%w: module %q not installed in target store", ErrUnresolved, name)
			}
			oids[i] = oid
			entries = append(entries, pending{byName: true})
		case entryObject:
			kind := store.Kind(r.u8())
			payload := r.bytesField()
			oids[i] = st.Alloc(&store.Blob{}) // placeholder
			entries = append(entries, pending{kind: kind, payload: payload})
		default:
			return store.Nil, fmt.Errorf("%w: unknown entry", ErrBadBundle)
		}
	}
	if r.err != nil {
		return store.Nil, r.err
	}

	if n == 0 {
		return store.Nil, fmt.Errorf("%w: empty bundle", ErrBadBundle)
	}

	// Pass 2: decode payloads and remap refs.
	objs := make(map[store.OID]store.Object, n)
	for i, ent := range entries {
		if ent.byName {
			continue
		}
		obj, err := decodeShipped(ent.kind, ent.payload, oids)
		if err != nil {
			return store.Nil, err
		}
		objs[oids[i]] = obj
	}
	// Shipped code is code from outside: every closure's PTML tree must
	// satisfy the §2.2 constraints before any of it is stored.
	for i := range entries {
		clo, ok := objs[oids[i]].(*store.Closure)
		if !ok || clo.PTML == store.Nil {
			continue
		}
		blob, ok := objs[clo.PTML].(*store.Blob)
		if !ok {
			return store.Nil, fmt.Errorf("%w: closure %s: PTML is not a shipped blob", ErrBadBundle, clo.Name)
		}
		if _, _, err := CheckPTML(blob.Bytes); err != nil {
			return store.Nil, fmt.Errorf("%w: closure %s: %w", ErrBadBundle, clo.Name, err)
		}
	}
	// Pass 3: update placeholders.
	for i, ent := range entries {
		if ent.byName {
			continue
		}
		if err := st.Update(oids[i], objs[oids[i]]); err != nil {
			return store.Nil, err
		}
	}
	return oids[0], nil
}

// CheckPTML decodes a closure's stored PTML tree and checks it against
// the §2.2 well-formedness constraints under the default primitive
// signatures: the rule for a tree that arrives from outside the compiler
// (an imported bundle) or is audited at rest (tycfsck). The tree and its
// free variables are returned whenever it decodes, so a caller can still
// hash an ill-formed tree; a check failure wraps tml.ErrIllFormed.
func CheckPTML(data []byte) (tml.Node, []*tml.Var, error) {
	node, free, err := ptml.Decode(data, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("PTML undecodable: %w", err)
	}
	if err := tml.Check(node, tml.CheckOpts{Signatures: prim.Signatures, AllowFree: free}); err != nil {
		return node, free, fmt.Errorf("PTML tree ill-formed: %w", err)
	}
	return node, free, nil
}

// ExportFunction is a convenience: resolve module.function in src and
// export its closure.
func ExportFunction(st *store.Store, module, fn string) ([]byte, error) {
	modOID, ok := st.Root("module:" + module)
	if !ok {
		return nil, fmt.Errorf("ship: module %s not found", module)
	}
	obj, err := st.Get(modOID)
	if err != nil {
		return nil, err
	}
	mod, ok := obj.(*store.Module)
	if !ok {
		return nil, fmt.Errorf("ship: %s is not a module", module)
	}
	v, ok := mod.Lookup(fn)
	if !ok || v.Kind != store.ValRef {
		return nil, fmt.Errorf("ship: %s.%s is not an exported function", module, fn)
	}
	return Export(st, v.Ref)
}

// --- shipped-object codec -------------------------------------------------
//
// Payloads reuse the store's own object encoding, but with every OID
// replaced by its bundle index before encoding and mapped to the new OID
// after decoding. PTML and TAM blobs are additionally deep-rewritten.

func encodeShipped(obj store.Object, index map[store.OID]int) []byte {
	remapped := remapObject(obj, func(oid store.OID) store.OID {
		if oid == store.Nil {
			return store.Nil
		}
		idx, ok := index[oid]
		if !ok {
			// Unreachable by construction; keep Nil to fail loudly on use.
			return store.Nil
		}
		return store.OID(idx + 1) // index+1 so Nil stays distinguishable
	})
	return store.EncodePayload(remapped)
}

func decodeShipped(kind store.Kind, payload []byte, oids []store.OID) (store.Object, error) {
	obj, err := store.DecodePayload(kind, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	var mapErr error
	out := remapObject(obj, func(ref store.OID) store.OID {
		if ref == store.Nil {
			return store.Nil
		}
		idx := int(ref) - 1
		if idx < 0 || idx >= len(oids) {
			mapErr = fmt.Errorf("%w: reference %d out of range", ErrBadBundle, idx)
			return store.Nil
		}
		return oids[idx]
	})
	if mapErr != nil {
		return nil, mapErr
	}
	return out, nil
}

// remapObject deep-copies obj with every OID reference rewritten by f,
// including OIDs inside PTML and TAM code blobs.
func remapObject(obj store.Object, f func(store.OID) store.OID) store.Object {
	val := func(v store.Val) store.Val {
		if v.Kind == store.ValRef {
			v.Ref = f(v.Ref)
		}
		return v
	}
	switch o := obj.(type) {
	case *store.Closure:
		c := &store.Closure{
			Name: o.Name, Code: f(o.Code), Cost: o.Cost, Savings: o.Savings,
		}
		if o.PTML != store.Nil {
			c.PTML = f(o.PTML)
		}
		for _, b := range o.Bindings {
			c.Bindings = append(c.Bindings, store.Binding{Name: b.Name, Val: val(b.Val)})
		}
		return c
	case *store.Module:
		m := &store.Module{Name: o.Name}
		for _, ex := range o.Exports {
			m.Exports = append(m.Exports, store.Export{Name: ex.Name, Val: val(ex.Val)})
		}
		return m
	case *store.Tuple:
		t := &store.Tuple{Fields: make([]store.Val, len(o.Fields))}
		for i, fv := range o.Fields {
			t.Fields[i] = val(fv)
		}
		return t
	case *store.Array:
		a := &store.Array{Elems: make([]store.Val, len(o.Elems))}
		for i, fv := range o.Elems {
			a.Elems[i] = val(fv)
		}
		return a
	case *store.Blob:
		return &store.Blob{Bytes: remapBlob(o.Bytes, f)}
	default:
		return obj
	}
}

// remapBlob rewrites OIDs inside PTML and TAM encodings; unrecognised
// blobs pass through unchanged.
func remapBlob(data []byte, f func(store.OID) store.OID) []byte {
	if prog, err := machine.DecodeProgram(data); err == nil {
		changed := false
		for _, blk := range prog.Blocks {
			for i, lit := range blk.Lits {
				if ref, ok := lit.(machine.Ref); ok {
					blk.Lits[i] = machine.Ref{OID: f(ref.OID)}
					changed = true
				}
			}
		}
		if changed {
			if out, err := machine.EncodeProgram(prog); err == nil {
				return out
			}
		}
		return data
	}
	if node, _, err := ptml.Decode(data, nil); err == nil {
		changed := false
		tml.Walk(node, func(n tml.Node) bool {
			if o, ok := n.(*tml.Oid); ok && o.Ref != 0 {
				o.Ref = uint64(f(store.OID(o.Ref)))
				changed = true
			}
			return true
		})
		if changed {
			if out, err := ptml.Encode(node); err == nil {
				return out
			}
		}
		return data
	}
	return data
}
