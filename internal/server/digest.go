// Anti-entropy digests: the server side of the replica-repair DIGEST
// verb. After the coordinator drains a lagging replica's handoff log it
// compares this digest map against a live replica's and only restores the
// replica to the read preference list when they agree, so a replica that
// diverged in a way replay cannot explain never serves reads again
// without an operator seeing it (tycfsck -cluster).
//
// The digest must be equal on replicas that executed the same writes and
// unequal when contents differ — across stores that allocated different
// OIDs, committed in different group batches and interleaved concurrent
// relation appends differently. Three choices follow:
//
//   - OIDs never enter a hash. References are numbered by discovery
//     order within one root's walk (cycle-safe), and relation-row
//     references hash as the independent digest of their target subgraph.
//   - Relation rows fold order-independently (per-row hashes summed into
//     wrapping uint64 lanes): two replicas that applied the same append
//     set in different orders agree, a lost or extra row still shows.
//   - Closures hash by name, the canonical α-hash of their PTML blob and
//     their bindings — NOT the TAM code bytes or the derived optimizer
//     attributes, which a replica derives from the PTML under its own
//     compile settings; the PTML is the semantic content the paper's
//     whole design preserves for exactly this kind of re-derivation.
package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"strings"

	"tycoon/internal/ptml"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// Digests answers a DIGEST request against the server's store.
func (s *Server) Digests(prefix string) *ship.DigestOK { return StoreDigests(s.core.Store, prefix) }

// StoreDigests computes the per-root digest map of a store, restricted
// to roots whose name starts with prefix ("" means all). CSN and binding
// epoch ride along as observability context only — they are local
// counters and not part of replica agreement (see ship.DigestOK).
func StoreDigests(st *store.Store, prefix string) *ship.DigestOK {
	out := &ship.DigestOK{CSN: st.CSN(), Epoch: st.BindingEpoch()}
	d := &digester{st: st, memo: make(map[store.OID]string), busy: make(map[store.OID]bool)}
	names := st.Roots()
	sort.Strings(names)
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		oid, ok := st.Root(name)
		if !ok {
			continue
		}
		out.Roots = append(out.Roots, ship.RootDigest{Name: name, Digest: d.subgraph(oid)})
	}
	return out
}

// digester memoizes independent subgraph digests (one per entry OID) so
// shared structure is hashed once per store.
type digester struct {
	st   *store.Store
	memo map[store.OID]string
	busy map[store.OID]bool // subgraph() frames on the stack (cycle guard)
}

// subgraph returns the digest of the object graph reachable from oid,
// computed in a fresh discovery-order context (independent of who asked).
func (d *digester) subgraph(oid store.OID) string {
	if h, ok := d.memo[oid]; ok {
		return h
	}
	if d.busy[oid] {
		// A row reference cycling back into its own relation: the inner
		// occurrence hashes as a marker; the outer frame still covers the
		// full structure.
		return "cycle"
	}
	d.busy[oid] = true
	w := &walker{d: d, h: sha256.New(), seen: make(map[store.OID]int)}
	w.walk(oid)
	sum := hex.EncodeToString(w.h.Sum(nil)[:16])
	delete(d.busy, oid)
	d.memo[oid] = sum
	return sum
}

// walker hashes one subgraph, numbering references by discovery order so
// the result is OID-independent and cycles terminate.
type walker struct {
	d    *digester
	h    hash.Hash
	seen map[store.OID]int
}

func (w *walker) tag(s string)   { w.h.Write([]byte(s)); w.h.Write([]byte{0}) }
func (w *walker) str(s string)   { w.u64(uint64(len(s))); w.h.Write([]byte(s)) }
func (w *walker) bytes(b []byte) { w.u64(uint64(len(b))); w.h.Write(b) }
func (w *walker) u8(v byte)      { w.h.Write([]byte{v}) }
func (w *walker) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.h.Write(b[:])
}

func (w *walker) walk(oid store.OID) {
	if oid == store.Nil {
		w.tag("nil")
		return
	}
	if n, ok := w.seen[oid]; ok {
		w.tag("@")
		w.u64(uint64(n))
		return
	}
	w.seen[oid] = len(w.seen)
	obj, err := w.d.st.Get(oid)
	if err != nil {
		w.tag("missing")
		return
	}
	switch o := obj.(type) {
	case *store.Blob:
		w.tag("blob")
		w.bytes(o.Bytes)
	case *store.ByteArray:
		w.tag("bytearray")
		w.bytes(o.Bytes)
	case *store.Tuple:
		w.tag("tuple")
		w.u64(uint64(len(o.Fields)))
		for _, v := range o.Fields {
			w.val(v)
		}
	case *store.Array:
		w.tag("array")
		w.u64(uint64(len(o.Elems)))
		for _, v := range o.Elems {
			w.val(v)
		}
	case *store.Module:
		w.tag("module")
		w.str(o.Name)
		w.u64(uint64(len(o.Exports)))
		for _, e := range o.Exports {
			w.str(e.Name)
			w.val(e.Val)
		}
	case *store.Closure:
		w.tag("closure")
		w.str(o.Name)
		// The semantic content: the canonical α-hash of the PTML blob.
		// TAM code and the Cost/Savings optimizer caches are excluded by
		// design (see the package comment).
		if o.PTML == store.Nil {
			w.tag("no-ptml")
		} else if pb, err := w.d.st.Get(o.PTML); err == nil {
			if blob, ok := pb.(*store.Blob); ok {
				if h, err := ptml.CanonicalHash(blob.Bytes); err == nil {
					w.bytes(h[:])
				} else {
					h := ptml.HashRaw(blob.Bytes)
					w.bytes(h[:])
				}
			} else {
				w.tag("bad-ptml")
			}
		} else {
			w.tag("missing-ptml")
		}
		w.u64(uint64(len(o.Bindings)))
		for _, b := range o.Bindings {
			w.str(b.Name)
			w.val(b.Val)
		}
	case *store.Relation:
		w.tag("rel")
		w.str(o.Name)
		w.u64(uint64(len(o.Schema)))
		for _, c := range o.Schema {
			w.str(c.Name)
			w.u8(byte(c.Type))
		}
		cols := make([]int, 0, len(o.Indexes))
		for _, ix := range o.Indexes {
			cols = append(cols, ix.Column)
		}
		sort.Ints(cols)
		w.u64(uint64(len(cols)))
		for _, c := range cols {
			w.u64(uint64(c))
		}
		// Order-independent row fold: concurrent appends interleave
		// differently across replicas, so per-row hashes are summed into
		// wrapping lanes instead of being chained.
		rows := o.RowsSnapshot()
		var acc [4]uint64
		for _, row := range rows {
			rh := sha256.New()
			rw := &walker{d: w.d, h: rh, seen: make(map[store.OID]int)}
			rw.u64(uint64(len(row)))
			for _, v := range row {
				rw.rowVal(v)
			}
			sum := rh.Sum(nil)
			for lane := range acc {
				acc[lane] += binary.LittleEndian.Uint64(sum[lane*8:])
			}
		}
		w.u64(uint64(len(rows)))
		for _, lane := range acc {
			w.u64(lane)
		}
	default:
		w.tag("unknown-kind")
		w.u8(byte(obj.Kind()))
	}
}

// val hashes a slot value; references recurse within this walk's
// discovery numbering.
func (w *walker) val(v store.Val) {
	w.scalar(v)
	if v.Kind == store.ValRef {
		w.walk(v.Ref)
	}
}

// rowVal hashes a relation-row value. A reference hashes as the
// independent digest of its target so the row's hash does not depend on
// where in the scan order the row sits.
func (w *walker) rowVal(v store.Val) {
	w.scalar(v)
	if v.Kind == store.ValRef {
		w.str(w.d.subgraph(v.Ref))
	}
}

func (w *walker) scalar(v store.Val) {
	w.u8(byte(v.Kind))
	switch v.Kind {
	case store.ValInt:
		w.u64(uint64(v.Int))
	case store.ValReal:
		w.u64(math.Float64bits(v.Real))
	case store.ValBool:
		if v.Bool {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case store.ValChar:
		w.u8(v.Ch)
	case store.ValStr:
		w.str(v.Str)
	}
}
