// Package store implements the persistent object store of the Tycoon
// system. TML terms reference complex values — tables, indexes, modules,
// ADT values, closures, compiled code — through object identifiers (OIDs),
// and the reflective optimizer of paper §4.1 reads those objects back at
// runtime to establish R-value bindings.
//
// The store is log-structured: every committed object state is appended to
// a single file as a self-delimiting record, and Open replays the log with
// last-writer-wins semantics. Since format v2 every record carries a
// CRC32C checksum and every commit is framed by a batch trailer, so replay
// rolls back half-written commits, detects bit rot as a typed ErrCorrupt
// (rather than decoding garbage), and a salvage mode recovers the longest
// valid prefix of a damaged log (see log.go). An empty path yields a
// purely in-memory store with identical semantics minus durability.
//
// All file access goes through an iofault.FS, so the crash-simulation
// harness can run the store over a filesystem that tears writes, fails
// syncs and crashes at arbitrary points.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"tycoon/internal/iofault"
)

// OID identifies an object in the store. OID 0 is the nil reference and is
// never allocated.
type OID uint64

// Nil is the null object identifier.
const Nil OID = 0

// Kind discriminates the persistent object kinds.
type Kind uint8

// The object kinds.
const (
	KindTuple     Kind = iota + 1 // immutable record of slots
	KindArray                     // mutable array of slots
	KindByteArray                 // mutable byte array
	KindModule                    // named module with exported bindings
	KindClosure                   // procedure closure: code + R-value bindings
	KindRelation                  // bulk data: schema + rows + index specs
	KindBlob                      // uninterpreted bytes (PTML, TAM code)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTuple:
		return "tuple"
	case KindArray:
		return "array"
	case KindByteArray:
		return "bytearray"
	case KindModule:
		return "module"
	case KindClosure:
		return "closure"
	case KindRelation:
		return "relation"
	case KindBlob:
		return "blob"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ValKind discriminates slot values.
type ValKind uint8

// The slot value kinds.
const (
	ValNil ValKind = iota
	ValInt
	ValReal
	ValBool
	ValChar
	ValStr
	ValRef // OID reference
)

// Val is a scalar or reference held in an object slot, a relation field,
// a module export or a closure binding.
type Val struct {
	Kind ValKind
	Int  int64
	Real float64
	Bool bool
	Ch   byte
	Str  string
	Ref  OID
}

// Convenience constructors for slot values.

// IntVal returns an integer slot value.
func IntVal(v int64) Val { return Val{Kind: ValInt, Int: v} }

// RealVal returns a real slot value.
func RealVal(v float64) Val { return Val{Kind: ValReal, Real: v} }

// BoolVal returns a boolean slot value.
func BoolVal(v bool) Val { return Val{Kind: ValBool, Bool: v} }

// CharVal returns a character slot value.
func CharVal(v byte) Val { return Val{Kind: ValChar, Ch: v} }

// StrVal returns a string slot value.
func StrVal(v string) Val { return Val{Kind: ValStr, Str: v} }

// RefVal returns an OID reference slot value.
func RefVal(v OID) Val { return Val{Kind: ValRef, Ref: v} }

// NilVal returns the nil slot value.
func NilVal() Val { return Val{Kind: ValNil} }

// Eq reports deep equality of two slot values.
func (v Val) Eq(w Val) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case ValNil:
		return true
	case ValInt:
		return v.Int == w.Int
	case ValReal:
		return v.Real == w.Real
	case ValBool:
		return v.Bool == w.Bool
	case ValChar:
		return v.Ch == w.Ch
	case ValStr:
		return v.Str == w.Str
	case ValRef:
		return v.Ref == w.Ref
	}
	return false
}

// String renders the slot value for diagnostics.
func (v Val) String() string {
	switch v.Kind {
	case ValNil:
		return "nil"
	case ValInt:
		return fmt.Sprintf("%d", v.Int)
	case ValReal:
		return fmt.Sprintf("%g", v.Real)
	case ValBool:
		return fmt.Sprintf("%t", v.Bool)
	case ValChar:
		return fmt.Sprintf("%q", v.Ch)
	case ValStr:
		return fmt.Sprintf("%q", v.Str)
	case ValRef:
		return fmt.Sprintf("<oid 0x%08x>", uint64(v.Ref))
	}
	return "?"
}

// Object is implemented by every persistent object kind.
type Object interface {
	Kind() Kind
	// clone returns a deep copy: a transaction's private copy of a
	// mutable object, isolated from the committed original.
	clone() Object
}

// Tuple is an immutable record of slots; the front end lowers TL tuple
// values to it.
type Tuple struct {
	Fields []Val
}

// Kind reports KindTuple.
func (*Tuple) Kind() Kind { return KindTuple }

func (t *Tuple) clone() Object {
	return &Tuple{Fields: append([]Val(nil), t.Fields...)}
}

// Array is a mutable array of slots (the array primitive of Fig. 2).
type Array struct {
	Elems []Val
}

// Kind reports KindArray.
func (*Array) Kind() Kind { return KindArray }

func (a *Array) clone() Object {
	return &Array{Elems: append([]Val(nil), a.Elems...)}
}

// ByteArray is a mutable byte array (the new primitive of Fig. 2).
type ByteArray struct {
	Bytes []byte
}

// Kind reports KindByteArray.
func (*ByteArray) Kind() Kind { return KindByteArray }

func (b *ByteArray) clone() Object {
	return &ByteArray{Bytes: append([]byte(nil), b.Bytes...)}
}

// Export is one exported binding of a module.
type Export struct {
	Name string
	Val  Val
}

// Module is a named module value: Tycoon has first-class modules, and
// linking binds module OIDs into the closure records of importing code.
type Module struct {
	Name    string
	Exports []Export
}

// Kind reports KindModule.
func (*Module) Kind() Kind { return KindModule }

func (m *Module) clone() Object {
	return &Module{Name: m.Name, Exports: append([]Export(nil), m.Exports...)}
}

// Lookup finds an exported binding by name.
func (m *Module) Lookup(name string) (Val, bool) {
	for _, e := range m.Exports {
		if e.Name == name {
			return e.Val, true
		}
	}
	return Val{}, false
}

// Binding is one R-value binding of a closure record: the source-level
// name of a free variable and the value it was linked to. The reflective
// optimizer re-establishes these bindings in TML (paper §4.1).
type Binding struct {
	Name string
	Val  Val
}

// Closure is the persistent representation of a compiled procedure: the
// executable code (a Blob of TAM code), the attached persistent TML tree
// (a Blob of PTML; paper Fig. 3), the R-value bindings of its free
// variables, and the derived optimizer attributes (costs, savings, …;
// paper §4.1) the linker records when it installs the closure.
type Closure struct {
	Name     string
	Code     OID // TAM code blob
	PTML     OID // persistent TML blob; Nil if stripped
	Bindings []Binding
	// Cost and Savings are the derived optimizer attributes.
	Cost    int32
	Savings int32
}

// Kind reports KindClosure.
func (*Closure) Kind() Kind { return KindClosure }

// Binding finds the R-value bound to a free variable by name.
func (c *Closure) Binding(name string) (Val, bool) {
	for _, b := range c.Bindings {
		if b.Name == name {
			return b.Val, true
		}
	}
	return Val{}, false
}

func (c *Closure) clone() Object {
	d := *c
	d.Bindings = append([]Binding(nil), c.Bindings...)
	return &d
}

// ColType is the type of a relation column.
type ColType uint8

// The column types.
const (
	ColInt ColType = iota + 1
	ColReal
	ColBool
	ColStr
)

// Column describes one relation attribute.
type Column struct {
	Name string
	Type ColType
}

// IndexSpec declares a hash index on one column. Only the declaration
// persists, which is exactly the runtime binding knowledge the query
// optimizer consults (paper §4.2); the index itself is built lazily in
// the relation's derived cache (see IndexLookup).
type IndexSpec struct {
	Column int
}

// Relation is a bulk data object: schema, rows and index declarations.
//
// Relations are the one object kind that is mutated in place under
// concurrent access: the server's sessions all scan and append rows of
// the same live object. The row *data* is append-only (a row slice is
// never written after publication), so the only shared-mutable state is
// the Rows slice header — rowsMu guards it. Shared readers must take
// RowsSnapshot (a header copy; the rows it covers are immutable) and
// shared writers AppendRow; direct access to Rows is reserved for
// construction, decoding and single-goroutine tools.
type Relation struct {
	Name    string
	Schema  []Column
	Rows    [][]Val
	Indexes []IndexSpec

	rowsMu sync.RWMutex

	// canon links a snapshot/transaction view back to the live relation
	// it was derived from, and canonRows is the committed row horizon the
	// view was cut at. Both are nil/0 on live relations. A view reading no
	// further than canonRows uses canon's derived cache. See relView.
	canon     *Relation
	canonRows int

	// colMu guards cols, the lazily built derived cache over the
	// relation's immutable row prefix: column accumulators and declared
	// hash indexes. Clones and views start cold; clean views delegate to
	// canon's cache. See columnar.go.
	colMu sync.Mutex
	cols  *colCache
}

// Kind reports KindRelation.
func (*Relation) Kind() Kind { return KindRelation }

// RowsSnapshot returns the current rows for shared read access: a copy
// of the slice header taken under the row lock. A concurrent AppendRow
// may grow the relation past the snapshot, never mutate the rows the
// snapshot covers, so iterating the snapshot is race-free.
func (r *Relation) RowsSnapshot() [][]Val {
	r.rowsMu.RLock()
	rows := r.Rows
	r.rowsMu.RUnlock()
	return rows
}

// NumRows reports the current row count under the row lock.
func (r *Relation) NumRows() int {
	r.rowsMu.RLock()
	n := len(r.Rows)
	r.rowsMu.RUnlock()
	return n
}

// AppendRow appends one row under the row lock and returns its index.
// The row must not be mutated by the caller afterwards.
func (r *Relation) AppendRow(row []Val) int {
	r.rowsMu.Lock()
	idx := len(r.Rows)
	r.Rows = append(r.Rows, row)
	r.rowsMu.Unlock()
	return idx
}

// adoptRows makes rows, which extend r's rows, r's rows, capped at their
// length so an append through r never writes into the array the
// transaction that handed them over goes on appending to.
func (r *Relation) adoptRows(rows [][]Val) {
	r.rowsMu.Lock()
	r.Rows = rows[:len(rows):len(rows)]
	r.rowsMu.Unlock()
}

func (r *Relation) clone() Object {
	rows := r.RowsSnapshot()
	d := &Relation{
		Name:    r.Name,
		Schema:  append([]Column(nil), r.Schema...),
		Indexes: append([]IndexSpec(nil), r.Indexes...),
		Rows:    make([][]Val, len(rows)),
	}
	for i, row := range rows {
		d.Rows[i] = append([]Val(nil), row...)
	}
	return d
}

// ColIndex returns the position of the named column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Schema {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasIndexOn reports whether an index is declared on the given column.
func (r *Relation) HasIndexOn(col int) bool {
	for _, ix := range r.Indexes {
		if ix.Column == col {
			return true
		}
	}
	return false
}

// Blob is an uninterpreted byte sequence (PTML encodings, TAM code).
type Blob struct {
	Bytes []byte
}

// Kind reports KindBlob.
func (*Blob) Kind() Kind { return KindBlob }

func (b *Blob) clone() Object {
	return &Blob{Bytes: append([]byte(nil), b.Bytes...)}
}

// ErrNotFound is returned when an OID does not resolve.
var ErrNotFound = errors.New("store: object not found")

// View is the read surface shared by the store (its committed head
// state) and a Txn (its snapshot plus its own writes). Writes exist only
// on *Txn: every change to the store is a transaction, published whole
// by its Commit. The machine executes against a View; a stored array or
// relation can only be written when that View is a *Txn.
type View interface {
	Get(oid OID) (Object, error)
	MustGet(oid OID) Object
	Root(name string) (OID, bool)
}

var (
	_ View = (*Store)(nil)
	_ View = (*Txn)(nil)
)

// Store is a log-structured persistent object store. All methods are safe
// for concurrent use.
type Store struct {
	mu   sync.RWMutex
	fsys iofault.FS
	path string
	// fileMu serialises all log-file I/O (group-commit flushes, Compact's
	// rewrite, Close). file and version are written only at open time,
	// under fileMu+mu (Compact, Close), so reads under either lock are
	// consistent. Lock order: fileMu before mu before cm.mu.
	fileMu  sync.Mutex
	file    iofault.File
	version uint32 // on-disk log format version (v1 logs stay v1 until Compact)
	objects map[OID]Object
	// vers holds the version chain per OID for objects republished since
	// open (absent entries are base state, visible to every snapshot).
	// Chain prev pointers are immutable; heads swap and tails truncate
	// under mu. See mvcc.go.
	vers map[OID]*version
	// roots is copy-on-write: a commit that rebinds a root swaps in a
	// fresh map, so snapshots hold the captured map without copying it.
	roots map[string]OID
	next  OID
	// csn is the commit sequence number: every transactional commit that
	// writes advances it by one, and snapshots pin it.
	csn  uint64
	pins map[uint64]int // open-snapshot pin counts by CSN
	// snaps counts open snapshots (pins collapses same-CSN snapshots).
	snaps int
	cm    committer
	// MVCC outcome counters (see TxStats).
	txCommitted uint64
	txAborted   uint64
	txConflicts uint64
	// epoch counts binding-relevant writes (Txn.Update, Txn.SetRoot). The
	// compilation pipeline's optimized-code cache tags every entry with
	// the epoch it was computed at and discards it once the epoch has
	// advanced, so optimized code can never survive a change to the
	// R-value bindings it folded in.
	epoch uint64
	// rootHook, when set, observes committed root rebindings (see
	// SetRootHook). Called under mu, so invocations arrive in CSN order
	// and one transactional commit is one call.
	rootHook func(csn uint64, changes []RootChange)
}

// RootChange is one committed root rebinding as observed by the hook
// registered with SetRootHook: the root name and the OID it now binds.
type RootChange struct {
	Root string
	OID  OID
}

// SetRootHook registers fn to observe every published root rebinding:
// one call per publication event, carrying the event's CSN and all of
// its root changes (a transactional commit that rebinds several roots
// is one call — observers never see a torn commit). Calls are made
// under the store lock, so they arrive strictly in CSN order; fn must
// be fast and must never call back into the store. Pass nil to remove
// the hook. The server's WATCH hub is the intended subscriber.
func (s *Store) SetRootHook(fn func(csn uint64, changes []RootChange)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rootHook = fn
}

// CSN reports the current commit sequence number: the CSN of the most
// recent publication event. WATCH subscriptions use it as the resume
// horizon for a fresh subscription.
func (s *Store) CSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.csn
}

// Open opens (or creates) the store file at path, replaying its log.
// An empty path creates an in-memory store.
func Open(path string) (*Store, error) { return OpenFS(iofault.OS(), path) }

// OpenFS is Open over an explicit filesystem; the crash-simulation
// harness passes an iofault.MemFS.
func OpenFS(fsys iofault.FS, path string) (*Store, error) {
	s := &Store{
		fsys:    fsys,
		path:    path,
		version: currentVersion,
		objects: make(map[OID]Object),
		vers:    make(map[OID]*version),
		roots:   make(map[string]OID),
		pins:    make(map[uint64]int),
		next:    1,
	}
	s.cm.init()
	if path == "" {
		return s, nil
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s.file = f
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	if info.Size() == 0 {
		// A freshly created log is not durable until the directory entry
		// is: fsync the directory so the file survives a power loss.
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: sync dir for %s: %w", path, err)
		}
	}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Close flushes the group committer's backlog (records of commits whose
// flush failed) and releases the store file. It writes nothing else: a
// transaction still open is dropped, exactly as if it had aborted. The
// file is released even when the flush fails; the flush error is
// reported first.
func (s *Store) Close() error {
	err := s.Flush()
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
		s.file = nil
	}
	return err
}

// Get resolves an OID to its committed head state. The returned object
// is shared with every reader and must not be mutated; a writer reads it
// through a Txn, which hands out private copies of the mutable kinds.
func (s *Store) Get(oid OID) (Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[oid]
	if !ok {
		return nil, fmt.Errorf("%w: oid 0x%x", ErrNotFound, uint64(oid))
	}
	return obj, nil
}

// MustGet is Get for internal callers holding OIDs they allocated.
func (s *Store) MustGet(oid OID) Object {
	obj, err := s.Get(oid)
	if err != nil {
		panic(err)
	}
	return obj
}

// BindingEpoch reports the store's binding epoch: a counter advanced, at
// commit, by every transactional write that can change the R-value
// bindings reachable from compiled code (Txn.Update and Txn.SetRoot).
// In-place mutation of mutable objects marked with Txn.MarkDirty — array
// stores, relation row inserts — does not advance it, because mutable
// objects are never folded into optimized code (paper §4.1 folds
// immutable modules and tuples only), so such changes cannot invalidate
// cached optimization results.
func (s *Store) BindingEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Root resolves a persistent root name.
func (s *Store) Root(name string) (OID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	oid, ok := s.roots[name]
	return oid, ok
}

// Roots lists the root names, sorted.
func (s *Store) Roots() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.roots))
	for n := range s.roots {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of live objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// OIDs returns all live OIDs in ascending order (for tml dump).
func (s *Store) OIDs() []OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	oids := make([]OID, 0, len(s.objects))
	for oid := range s.objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids
}
