// Package prim implements the registry of TML primitive procedures
// (paper §2.3). Primitives are not part of the intermediate language
// itself; they carry, per paper §2.3, (1) a target code generation hook,
// (2) a meta-evaluation (fold) function used by the optimizer for constant
// folding and dead code elimination, (3) a runtime cost estimate in
// abstract machine instructions used by the inlining cost model, and
// (4) a collection of optimizer attributes (commutativity, side-effect
// class, rule-enable flags) with worst-case defaults.
//
// The registry is open: specialised source languages (for example, bulk
// data languages) register additional primitives; package relalg registers
// the query primitives select, project, join, exists and empty this way.
package prim

import (
	"fmt"
	"sort"
	"sync"

	"tycoon/internal/tml"
)

// Effect classifies the store behaviour of a primitive, after the side
// effect classes of Gifford & Lucassen cited in paper §2.3.
type Effect uint8

// Effect classes, ordered by strength.
const (
	// Pure primitives neither read nor write the store; calls with equal
	// arguments may be folded, reordered and eliminated freely.
	Pure Effect = iota
	// Reader primitives read but do not write the store (array access,
	// query evaluation over relations).
	Reader
	// Writer primitives may update the store (array update, relation
	// update); they are never eliminated or reordered.
	Writer
	// Control primitives transfer control in ways the optimizer must not
	// disturb (raise, pushHandler, popHandler, ccall, Y).
	Control
)

// String returns the effect class name.
func (e Effect) String() string {
	switch e {
	case Pure:
		return "pure"
	case Reader:
		return "reader"
	case Writer:
		return "writer"
	case Control:
		return "control"
	}
	return fmt.Sprintf("effect(%d)", uint8(e))
}

// FoldFunc is the meta-evaluation function of a primitive (paper §2.3
// item 2). Given the full argument list of an application of the
// primitive, it either returns a simpler replacement application (for
// example (+ 1 2 ce cc) → (cc 3)) and true, or nil and false when no
// useful meta-evaluation is possible.
type FoldFunc func(args []tml.Value) (*tml.App, bool)

// Desc describes one primitive procedure.
type Desc struct {
	// Name is the identifier used in Prim nodes, e.g. "+", "[]", "Y".
	Name string
	// NVals is the number of value arguments; -1 means variadic.
	NVals int
	// NConts is the number of trailing continuation arguments; -1 means
	// variadic (the == case primitive takes n or n+1 branches).
	NConts int
	// Cost estimates the expense of one call in idealized abstract machine
	// instructions (paper §2.3 item 3); the expansion pass weighs inlining
	// savings against it.
	Cost int
	// Effect is the primitive's side-effect class (paper §2.3 item 4).
	// The zero value would be Pure; registration applies the worst-case
	// default (Control) when a descriptor leaves Effect unset and sets
	// EffectKnown false.
	Effect Effect
	// Commutative reports that the first two value arguments may be
	// exchanged (enables normalisation before folding).
	Commutative bool
	// Fold is the meta-evaluation function; nil means never foldable.
	Fold FoldFunc
	// NoFold disables the fold rule for this primitive even if Fold is
	// set; it is one of the per-primitive optimizer enable flags.
	NoFold bool
	// CapturesConts reports that the executor may retain one of its
	// continuation arguments beyond the call (pushHandler installs its
	// handler continuation on the dynamic handler stack). The TAM uses it
	// to decide when join-point continuations must be reified as heap
	// values and when a frame may be recycled after its block exits.
	CapturesConts bool
}

// Signature returns the calling convention in the form the well-formedness
// checker consumes.
func (d *Desc) Signature() tml.Signature {
	return tml.Signature{NVals: d.NVals, NConts: d.NConts}
}

// Registry maps primitive names to descriptors. A Registry is safe for
// concurrent lookup after registration has finished; registration itself
// is serialised by an internal mutex so that package init order does not
// matter.
type Registry struct {
	mu    sync.RWMutex
	prims map[string]*Desc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{prims: make(map[string]*Desc)}
}

// Register adds a descriptor; it panics on duplicate names, which would
// silently change calling conventions.
func (r *Registry) Register(d *Desc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.prims[d.Name]; dup {
		panic(fmt.Sprintf("prim: duplicate registration of %q", d.Name))
	}
	r.prims[d.Name] = d
}

// Lookup returns the descriptor for name.
func (r *Registry) Lookup(name string) (*Desc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.prims[name]
	return d, ok
}

// IsPrim reports whether name is registered; its signature matches the
// parser's ParseOpts.IsPrim hook.
func (r *Registry) IsPrim(name string) bool {
	_, ok := r.Lookup(name)
	return ok
}

// Signatures adapts the registry to the well-formedness checker.
func (r *Registry) Signatures(name string) (tml.Signature, bool) {
	d, ok := r.Lookup(name)
	if !ok {
		return tml.Signature{}, false
	}
	return d.Signature(), true
}

// Names returns all registered primitive names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.prims))
	for n := range r.prims {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default is the registry holding the standard primitive set of Fig. 2
// plus the real-arithmetic, string, boolean and I/O primitives the TL
// standard library compiles to. Query primitives are added by package
// relalg's Register call.
var Default = NewRegistry()

// Lookup resolves name in the default registry.
func Lookup(name string) (*Desc, bool) { return Default.Lookup(name) }

// IsPrim reports whether name is in the default registry.
func IsPrim(name string) bool { return Default.IsPrim(name) }

// Signatures resolves calling conventions in the default registry.
func Signatures(name string) (tml.Signature, bool) { return Default.Signatures(name) }
