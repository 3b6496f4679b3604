// Package linker installs compiled TL modules into the persistent store:
// for every function it generates TAM code, attaches the compact PTML
// tree, resolves the R-value binding table, and records derived optimizer
// attributes — the compiler back end of paper Fig. 3. Static (local)
// optimization, code generation and the persistent encodings all run as
// one job through the shared compilation pipeline (package pipeline), so
// installation is instrumented pass-by-pass exactly like reflective
// re-optimization.
package linker

import (
	"fmt"

	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tml"
)

// Config configures a Linker.
type Config struct {
	// LocalOpt runs the TML optimizer on each function in isolation —
	// the compile-time regime of experiment E1; without it code installs
	// as generated.
	LocalOpt bool
	// StripPTML omits the persistent TML tree from installed closures;
	// the paper's §6 code-size comparison (E3) measures exactly this
	// difference. Stripped closures cannot be dynamically re-optimized.
	StripPTML bool
}

// Linker installs modules, each into the transaction it is handed: the
// transaction's commit publishes the install, and a caller whose install
// failed aborts it.
type Linker struct {
	cfg  Config
	pipe *pipeline.Pipeline
}

// New returns a linker.
func New(cfg Config) *Linker {
	// Installation jobs carry no cache key (every install persists fresh
	// blobs), so the pipeline is used purely as the instrumented pass
	// sequencer here, over no store; caching serves the reflective path.
	return &Linker{cfg: cfg, pipe: pipeline.New(nil, pipeline.Config{})}
}

// ModuleRoot is the store-root prefix for installed modules.
const ModuleRoot = "module:"

// RelRoot is the store-root prefix relation declarations bind against.
const RelRoot = "rel:"

// Module resolves an installed module through its root in v: the
// module: roots are the one module table.
func Module(v store.View, name string) (store.OID, bool) {
	return v.Root(ModuleRoot + name)
}

// Function resolves module.fn in v to the OID of the exported function's
// persistent closure. A module or export v does not hold is a
// *NotFoundError.
func Function(v store.View, module, fn string) (store.OID, error) {
	modOID, ok := Module(v, module)
	if !ok {
		return store.Nil, &NotFoundError{Module: module}
	}
	obj, err := v.Get(modOID)
	if err != nil {
		return store.Nil, err
	}
	mod, ok := obj.(*store.Module)
	if !ok {
		return store.Nil, fmt.Errorf("root %s%s holds a %s, not a module", ModuleRoot, module, obj.Kind())
	}
	val, ok := mod.Lookup(fn)
	if !ok || val.Kind != store.ValRef {
		return store.Nil, &NotFoundError{Module: module, Fn: fn}
	}
	return val.Ref, nil
}

// NotFoundError reports a module (Fn empty), an exported function or a
// root (Root set) that a store does not hold.
type NotFoundError struct{ Module, Fn, Root string }

func (e *NotFoundError) Error() string {
	if e.Root != "" {
		return "no root " + e.Root
	}
	if e.Fn == "" {
		return "module " + e.Module + " not installed"
	}
	return e.Module + "." + e.Fn + " is not an exported function"
}

// InstallModuleOn installs one compiled module into tx and returns the
// module object's OID. Imported modules and declared relations must be
// visible to tx. The module's constants run on m, over tx, under m's
// step budget and deadline: a core machine, so a constant may query a
// relation, print, and is bounded like any other run.
func (l *Linker) InstallModuleOn(m *machine.Machine, tx *store.Txn, unit *tl.ModuleUnit) (store.OID, error) {
	// Declared relations must resolve (their bindings are baked into the
	// closure records).
	for _, rd := range unit.Rels {
		if _, ok := tx.Root(RelRoot + rd.Name); !ok {
			return store.Nil, fmt.Errorf("linker: module %s: relation %s not present in store (create it first)", unit.Name, rd.Name)
		}
	}

	// Evaluate module-level constants first: functions may reference
	// them, while the checker forbids constants from calling functions.
	declVals := make(map[string]store.Val, len(unit.Funcs)+len(unit.Consts))
	for _, cu := range unit.Consts {
		v, err := evalConst(m, tx, cu, declVals)
		if err != nil {
			return store.Nil, fmt.Errorf("linker: constant %s.%s: %w", unit.Name, cu.Name, err)
		}
		declVals[cu.Name] = v
	}

	// Pre-allocate closure OIDs so sibling bindings can be resolved
	// regardless of declaration order (mutual recursion).
	declOIDs := make(map[string]store.OID, len(unit.Funcs))
	for _, fu := range unit.Funcs {
		declOIDs[fu.Name] = tx.Alloc(&store.Closure{Name: unit.Name + "." + fu.Name})
		declVals[fu.Name] = store.RefVal(declOIDs[fu.Name])
	}

	// Install function bodies.
	for _, fu := range unit.Funcs {
		clo, err := l.buildClosure(tx, unit.Name+"."+fu.Name, fu.Abs, fu.Free, declVals)
		if err != nil {
			return store.Nil, fmt.Errorf("linker: %s.%s: %w", unit.Name, fu.Name, err)
		}
		if err := tx.Update(declOIDs[fu.Name], clo); err != nil {
			return store.Nil, err
		}
	}

	// Build the module object with exports in signature order — the
	// export indexes compiled against must match.
	mod := &store.Module{Name: unit.Name}
	for _, member := range unit.Sig.Members {
		v, ok := declVals[member.Name]
		if !ok {
			return store.Nil, fmt.Errorf("linker: module %s: export %s has no value", unit.Name, member.Name)
		}
		mod.Exports = append(mod.Exports, store.Export{Name: member.Name, Val: v})
	}
	oid := tx.Alloc(mod)
	tx.SetRoot(ModuleRoot+unit.Name, oid)
	return oid, nil
}

// buildClosure optimizes, compiles and persists one function by running
// it as a job through the compilation pipeline: optional local
// optimization (LocalOpt), TAM code generation, and both persistent
// encodings in one instrumented sequence, into tx.
func (l *Linker) buildClosure(tx *store.Txn, name string, abs *tml.Abs, free []*tl.FreeRef, declVals map[string]store.Val) (*store.Closure, error) {
	res, err := l.pipe.Run(pipeline.Job{
		Name: name,
		Source: func(gen *tml.VarGen) (*tml.Abs, error) {
			gen.Skip(tml.MaxVarID(abs))
			return abs, nil
		},
		SkipOptimize: !l.cfg.LocalOpt,
		Codegen:      true,
		EncodeTAM:    true,
		EncodePTML:   !l.cfg.StripPTML,
	})
	if err != nil {
		return nil, err
	}
	codeOID := tx.Alloc(&store.Blob{Bytes: res.Code})

	ptmlOID := store.Nil
	if !l.cfg.StripPTML {
		ptmlOID = tx.Alloc(&store.Blob{Bytes: res.PTML})
	}

	bindings, err := resolveBindings(tx, res.Prog.EntryBlock().FreeNames, free, declVals)
	if err != nil {
		return nil, err
	}
	clo := &store.Closure{
		Name:     name,
		Code:     codeOID,
		PTML:     ptmlOID,
		Bindings: bindings,
	}
	if res.Opt != nil {
		// Derived attributes cached for repeated optimization (paper §4.1).
		clo.Cost = int32(res.Opt.CostAfter)
		clo.Savings = int32(res.Opt.CostBefore - res.Opt.CostAfter)
	}
	return clo, nil
}

// resolveBindings produces the closure record's [identifier, value] pairs
// for the free variables the compiled code actually captures.
func resolveBindings(view store.View, freeNames []string, free []*tl.FreeRef, declVals map[string]store.Val) ([]store.Binding, error) {
	byName := make(map[string]*tl.FreeRef, len(free))
	for _, fr := range free {
		byName[fr.Var.String()] = fr
	}
	var bindings []store.Binding
	for _, name := range freeNames {
		fr, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("no free-variable metadata for %s", name)
		}
		val, err := bindingValue(view, fr, declVals)
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, store.Binding{Name: name, Val: val})
	}
	return bindings, nil
}

func bindingValue(view store.View, fr *tl.FreeRef, declVals map[string]store.Val) (store.Val, error) {
	switch fr.Kind {
	case tl.FreeModule:
		oid, ok := Module(view, fr.Name)
		if !ok {
			return store.Val{}, fmt.Errorf("imported module %s not installed", fr.Name)
		}
		return store.RefVal(oid), nil
	case tl.FreeDecl:
		v, ok := declVals[fr.Name]
		if !ok {
			return store.Val{}, fmt.Errorf("sibling declaration %s has no value", fr.Name)
		}
		return v, nil
	case tl.FreeRel:
		oid, ok := view.Root(RelRoot + fr.Name)
		if !ok {
			return store.Val{}, fmt.Errorf("relation %s not present in store", fr.Name)
		}
		return store.RefVal(oid), nil
	default:
		return store.Val{}, fmt.Errorf("unknown free-variable kind %d", fr.Kind)
	}
}

// evalConst compiles a constant initialiser and runs it on m.
func evalConst(m *machine.Machine, view store.View, cu *tl.ConstUnit, declVals map[string]store.Val) (store.Val, error) {
	vars := make([]*tml.Var, len(cu.Free))
	vals := make([]machine.Value, len(cu.Free))
	for i, fr := range cu.Free {
		sv, err := bindingValue(view, fr, declVals)
		if err != nil {
			return store.Val{}, err
		}
		vars[i], vals[i] = fr.Var, machine.FromStoreVal(sv)
	}
	clo, err := machine.CompileClosure(cu.Abs, cu.Name, vars, vals)
	if err != nil {
		return store.Val{}, err
	}
	v, err := m.Apply(clo, nil)
	if err != nil {
		return store.Val{}, err
	}
	sv, err := machine.ToStoreVal(v)
	if err != nil {
		return store.Val{}, fmt.Errorf("constant value %s cannot be persisted: %w", v.Show(), err)
	}
	return sv, nil
}
