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
	"tycoon/internal/prim"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tml"
)

// OptLevel selects the static optimization applied at installation.
type OptLevel uint8

// The optimization levels.
const (
	// OptNone installs code as generated.
	OptNone OptLevel = iota
	// OptLocal runs the TML optimizer on each function in isolation —
	// the compile-time regime of experiment E1.
	OptLocal
)

// Config configures a Linker.
type Config struct {
	// Reg is the primitive registry; nil means prim.Default.
	Reg *prim.Registry
	// Level selects static optimization (E1's regimes).
	Level OptLevel
	// StripPTML omits the persistent TML tree from installed closures;
	// the paper's §6 code-size comparison (E3) measures exactly this
	// difference. Stripped closures cannot be dynamically re-optimized.
	StripPTML bool
}

// Linker installs modules into one store.
type Linker struct {
	st   *store.Store
	cfg  Config
	pipe *pipeline.Pipeline
}

// New returns a linker over st.
func New(st *store.Store, cfg Config) *Linker {
	if cfg.Reg == nil {
		cfg.Reg = prim.Default
	}
	// Installation jobs carry no cache key (every install persists fresh
	// blobs), so the pipeline is used purely as the instrumented pass
	// sequencer here; caching serves the reflective path.
	pipe := pipeline.New(st, pipeline.Config{Reg: cfg.Reg, CacheEntries: -1})
	return &Linker{st: st, cfg: cfg, pipe: pipe}
}

// ModuleRoot is the store-root prefix for installed modules.
const ModuleRoot = "module:"

// RelRoot is the store-root prefix relation declarations bind against.
const RelRoot = "rel:"

// InstallModule installs one compiled module and returns the module
// object's OID. Imported modules and declared relations must already be
// present in the store.
func (l *Linker) InstallModule(unit *tl.ModuleUnit) (store.OID, error) {
	// Declared relations must resolve (their bindings are baked into the
	// closure records).
	for _, rd := range unit.Rels {
		if _, ok := l.st.Root(RelRoot + rd.Name); !ok {
			return store.Nil, fmt.Errorf("linker: module %s: relation %s not present in store (create it first)", unit.Name, rd.Name)
		}
	}

	// Pre-allocate closure OIDs so sibling bindings can be resolved
	// regardless of declaration order (mutual recursion).
	declOIDs := make(map[string]store.OID, len(unit.Funcs))
	for _, fu := range unit.Funcs {
		declOIDs[fu.Name] = l.st.Alloc(&store.Closure{Name: unit.Name + "." + fu.Name})
	}

	declVals := make(map[string]store.Val, len(unit.Funcs)+len(unit.Consts))
	for name, oid := range declOIDs {
		declVals[name] = store.RefVal(oid)
	}

	// Evaluate module-level constants first: functions may reference
	// them, while the checker forbids constants from calling functions.
	if len(unit.Consts) > 0 {
		m := machine.New(l.st)
		for _, cu := range unit.Consts {
			v, err := l.evalConst(m, cu, declVals)
			if err != nil {
				return store.Nil, fmt.Errorf("linker: constant %s.%s: %w", unit.Name, cu.Name, err)
			}
			declVals[cu.Name] = v
		}
	}

	// Install function bodies.
	for _, fu := range unit.Funcs {
		clo, err := l.buildClosure(unit.Name+"."+fu.Name, fu.Abs, fu.Free, declVals)
		if err != nil {
			return store.Nil, fmt.Errorf("linker: %s.%s: %w", unit.Name, fu.Name, err)
		}
		if err := l.st.Update(declOIDs[fu.Name], clo); err != nil {
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
	oid := l.st.Alloc(mod)
	l.st.SetRoot(ModuleRoot+unit.Name, oid)
	return oid, nil
}

// buildClosure optimizes, compiles and persists one function by running
// it as a job through the compilation pipeline: optional local
// optimization (OptLocal), TAM code generation, and both persistent
// encodings in one instrumented sequence.
func (l *Linker) buildClosure(name string, abs *tml.Abs, free []*tl.FreeRef, declVals map[string]store.Val) (*store.Closure, error) {
	res, err := l.pipe.Run(pipeline.Job{
		Name: name,
		Source: func(gen *tml.VarGen) (*tml.Abs, error) {
			gen.Skip(tml.MaxVarID(abs))
			return abs, nil
		},
		SkipOptimize: l.cfg.Level == OptNone,
		Codegen:      true,
		EncodeTAM:    true,
		EncodePTML:   !l.cfg.StripPTML,
	})
	if err != nil {
		return nil, err
	}
	codeOID := l.st.Alloc(&store.Blob{Bytes: res.Code})

	ptmlOID := store.Nil
	if !l.cfg.StripPTML {
		ptmlOID = l.st.Alloc(&store.Blob{Bytes: res.PTML})
	}

	bindings, err := l.resolveBindings(res.Prog.EntryBlock().FreeNames, free, declVals)
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
func (l *Linker) resolveBindings(freeNames []string, free []*tl.FreeRef, declVals map[string]store.Val) ([]store.Binding, error) {
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
		val, err := l.bindingValue(fr, declVals)
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, store.Binding{Name: name, Val: val})
	}
	return bindings, nil
}

func (l *Linker) bindingValue(fr *tl.FreeRef, declVals map[string]store.Val) (store.Val, error) {
	switch fr.Kind {
	case tl.FreeModule:
		oid, ok := l.st.Root(ModuleRoot + fr.Name)
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
		oid, ok := l.st.Root(RelRoot + fr.Name)
		if !ok {
			return store.Val{}, fmt.Errorf("relation %s not present in store", fr.Name)
		}
		return store.RefVal(oid), nil
	default:
		return store.Val{}, fmt.Errorf("unknown free-variable kind %d", fr.Kind)
	}
}

// evalConst runs a constant initialiser under the installation machine.
func (l *Linker) evalConst(m *machine.Machine, cu *tl.ConstUnit, declVals map[string]store.Val) (store.Val, error) {
	env := (*machine.Env)(nil)
	if len(cu.Free) > 0 {
		vars := make([]*tml.Var, len(cu.Free))
		vals := make([]machine.Value, len(cu.Free))
		for i, fr := range cu.Free {
			sv, err := l.bindingValue(fr, declVals)
			if err != nil {
				return store.Val{}, err
			}
			vars[i] = fr.Var
			vals[i] = machine.FromStoreVal(sv)
		}
		env = env.Extend(vars, vals)
	}
	clo := &machine.Closure{Abs: cu.Abs, Env: env, Name: cu.Name}
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
