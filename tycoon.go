// Package tycoon is the public facade of this reproduction of
// Gawecki & Matthes, "Exploiting Persistent Intermediate Code
// Representations in Open Database Environments" (EDBT 1996): the Tycoon
// system built around TML, a persistent continuation-passing-style
// intermediate code representation shared by programs and queries.
//
// A System bundles the persistent object store, the TL compiler, the
// module linker (which attaches PTML — the compact persistent TML
// encoding — to every installed function), the execution machine with
// the relational substrate, and the reflective runtime optimizer that
// re-optimizes functions across module abstraction barriers (paper §4.1).
//
// Quick start:
//
//	sys, _ := tycoon.Open("")            // in-memory; a path persists
//	defer sys.Close()
//	sys.Install(`module m export f
//	             let f(n : Int) : Int = n * n end`)
//	v, _ := sys.Call("m", "f", tycoon.Int(9)) // Int(81)
//	sys.OptimizeFunction("m", "f")            // reflect.optimize (§4.1)
package tycoon

import (
	"fmt"
	"io"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/reflectopt"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tyclib"
)

// Value is a runtime value of the Tycoon machine.
type Value = machine.Value

// Scalar constructors re-exported for callers of Call.
type (
	// Int is a 64-bit integer value.
	Int = machine.Int
	// Real is a floating point value.
	Real = machine.Real
	// Bool is a boolean value.
	Bool = machine.Bool
	// Str is a string value.
	Str = machine.Str
	// Char is a character value.
	Char = machine.Char
)

// OID identifies a persistent object.
type OID = store.OID

// Column describes one relation attribute.
type Column = store.Column

// Column types for CreateRelation.
const (
	ColInt  = store.ColInt
	ColReal = store.ColReal
	ColBool = store.ColBool
	ColStr  = store.ColStr
)

// Val is a relation field value.
type Val = store.Val

// Field constructors for InsertRow.
var (
	// IntVal builds an integer field.
	IntVal = store.IntVal
	// RealVal builds a real field.
	RealVal = store.RealVal
	// BoolVal builds a boolean field.
	BoolVal = store.BoolVal
	// StrVal builds a string field.
	StrVal = store.StrVal
)

// Config tunes Open.
type Config struct {
	// LocalOpt applies compile-time (local) optimization at installation.
	LocalOpt bool
	// DirectPrims compiles scalar operations straight to primitives
	// instead of through the dynamically bound library modules — the
	// ablation of the paper's compilation strategy.
	DirectPrims bool
	// StripPTML installs code without the persistent TML trees; halves
	// code size (paper §6) but disables reflective optimization.
	StripPTML bool
	// Out receives the output of TL's print; nil discards it.
	Out io.Writer
}

// System is an open Tycoon environment.
type System struct {
	// Store is the persistent object store.
	Store *store.Store
	// Machine executes compiled and interpreted code.
	Machine *machine.Machine
	// Compiler compiles TL modules (the standard library is preloaded).
	Compiler *tl.Compiler
	// Linker installs compiled modules into the store.
	Linker *linker.Linker
	// Rel is the relational substrate manager.
	Rel *relalg.Manager
	// Reflect is the runtime reflective optimizer.
	Reflect *reflectopt.Optimizer

	modules map[string]store.OID
}

// Open creates (or reopens) a Tycoon system at path; an empty path is an
// in-memory system. The TL standard library is compiled and installed.
func Open(path string, cfgs ...Config) (*System, error) {
	var cfg Config
	if len(cfgs) > 0 {
		cfg = cfgs[0]
	}
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	level := linker.OptNone
	if cfg.LocalOpt {
		level = linker.OptLocal
	}
	lk := linker.New(st, linker.Config{Level: level, StripPTML: cfg.StripPTML})
	comp, err := tyclib.Install(st, lk)
	if err != nil {
		st.Close()
		return nil, err
	}
	if cfg.DirectPrims {
		comp.Mode = tl.DirectPrims
	}
	m := machine.New(st)
	m.Out = cfg.Out
	mg := relalg.NewManager(st)
	mg.Register(m)
	sys := &System{
		Store:    st,
		Machine:  m,
		Compiler: comp,
		Linker:   lk,
		Rel:      mg,
		Reflect:  reflectopt.New(st, reflectopt.Options{}),
		modules:  make(map[string]store.OID),
	}
	// Recover module roots from a reopened store.
	for _, root := range st.Roots() {
		if len(root) > len(linker.ModuleRoot) && root[:len(linker.ModuleRoot)] == linker.ModuleRoot {
			if oid, ok := st.Root(root); ok {
				sys.modules[root[len(linker.ModuleRoot):]] = oid
			}
		}
	}
	return sys, nil
}

// Close commits and closes the store.
func (s *System) Close() error { return s.Store.Close() }

// Commit flushes pending store changes.
func (s *System) Commit() error { return s.Store.Commit() }

// Install compiles and installs a TL module, returning its OID.
func (s *System) Install(src string) (OID, error) {
	unit, err := s.Compiler.Compile(src)
	if err != nil {
		return store.Nil, err
	}
	oid, err := s.Linker.InstallModule(unit)
	if err != nil {
		return store.Nil, err
	}
	s.modules[unit.Name] = oid
	return oid, nil
}

// Module resolves an installed module by name.
func (s *System) Module(name string) (OID, bool) {
	oid, ok := s.modules[name]
	return oid, ok
}

// Call applies an exported function of an installed module.
func (s *System) Call(module, fn string, args ...Value) (Value, error) {
	oid, ok := s.modules[module]
	if !ok {
		return nil, fmt.Errorf("tycoon: module %s not installed", module)
	}
	return s.Machine.CallExport(oid, fn, args)
}

// FunctionOID resolves the persistent closure of an exported function.
func (s *System) FunctionOID(module, fn string) (OID, error) {
	modOID, ok := s.modules[module]
	if !ok {
		return store.Nil, fmt.Errorf("tycoon: module %s not installed", module)
	}
	obj, err := s.Store.Get(modOID)
	if err != nil {
		return store.Nil, err
	}
	mod, ok := obj.(*store.Module)
	if !ok {
		return store.Nil, fmt.Errorf("tycoon: %s is not a module", module)
	}
	v, ok := mod.Lookup(fn)
	if !ok || v.Kind != store.ValRef {
		return store.Nil, fmt.Errorf("tycoon: %s.%s is not an exported function", module, fn)
	}
	return v.Ref, nil
}

// OptimizeFunction reflectively optimizes an exported function across its
// module abstraction barriers (paper §4.1) and installs the new code for
// all subsequent calls through this system. Repeat optimization of an
// unchanged function is served from the pipeline's content-addressed
// cache (Result.CacheHit), and concurrent calls deduplicate the work.
func (s *System) OptimizeFunction(module, fn string) (*reflectopt.Result, error) {
	oid, err := s.FunctionOID(module, fn)
	if err != nil {
		return nil, err
	}
	return s.Reflect.OptimizeAndInstall(s.Machine.Code, oid)
}

// OptCacheStats is the optimized-code cache counters of the reflective
// optimizer's compilation pipeline.
type OptCacheStats = pipeline.CacheStats

// OptCacheStats reports cache hit/miss/dedup counters of the reflective
// optimizer.
func (s *System) OptCacheStats() OptCacheStats {
	return s.Reflect.CacheStats()
}

// CreateRelation creates a persistent relation (with optional hash
// indexes on the given column positions) that TL rel declarations can
// bind against.
func (s *System) CreateRelation(name string, schema []Column, indexCols ...int) (OID, error) {
	return s.Rel.CreateRelation(name, schema, indexCols...)
}

// InsertRow appends a row to a persistent relation.
func (s *System) InsertRow(rel OID, row ...Val) error {
	return s.Rel.InsertRow(rel, row)
}

// Steps reports the machine's step counter — the machine-independent
// work measure the benchmarks report.
func (s *System) Steps() int64 { return s.Machine.Steps() }

// ResetSteps clears the step counter.
func (s *System) ResetSteps() { s.Machine.ResetSteps() }
