// Package tycoon is the public facade of this reproduction of
// Gawecki & Matthes, "Exploiting Persistent Intermediate Code
// Representations in Open Database Environments" (EDBT 1996): the Tycoon
// system built around TML, a persistent continuation-passing-style
// intermediate code representation shared by programs and queries.
//
// A System is a thin facade over the one internal core that tycd and the
// Stanford harness build too (package internal/core): the persistent
// object store, the TL compiler, the module linker (which attaches PTML —
// the compact persistent TML encoding — to every installed function),
// the execution machines with the relational substrate, and the
// reflective runtime optimizer that re-optimizes functions across module
// abstraction barriers (paper §4.1), all on one code table.
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

	"tycoon/internal/core"
	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/reflectopt"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
	"tycoon/internal/tl"
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

// Config tunes Open: LocalOpt, DirectPrims, StripPTML and Out, the
// core's install and output options.
type Config = core.Options

// System is an open Tycoon environment: a thin facade over one
// internal core (the composition root tycd and the Stanford harness
// build too), so Install, Call and OptimizeFunction mean what tycd's
// INSTALL, CALL and OPTIMIZE mean. Every facade write (Install,
// CreateRelation, InsertRow, what a Call writes) is one transaction,
// published when the call returns (store.Txn.Publish), so Store and
// every reader see it at once, and durable after Commit or Close. A
// write that fails publishes nothing. After InsertRow the transaction
// stays open, so the next row appends without copying the relation;
// the next Install, CreateRelation, Call, Commit or Close ends it.
type System struct {
	// Store is the persistent object store.
	Store *store.Store
	// Machine executes compiled (TAM) code, the only kind it runs. It is
	// a core machine over Store: it has the query executors and shares
	// the core's code table, so OptimizeFunction's code runs on it.
	Machine *machine.Machine
	// Compiler compiles TL modules (the standard library is preloaded).
	Compiler *tl.Compiler
	// Linker is the core the System is a facade over; its InstallModule
	// installs a compiled module into a transaction, running the module's
	// constants on a core machine.
	Linker *core.Core
	// Rel is the relational substrate manager.
	Rel *relalg.Manager
	// Reflect is the runtime reflective optimizer.
	Reflect *reflectopt.Optimizer

	tx *store.Txn // the open write transaction, if any
}

// Open creates (or reopens) a Tycoon system at path; an empty path is an
// in-memory system. The TL standard library is compiled, and installed
// unless the store already holds it.
func Open(path string, cfgs ...Config) (*System, error) {
	var cfg Config
	if len(cfgs) > 0 {
		cfg = cfgs[0]
	}
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	return open(st, cfg)
}

// open is Open over an opened store, which the System then owns.
func open(st *store.Store, cfg Config) (*System, error) {
	c, err := core.New(st, core.Config{Options: cfg})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &System{
		Store:    st,
		Machine:  c.NewMachine(st),
		Compiler: c.Compiler,
		Linker:   c,
		Rel:      c.Rel,
		Reflect:  c.Reflect,
	}, nil
}

// writer returns the System's writer, beginning one if none is open.
func (s *System) writer() *store.Txn {
	if s.tx == nil {
		s.tx = s.Store.Begin()
	}
	return s.tx
}

// publish ends a write into the writer that returned err: it publishes
// what a successful write wrote, or aborts the writer.
func (s *System) publish(err error) error {
	if err == nil {
		err = s.tx.Publish()
	}
	if err != nil {
		s.release()
	}
	return err
}

// release ends the writer, which holds nothing unpublished after a
// successful write, unpinning its snapshot.
func (s *System) release() {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
}

// Close makes everything published durable and closes the store, even
// when the flush fails.
func (s *System) Close() error {
	s.release()
	return s.Store.Close()
}

// Commit makes everything published so far durable.
func (s *System) Commit() error {
	s.release()
	return s.Store.Flush()
}

// Install compiles and installs a TL module, returning its OID.
func (s *System) Install(src string) (OID, error) {
	s.release()
	_, oid, err := s.Linker.Install(src, (*store.Txn).Publish)
	return oid, err
}

// Module resolves an installed module by name, through its module: root.
func (s *System) Module(name string) (OID, bool) {
	return linker.Module(s.Store, name)
}

// Call applies an exported function of an installed module on Machine,
// in a transaction of its own: what the function writes is published
// when it returns, and nothing of it when it fails.
func (s *System) Call(module, fn string, args ...Value) (Value, error) {
	oid, ok := s.Module(module)
	if !ok {
		return nil, fmt.Errorf("tycoon: module %s not installed", module)
	}
	s.release()
	defer s.release()
	s.Machine.Store = s.writer()
	v, err := s.Machine.CallExport(oid, fn, args)
	s.Machine.Store = s.Store
	return v, s.publish(err)
}

// FunctionOID resolves the persistent closure of an exported function.
func (s *System) FunctionOID(module, fn string) (OID, error) {
	oid, err := linker.Function(s.Store, module, fn)
	if err != nil {
		return store.Nil, fmt.Errorf("tycoon: %w", err)
	}
	return oid, nil
}

// OptimizeFunction reflectively optimizes an exported function across its
// module abstraction barriers (paper §4.1) and installs the new code in
// the core's code table, for all subsequent calls through this system.
// It writes nothing to the store. Repeat optimization of an unchanged
// function is served from the pipeline's content-addressed cache
// (Result.CacheHit), and concurrent calls deduplicate the work.
func (s *System) OptimizeFunction(module, fn string) (*reflectopt.Result, error) {
	return s.Linker.Optimize(module, fn)
}

// CreateRelation creates a persistent relation (with optional hash
// indexes on the given column positions) that TL rel declarations can
// bind against.
func (s *System) CreateRelation(name string, schema []Column, indexCols ...int) (OID, error) {
	defer s.release()
	oid, err := relalg.CreateRelation(s.writer(), name, schema, indexCols...)
	return oid, s.publish(err)
}

// InsertRow appends a row to a persistent relation.
func (s *System) InsertRow(rel OID, row ...Val) error {
	return s.publish(relalg.InsertRow(s.writer(), rel, row))
}

// Steps reports the machine's step counter — the machine-independent
// work measure the benchmarks report.
func (s *System) Steps() int64 { return s.Machine.Steps() }

// ResetSteps clears the step counter.
func (s *System) ResetSteps() { s.Machine.ResetSteps() }
