// Package core is the one composition root of the Tycoon environment
// (paper Fig. 3): the store, the TL compiler and linker, one compilation
// pipeline with the reflective optimizer over it, the relational
// substrate, one code table and the machines that run on it. The facade
// (package tycoon), tycd (package server) and the Stanford harness each
// build one Core, so installing a module, calling a function and
// optimizing one mean the same thing everywhere. Every module install
// runs its constants on a core machine: query executors, print output,
// step budget and the shared code table.
package core

import (
	"io"
	"sync"
	"time"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/reflectopt"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
	"tycoon/internal/tl"
	"tycoon/internal/tyclib"
)

// Options are the install and output settings (tycoon.Config).
type Options struct {
	// LocalOpt applies compile-time (local) optimization at installation.
	LocalOpt bool
	// DirectPrims compiles scalar operations straight to primitives, not
	// through the library modules: the paper's compilation ablation.
	DirectPrims bool
	// StripPTML installs code without the persistent TML trees: half the
	// code size (paper §6), and no reflective optimization.
	StripPTML bool
	// Out receives the output of TL's print; nil discards it.
	Out io.Writer
}

// Config configures a Core: its Options, and the budgets of each run on
// a lent machine (a zero StepBudget means machine.DefaultMaxSteps; only
// a positive WallBudget bounds wall-clock time).
type Config struct {
	Options
	StepBudget int64
	WallBudget time.Duration
}

// Core is one Tycoon environment over one store, safe for concurrent
// use; a machine it hands out is not. Compiler accumulates signatures
// and is not safe for concurrent Compile calls (Install serialises
// them). Pipe is the one compilation pipeline: Reflect runs through it,
// and tycd's SUBMIT compilations share its cache. Code is the one code
// image every core machine links into and Optimize installs into.
type Core struct {
	Store    *store.Store
	Compiler *tl.Compiler
	Pipe     *pipeline.Pipeline
	Reflect  *reflectopt.Optimizer
	Rel      *relalg.Manager
	Code     *machine.CodeTable

	cfg       Config
	lk        *linker.Linker
	installMu sync.Mutex
	// idle holds the lent machines no run uses (see Run), never more than
	// ran at once; a sync.Pool would drop them at GC, and the next run
	// would rebuild their stacks, frames and memos.
	idleMu sync.Mutex
	idle   []*machine.Machine
}

// New builds a Core over st and installs the standard library into it
// unless the store holds it already. The library is published at once
// (store.Txn.Publish); the next commit, Flush or Close makes it durable.
func New(st *store.Store, cfg Config) (*Core, error) {
	pipe := pipeline.New(st, pipeline.Config{})
	c := &Core{
		Store:   st,
		Pipe:    pipe,
		Reflect: reflectopt.New(st, pipe, reflectopt.Options{}),
		Rel:     relalg.NewManager(st),
		Code:    new(machine.CodeTable),
		cfg:     cfg,
		lk:      linker.New(linker.Config{LocalOpt: cfg.LocalOpt, StripPTML: cfg.StripPTML}),
	}
	tx := st.Begin()
	defer tx.Abort()
	err := c.Run(tx, func(m *machine.Machine) (err error) {
		c.Compiler, err = tyclib.Install(m, tx, c.lk)
		return err
	})
	if err == nil {
		err = tx.Publish()
	}
	if err != nil {
		return nil, err
	}
	if cfg.DirectPrims {
		c.Compiler.Mode = tl.DirectPrims
	}
	return c, nil
}

// NewMachine returns a machine over view that is not lent: it has the
// shared code table, the query executors, the step budget and the print
// output, and no wall budget.
func (c *Core) NewMachine(view store.View) *machine.Machine {
	m := machine.New(view)
	m.Code, m.MaxSteps, m.Out = c.Code, c.cfg.StepBudget, c.cfg.Out
	c.Rel.Register(m)
	return m
}

// Run lends f a machine, an idle one or a NewMachine, over view, from a
// zero step count and under the wall budget; afterwards the machine
// forgets both and goes back to the idle list. A machine whose run
// panicked is not put back, so its state is never lent again.
func (c *Core) Run(view store.View, f func(*machine.Machine) error) error {
	var m *machine.Machine
	c.idleMu.Lock()
	if n := len(c.idle); n > 0 {
		m = c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
	}
	c.idleMu.Unlock()
	if m == nil {
		m = c.NewMachine(nil)
	}
	m.Store = view
	m.ResetSteps()
	if w := c.cfg.WallBudget; w > 0 {
		m.Deadline = time.Now().Add(w)
	}
	err := f(m)
	m.Store, m.Deadline = nil, time.Time{}
	c.idleMu.Lock()
	c.idle = append(c.idle, m)
	c.idleMu.Unlock()
	return err
}

// Idle returns the machines no run is using.
func (c *Core) Idle() []*machine.Machine {
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	return append([]*machine.Machine(nil), c.idle...)
}

// Install compiles the TL module src, installs it into a new
// transaction and ends that with commit (Commit, Publish or the caller's
// own), all under the install mutex: an install links against a snapshot
// that holds every install compiled before it, so a module never binds
// an older version of an import than the signature it compiled against.
// A failed install, or commit, leaves nothing.
func (c *Core) Install(src string, commit func(*store.Txn) error) (*tl.ModuleUnit, store.OID, error) {
	c.installMu.Lock()
	defer c.installMu.Unlock()
	unit, err := c.Compiler.Compile(src)
	if err != nil {
		return nil, store.Nil, err
	}
	tx := c.Store.Begin()
	defer tx.Abort()
	oid, err := c.InstallModule(tx, unit)
	if err == nil {
		err = commit(tx)
	}
	return unit, oid, err
}

// InstallModule installs a module Compiler compiled into tx, running its
// constants on a machine lent over tx. It takes no lock: a caller that
// compiles and installs concurrently with Install serialises itself.
func (c *Core) InstallModule(tx *store.Txn, unit *tl.ModuleUnit) (oid store.OID, err error) {
	err = c.Run(tx, func(m *machine.Machine) error {
		oid, err = c.lk.InstallModuleOn(m, tx, unit)
		return err
	})
	return oid, err
}

// Call applies module.fn, or with an empty module the closure under the
// root fn, on a machine lent over view, and reports the steps it took. A
// target view does not hold is a *linker.NotFoundError.
func (c *Core) Call(view store.View, module, fn string, args []machine.Value) (v machine.Value, steps int64, err error) {
	err = c.Run(view, func(m *machine.Machine) error {
		if module == "" {
			oid, ok := view.Root(fn)
			if !ok {
				return &linker.NotFoundError{Root: fn}
			}
			v, err = m.Apply(machine.Ref{OID: oid}, args)
		} else {
			oid, ok := linker.Module(view, module)
			if !ok {
				return &linker.NotFoundError{Module: module}
			}
			v, err = m.CallExport(oid, fn, args)
		}
		steps = m.Steps()
		return err
	})
	return v, steps, err
}

// Optimize reflectively optimizes the exported function module.fn of the
// store into the code table, so every core machine's next call runs the
// new code. It writes nothing to the store.
func (c *Core) Optimize(module, fn string) (*reflectopt.Result, error) {
	oid, err := linker.Function(c.Store, module, fn)
	if err != nil {
		return nil, err
	}
	return c.Reflect.OptimizeAndInstall(c.Code, oid)
}
