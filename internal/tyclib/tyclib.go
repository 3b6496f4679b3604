// Package tyclib provides the TL standard library: the dynamically bound
// modules that integer, real, string and array operations compile into.
// That factoring is the paper's §6 explanation for why local optimization
// of the Stanford suite gains nothing: "even operations on integers and
// arrays are factored out into dynamically bound libraries and therefore
// not amenable to local optimization."
//
// Each operation is a thin TL wrapper over the corresponding primitive.
// After installation a call like a + b pays a module-field fetch plus an
// indirect call; the reflective runtime optimizer inlines the wrapper and
// folds the fetch, recovering the direct primitive (E2).
package tyclib

import (
	"fmt"
	"slices"

	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/store"
	"tycoon/internal/tl"
)

// IntSrc is the integer module.
const IntSrc = `
module int export add, sub, mul, div, mod, neg, lt, le, gt, ge, eq, ne, min, max, abs
let add(a, b : Int) : Int = __prim "+" (a, b)
let sub(a, b : Int) : Int = __prim "-" (a, b)
let mul(a, b : Int) : Int = __prim "*" (a, b)
let div(a, b : Int) : Int = __prim "/" (a, b)
let mod(a, b : Int) : Int = __prim "%" (a, b)
let neg(a : Int) : Int = __prim "neg" (a)
let lt(a, b : Int) : Bool = __prim "<" (a, b)
let le(a, b : Int) : Bool = __prim "<=" (a, b)
let gt(a, b : Int) : Bool = __prim ">" (a, b)
let ge(a, b : Int) : Bool = __prim ">=" (a, b)
let eq(a, b : Int) : Bool = __prim "==" (a, b)
let ne(a, b : Int) : Bool = if __prim "==" (a, b) then false else true end
let min(a, b : Int) : Int = if lt(a, b) then a else b end
let max(a, b : Int) : Int = if lt(a, b) then b else a end
let abs(a : Int) : Int = if lt(a, 0) then neg(a) else a end
end
`

// RealSrc is the real-arithmetic module; transcendental functions go
// through the ccall primitive, simulating the C library linkage of the
// Tycoon runtime.
const RealSrc = `
module real export add, sub, mul, div, neg, lt, le, gt, ge, eq, ne, ofInt, toInt, sqrt, sin, cos, exp, log, pow, floor
let add(a, b : Real) : Real = __prim "r+" (a, b)
let sub(a, b : Real) : Real = __prim "r-" (a, b)
let mul(a, b : Real) : Real = __prim "r*" (a, b)
let div(a, b : Real) : Real = __prim "r/" (a, b)
let neg(a : Real) : Real = __prim "rneg" (a)
let lt(a, b : Real) : Bool = __prim "r<" (a, b)
let le(a, b : Real) : Bool = __prim "r<=" (a, b)
let gt(a, b : Real) : Bool = __prim "r>" (a, b)
let ge(a, b : Real) : Bool = __prim "r>=" (a, b)
let eq(a, b : Real) : Bool = __prim "==" (a, b)
let ne(a, b : Real) : Bool = if __prim "==" (a, b) then false else true end
let ofInt(a : Int) : Real = __prim "int2real" (a)
let toInt(a : Real) : Int = __prim "real2int" (a)
let sqrt(x : Real) : Real = __prim "ccall" ("sqrt", x)
let sin(x : Real) : Real = __prim "ccall" ("sin", x)
let cos(x : Real) : Real = __prim "ccall" ("cos", x)
let exp(x : Real) : Real = __prim "ccall" ("exp", x)
let log(x : Real) : Real = __prim "ccall" ("log", x)
let pow(x, y : Real) : Real = __prim "ccall" ("pow", x, y)
let floor(x : Real) : Real = __prim "ccall" ("floor", x)
end
`

// ArraySrc is the array module. The TL surface types the wrappers over
// Int elements; at the TML level they are untyped and the code generator
// reuses them for every element type.
const ArraySrc = `
module array export new, get, set, size
let new(n : Int, init : Int) : Array(Int) = __prim "anew" (n, init)
let get(a : Array(Int), i : Int) : Int = __prim "[]" (a, i)
let set(a : Array(Int), i : Int, v : Int) : Ok = __prim "[:=]" (a, i, v)
let size(a : Array(Int)) : Int = __prim "size" (a)
end
`

// StrSrc is the string module.
const StrSrc = `
module str export cat, eq, ne, lt, le, gt, ge, length, char2int, int2char
let cat(a, b : String) : String = __prim "s+" (a, b)
let eq(a, b : String) : Bool = __prim "s=" (a, b)
let ne(a, b : String) : Bool = if __prim "s=" (a, b) then false else true end
let lt(a, b : String) : Bool = __prim "s<" (a, b)
let gt(a, b : String) : Bool = __prim "s<" (b, a)
let ge(a, b : String) : Bool = if __prim "s<" (a, b) then false else true end
let le(a, b : String) : Bool = if __prim "s<" (b, a) then false else true end
let length(a : String) : Int = __prim "slen" (a)
let char2int(c : Char) : Int = __prim "char2int" (c)
let int2char(i : Int) : Char = __prim "int2char" (i)
end
`

// Sources lists the library modules in installation order.
var Sources = []string{IntSrc, RealSrc, ArraySrc, StrSrc}

// CompileAll compiles the library into the given compiler (registering
// the signatures the LibCalls mode needs) and returns the units in order.
func CompileAll(c *tl.Compiler) ([]*tl.ModuleUnit, error) {
	saved := c.AllowPrim
	c.AllowPrim = true
	defer func() { c.AllowPrim = saved }()
	var units []*tl.ModuleUnit
	for _, src := range Sources {
		u, err := c.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("tyclib: %w", err)
		}
		units = append(units, u)
	}
	return units, nil
}

// Install makes the library available in a transaction and returns the
// compiler (whose signature table now knows the library) for compiling
// user modules against it. The library is compiled every time, for its
// signatures; a module is installed only when tx does not see it yet, so
// reopening a store adds nothing to it. A stored module whose exports
// differ from the compiled signature is an error: compiled code fetches
// exports by position. Module installs run on m, a machine over tx. The
// caller commits tx (or aborts it on an error).
func Install(m *machine.Machine, tx *store.Txn, lk *linker.Linker) (*tl.Compiler, error) {
	c := tl.NewCompiler()
	units, err := CompileAll(c)
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		if oid, ok := linker.Module(tx, u.Name); ok {
			if err := checkExports(tx, oid, u); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := lk.InstallModuleOn(m, tx, u); err != nil {
			return nil, fmt.Errorf("tyclib: installing %s: %w", u.Name, err)
		}
	}
	return c, nil
}

// checkExports compares a stored library module's export names, position
// by position, with the compiled signature.
func checkExports(st store.View, oid store.OID, u *tl.ModuleUnit) error {
	obj, err := st.Get(oid)
	if err != nil {
		return fmt.Errorf("tyclib: stored module %s: %w", u.Name, err)
	}
	var stored, compiled []string
	if mod, ok := obj.(*store.Module); ok {
		for _, e := range mod.Exports {
			stored = append(stored, e.Name)
		}
	}
	for _, m := range u.Sig.Members {
		compiled = append(compiled, m.Name)
	}
	if !slices.Equal(stored, compiled) {
		return fmt.Errorf("tyclib: stored module %s exports %v, the library compiles %v", u.Name, stored, compiled)
	}
	return nil
}
