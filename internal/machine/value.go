// Package machine implements the Tycoon execution substrate: runtime
// values, the primitive execution table, and the TAM (Tycoon Abstract
// Machine) compiler and virtual machine that plays the rôle of the
// paper's target code generator (Fig. 3). TAM is the one engine: every
// program the machine runs is compiled code.
package machine

import (
	"fmt"
	"strings"

	"tycoon/internal/store"
)

// Value is a runtime value.
type Value interface {
	// Show renders the value for diagnostics and the print primitive.
	Show() string
	value()
}

// ExtValue is embedded by other packages (for example the relational
// substrate's relation values) to define additional runtime value kinds;
// it satisfies the unexported marker method of Value.
type ExtValue struct{}

func (ExtValue) value() {}

// Int is a 64-bit integer value.
type Int int64

// Real is a 64-bit floating point value.
type Real float64

// Bool is a boolean value.
type Bool bool

// Char is a byte value.
type Char byte

// Str is an immutable string value.
type Str string

// Unit is the unit value ok.
type Unit struct{}

// Array is a transient mutable array of object references.
type Array struct{ Elems []Value }

// Vector is a transient immutable array; tuples of the source language
// lower to vectors.
type Vector struct{ Elems []Value }

// Bytes is a transient mutable byte array.
type Bytes struct{ B []byte }

// Ref is a reference to a persistent object in the store.
type Ref struct{ OID store.OID }

func (Int) value()     {}
func (Real) value()    {}
func (Bool) value()    {}
func (Char) value()    {}
func (Str) value()     {}
func (Unit) value()    {}
func (*Array) value()  {}
func (*Vector) value() {}
func (*Bytes) value()  {}
func (Ref) value()     {}

// Show implementations.

// Show renders the integer.
func (v Int) Show() string { return fmt.Sprintf("%d", int64(v)) }

// Show renders the real.
func (v Real) Show() string {
	s := fmt.Sprintf("%g", float64(v))
	if !strings.ContainsAny(s, ".eEnNiI") {
		s += ".0"
	}
	return s
}

// Show renders the boolean.
func (v Bool) Show() string {
	if v {
		return "true"
	}
	return "false"
}

// Show renders the character.
func (v Char) Show() string { return string(rune(v)) }

// Show renders the string.
func (v Str) Show() string { return string(v) }

// Show renders the unit value.
func (Unit) Show() string { return "ok" }

// Show renders the array.
func (v *Array) Show() string { return showSeq("array", v.Elems) }

// Show renders the vector.
func (v *Vector) Show() string { return showSeq("vector", v.Elems) }

// Show renders the byte array.
func (v *Bytes) Show() string { return fmt.Sprintf("bytes(%d)", len(v.B)) }

// Show renders the reference.
func (v Ref) Show() string { return fmt.Sprintf("<oid 0x%08x>", uint64(v.OID)) }

func showSeq(kind string, elems []Value) string {
	var b strings.Builder
	b.WriteString(kind)
	b.WriteString("(")
	for i, e := range elems {
		if i > 0 {
			b.WriteString(" ")
		}
		if i > 8 {
			b.WriteString("…")
			break
		}
		b.WriteString(e.Show())
	}
	b.WriteString(")")
	return b.String()
}

// Value interning. Boxing a scalar into the Value interface allocates;
// on the query hot path every row conversion and every primitive result
// would pay that cost. The tables below prebox the values that dominate
// those paths — small integers (row keys, loop counters), booleans
// (predicate results), characters and unit — so FromStoreVal and the
// executors can return shared boxes. Interning is sound because scalars
// are immutable and compare by value, never by identity.
var (
	smallInts [512]Value // -256 … 255
	charVals  [256]Value
	trueVal   Value = Bool(true)
	falseVal  Value = Bool(false)
	unitVal   Value = Unit{}
)

func init() {
	for i := range smallInts {
		smallInts[i] = Int(i - 256)
	}
	for i := range charVals {
		charVals[i] = Char(i)
	}
}

// IntValue boxes an integer, sharing the box for small values.
func IntValue(i int64) Value {
	if i >= -256 && i < 256 {
		return smallInts[i+256]
	}
	return Int(i)
}

// BoolValue boxes a boolean without allocating.
func BoolValue(b bool) Value {
	if b {
		return trueVal
	}
	return falseVal
}

// CharValue boxes a character without allocating.
func CharValue(c byte) Value { return charVals[c] }

// UnitValue returns the shared unit box.
func UnitValue() Value { return unitVal }

// Eq reports shallow value equality in the sense of the == primitive:
// object identity for heap objects, value identity for scalars.
func Eq(a, b Value) bool {
	switch x := a.(type) {
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Real:
		y, ok := b.(Real)
		return ok && x == y
	case Bool:
		y, ok := b.(Bool)
		return ok && x == y
	case Char:
		y, ok := b.(Char)
		return ok && x == y
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case Unit:
		_, ok := b.(Unit)
		return ok
	case Ref:
		y, ok := b.(Ref)
		return ok && x.OID == y.OID
	default:
		// Heap objects compare by identity.
		return a == b
	}
}
