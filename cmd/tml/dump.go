package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tycoon/internal/machine"
	"tycoon/internal/ptml"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// dump inspects a store: the root table and object summaries, one object
// in detail, or one function's bindings, pretty-printed PTML tree and
// disassembled TAM code.
func dump(flags *flag.FlagSet) action {
	storePath := flags.String("store", "tycoon.tyst", "store file")
	oidFlag := flags.String("oid", "", "dump one object (hex or decimal OID)")
	fnFlag := flags.String("fn", "", "dump one function (module.function or a root name)")
	return func(_ []string, out, _ io.Writer) error {
		if err := requireStore(*storePath); err != nil {
			return err
		}
		st, err := store.Open(*storePath)
		if err != nil {
			return err
		}
		defer st.Close()
		switch {
		case *fnFlag != "":
			oid, err := function(st, *fnFlag)
			if err != nil {
				return err
			}
			return dumpObject(out, st, oid)
		case *oidFlag != "":
			raw := strings.TrimPrefix(*oidFlag, "0x")
			base := 10
			if raw != *oidFlag {
				base = 16
			}
			n, err := strconv.ParseUint(raw, base, 64)
			if err != nil {
				return fmt.Errorf("bad OID %q", *oidFlag)
			}
			return dumpObject(out, st, store.OID(n))
		default:
			overview(out, st)
			return nil
		}
	}
}

func overview(out io.Writer, st *store.Store) {
	fmt.Fprintf(out, "store: %d objects\n\nroots:\n", st.Len())
	for _, name := range st.Roots() {
		oid, _ := st.Root(name)
		fmt.Fprintf(out, "  %-24s → 0x%08x\n", name, uint64(oid))
	}
	fmt.Fprintln(out, "\nobjects:")
	for _, oid := range st.OIDs() {
		obj := st.MustGet(oid)
		fmt.Fprintf(out, "  0x%08x %-10s %s\n", uint64(oid), obj.Kind(), summary(obj))
	}
}

func summary(obj store.Object) string {
	switch o := obj.(type) {
	case *store.Module:
		return fmt.Sprintf("%s (%d exports)", o.Name, len(o.Exports))
	case *store.Closure:
		return fmt.Sprintf("%s (%d bindings, cost %d)", o.Name, len(o.Bindings), o.Cost)
	case *store.Relation:
		return fmt.Sprintf("%s (%d columns, %d rows, %d indexes)", o.Name, len(o.Schema), len(o.Rows), len(o.Indexes))
	case *store.Blob:
		return fmt.Sprintf("%d bytes", len(o.Bytes))
	case *store.Tuple:
		return fmt.Sprintf("%d fields", len(o.Fields))
	case *store.Array:
		return fmt.Sprintf("%d elements", len(o.Elems))
	case *store.ByteArray:
		return fmt.Sprintf("%d bytes", len(o.Bytes))
	}
	return ""
}

func dumpObject(out io.Writer, st *store.Store, oid store.OID) error {
	obj, err := st.Get(oid)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "0x%08x: %s %s\n", uint64(oid), obj.Kind(), summary(obj))
	switch o := obj.(type) {
	case *store.Module:
		for _, e := range o.Exports {
			fmt.Fprintf(out, "  export %-16s = %s\n", e.Name, e.Val)
		}
	case *store.Closure:
		return dumpClosure(out, st, o)
	case *store.Relation:
		for _, c := range o.Schema {
			fmt.Fprintf(out, "  column %s\n", c.Name)
		}
		for i, row := range o.Rows {
			if i >= 10 {
				fmt.Fprintf(out, "  … %d more rows\n", len(o.Rows)-10)
				break
			}
			fmt.Fprintf(out, "  row %v\n", row)
		}
	case *store.Tuple:
		for i, f := range o.Fields {
			fmt.Fprintf(out, "  field %d = %s\n", i, f)
		}
	}
	return nil
}

func dumpClosure(out io.Writer, st *store.Store, clo *store.Closure) error {
	fmt.Fprintf(out, "  cost=%d savings=%d\n", clo.Cost, clo.Savings)
	for _, b := range clo.Bindings {
		fmt.Fprintf(out, "  binding %-12s = %s\n", b.Name, b.Val)
	}
	if clo.PTML != store.Nil {
		blob := st.MustGet(clo.PTML).(*store.Blob)
		node, _, err := ptml.Decode(blob.Bytes, nil)
		if err != nil {
			return fmt.Errorf("PTML: %w", err)
		}
		fmt.Fprintf(out, "\nPTML (%d bytes):\n%s\n", len(blob.Bytes), tml.Print(node))
	}
	if clo.Code != store.Nil {
		blob := st.MustGet(clo.Code).(*store.Blob)
		prog, err := machine.DecodeProgram(blob.Bytes)
		if err != nil {
			return fmt.Errorf("TAM: %w", err)
		}
		fmt.Fprintf(out, "\nTAM code (%d bytes):\n%s", len(blob.Bytes), machine.Disasm(prog))
	}
	return nil
}
