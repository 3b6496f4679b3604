package machine

import (
	"testing"
	"testing/quick"

	"tycoon/internal/store"
)

// The fused operand path (runTAM's register file, the fast executors and
// the member memo they read) must be invisible: every program behaves on
// a resolved machine exactly as on one forced onto the generic path —
// the same value or error, the same steps and the same transfers.

// observed is one application's observable behaviour.
type observed struct {
	val, err         string
	steps, transfers int64
}

func observe(m *Machine, fn Value, args ...Value) observed {
	m.ResetProfile()
	v, err := m.Apply(fn, args)
	p := m.Profile()
	o := observed{steps: p.Steps, transfers: p.Transfers}
	if err != nil {
		o.err = err.Error()
	} else {
		o.val = v.Show()
	}
	return o
}

// TestFusedAgreesWithGenericOnRandomPrograms runs the decompiler's random
// programs on both paths, with arguments whose arithmetic stays in range,
// overflows, and has the wrong type, so the fast executors decline too.
func TestFusedAgreesWithGenericOnRandomPrograms(t *testing.T) {
	fused, generic := New(nil), New(nil)
	ForceGenericPath(generic)
	f := func(seed int64, depthRaw uint8, arg int16) bool {
		prog, err := CompileProc(randomProgram(seed, int(depthRaw%8)), "p")
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		fn := &TAMClosure{Prog: prog, Blk: prog.Entry, Name: "p"}
		for _, x := range []Value{Int(arg), Int(int64(arg) << 40), Str("x")} {
			got, want := observe(fused, fn, x), observe(generic, fn, x)
			if got != want {
				t.Logf("seed %d depth %d x=%s:\n fused   %+v\n generic %+v", seed, depthRaw%8, x.Show(), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFusedAgreesWithGenericThroughLibrary: a caller reaching + and -
// through module members, as installed library-factored code does, takes
// the member and link memos on the resolved machine and the store and the
// code table on the generic one, with identical results and work.
func TestFusedAgreesWithGenericThroughLibrary(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	var exports []store.Export
	for _, op := range []string{"+", "-"} {
		prog, err := CompileProc(compileAbsSrc(t, "proc(a b !ce !k) ("+op+" a b ce k)"), op)
		if err != nil {
			t.Fatal(err)
		}
		code, _ := EncodeProgram(prog)
		oid := st.Alloc(&store.Closure{Name: op, Code: st.Alloc(&store.Blob{Bytes: code})})
		exports = append(exports, store.Export{Name: op, Val: store.RefVal(oid)})
	}
	lib := st.Alloc(&store.Module{Name: "lib", Exports: exports})
	fn := compileClosure(t, `proc(x !ce !cc)
	  ([] lib 0 cont(add) (add x 1 ce cont(a)
	    ([] lib 1 cont(sub) (sub a 5 ce cont(b)
	      ([] lib 0 cont(add) (add b 9223372036854775800 ce cont(c)
	        ([] lib 1 cont(sub) (sub c x ce cc))))))))`, "caller", []Value{Ref{OID: lib}})
	fused, generic := New(st), New(st)
	ForceGenericPath(generic)
	// x = 20 overflows the second add.
	for _, x := range []Value{Int(1), Int(-9223372036854775800), Int(20), Str("x")} {
		got := observe(fused, fn, x)
		served := fused.Profile().Resolved
		if want := observe(generic, fn, x); got != want {
			t.Errorf("x=%s:\n fused   %+v\n generic %+v", x.Show(), got, want)
		}
		// Each export is fetched and applied twice: the second fetch and
		// the second application are memo hits, unless + faulted first.
		if got.err == "" && served != 4 {
			t.Errorf("x=%s: %d library references served from the memo, want 4", x.Show(), served)
		}
	}
}
