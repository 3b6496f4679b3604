package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/tml"
)

// FuzzPipelinePTML drives arbitrary PTML bytes through the served
// compile path: decode an application, close it over the continuations
// e and k the way a server's SUBMIT rebinding does, then optimize and
// generate code. Whatever the bytes, the pipeline must not panic, and
// it either fails with an error or produces a program: the source
// check refuses an ill-formed term before any rewrite rule or the code
// generator sees it. The seeds are testdata/seeds/*.tml, one TML
// application per file with free e and k; the machine's continuation
// stack tests run the ones that compile.
func FuzzPipelinePTML(f *testing.F) {
	seeds, err := filepath.Glob("testdata/seeds/*.tml")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seeds: %v", err)
	}
	for _, name := range seeds {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		app, err := tml.ParseApp(string(src), tml.ParseOpts{IsPrim: prim.IsPrim})
		if err != nil {
			f.Fatalf("ParseApp(%q): %v", src, err)
		}
		data, err := ptml.EncodeApp(app)
		if err != nil {
			f.Fatalf("EncodeApp(%q): %v", src, err)
		}
		f.Add(data)
	}
	p := New(nil, Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := p.Run(Job{
			Name: "fuzz",
			Source: func(gen *tml.VarGen) (*tml.Abs, error) {
				app, free, err := ptml.DecodeApp(data, gen)
				if err != nil {
					return nil, err
				}
				return closeOverEK(app, free, gen), nil
			},
			Codegen: true,
		})
		if err == nil && res.Prog == nil {
			t.Fatal("no error and no program")
		}
	})
}

// closeOverEK wraps app in proc(!e !k), binding its free e and k (fresh
// ones if absent) as the exception and result continuations.
func closeOverEK(app *tml.App, free []*tml.Var, gen *tml.VarGen) *tml.Abs {
	var e, k *tml.Var
	for _, v := range free {
		switch {
		case v.Name == "e" && e == nil:
			e = v
		case v.Name == "k" && k == nil:
			k = v
		}
	}
	if e == nil {
		e = gen.FreshCont("e")
	}
	if k == nil {
		k = gen.FreshCont("k")
	}
	e.Cont, k.Cont = true, true
	return &tml.Abs{Params: []*tml.Var{e, k}, Body: app}
}
