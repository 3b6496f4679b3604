package pipeline

import (
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
// generator sees it.
func FuzzPipelinePTML(f *testing.F) {
	seeds := []string{
		// Well-formed: the E-suite and server test terms.
		"(+ 40 2 e cont(n) (k n))",
		"(/ 1 0 e cont(n) (k n))",
		`(select proc(x !ce !cc)
		   ([] x 1 cont(a) (< a 50 cont() (cc true) cont() (cc false)))
		   r e k)`,
		`(select proc(x1 !ce1 !cc1) (q x1 ce1 cc1) R e
		   cont(t) (select proc(x2 !ce2 !cc2) (p x2 ce2 cc2) t e k))`,
		"(exists proc(x !ce !cc) (p ok ce cc) R e k)",
		`(cont(f) (f 1 e cont(a) (f a e cont(b) (f b e k)))
		   cont(x !e2 !k2) (+ x 1 e2 k2))`,
		`(Y proc(!c0 !loop !c)
		   (c cont() (loop 1 0)
		      cont(i acc)
		        (> i 6
		           cont() (k acc)
		           cont() (+ acc i e cont(a2) (+ i 1 e cont(i2) (loop i2 a2))))))`,
		"(== 2 1 2 cont() (k 1) cont() (k 2) cont() (k 0))",
		"(proc(f !ce !cc) (f f ce cc) proc(g !ge !gc) (g g ge gc) e k)",
		"(cont(x x) (k x) 1 2)",
		// Ill-formed: one term per §2.2 constraint the wire can carry.
		"(+ 1 e cont(n) (k n))",
		"(cont(x) (k x) 1 2)",
		"(+ 40 2 e cont(n) (k k))",
		"(array 1 k cont(a) (k a))",
		"(cont(f) (f 1 e k) proc(x !ce !cc) (k x))",
		"(cont(f) (f 1 e k) proc(a !c b) (c a))",
	}
	for _, src := range seeds {
		app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
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
