package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/server"
	"tycoon/internal/ship"
)

// illFormedZoo holds shipped terms that violate the §2.2 constraints.
// Every one must be refused at the door with bad-request: never an
// internal error (a panic in the optimizer or code generator), never a
// value.
var illFormedZoo = []struct{ name, src string }{
	// Primitive arity: + gets one value, not two. This term panicked the
	// code generator and, with optimize on, wedged its pipeline key.
	{"prim arity", "(+ 1 e cont(n) (k n))"},
	{"prim continuation arity", "(+ 1 2 e cont(n) (k n) cont(m) (k m))"},
	// β-redex arity: one parameter, two arguments. The optimizer used to
	// bind the first and answer 1.
	{"beta arity", "(cont(x) (k x) 1 2)"},
	// Escaping continuations: a continuation is a consumer and cannot be
	// used as a value.
	{"continuation passed to a continuation", "(+ 40 2 e cont(n) (k k))"},
	{"continuation stored in an array", "(array 1 k cont(a) (k a))"},
	{"continuation as a primitive operand", "(+ k 1 e cont(n) (k n))"},
	{"proc uses an outer continuation", "(cont(f) (f 1 e k) proc(x !ce !cc) (k x))"},
	// Proc/cont shape: a continuation parameter between two values.
	{"abstraction shape", "(cont(f) (f 1 e k) proc(a !c b) (c a))"},
	// Unique binding cannot be violated over the wire: PTML binders are
	// positional, so a decoded tree binds every variable once (see the
	// cont(x x) row of TestWellformedDoorAdmits).
}

// TestIllFormedSubmitAnswersBadRequest submits the zoo with optimize on
// and off, twice each, from two sessions. The second round is the one
// that used to hang on a wedged pipeline key. Each session must still
// answer a PING afterwards, and Shutdown must drain.
func TestIllFormedSubmitAnswersBadRequest(t *testing.T) {
	srv, addr, _ := world(t, "", server.Config{})
	sessions := make([]*client.Client, 2)
	for i := range sessions {
		// A short timeout turns a hang into a failure, not a stalled test.
		c, err := client.Dial(addr, client.Options{Timeout: 5 * time.Second, Client: t.Name()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sessions[i] = c
	}
	for _, tt := range illFormedZoo {
		for _, optimize := range []bool{true, false} {
			for round := 0; round < 2; round++ {
				for i, c := range sessions {
					res, err := c.SubmitTML("", tt.src, nil, optimize, "")
					if err == nil {
						t.Errorf("%s (optimize=%t, round %d, session %d): answered %s, want bad-request",
							tt.name, optimize, round, i, res.Val.Show())
						continue
					}
					var we *ship.WireError
					if !errors.As(err, &we) || we.Code != ship.CodeBadRequest {
						t.Errorf("%s (optimize=%t, round %d, session %d): %v, want bad-request",
							tt.name, optimize, round, i, err)
					}
				}
			}
		}
	}
	for i, c := range sessions {
		if err := c.Ping(); err != nil {
			t.Errorf("session %d does not answer PING: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown did not drain: %v", err)
	}
}

// TestWellformedDoorAdmits pins terms the door must let through.
func TestWellformedDoorAdmits(t *testing.T) {
	_, addr, _ := world(t, "", server.Config{})
	c := dial(t, addr)
	for _, tt := range []struct {
		name, src string
		want      int64
	}{
		// Not a violation: PTML binders are positional, so the two x
		// decode to two distinct variables, and the use refers to the
		// inner (second) one.
		{"repeated binder name", "(cont(x x) (k x) 1 2)", 2},
		{"proc uses its own continuation", "(cont(f) (f 1 e k) proc(x !ce !cc) (cc x))", 1},
	} {
		for _, optimize := range []bool{true, false} {
			res, err := c.SubmitTML("", tt.src, nil, optimize, "")
			if err != nil {
				t.Errorf("%s (optimize=%t): %v", tt.name, optimize, err)
				continue
			}
			if res.Val.Kind != ship.WInt || res.Val.Int != tt.want {
				t.Errorf("%s (optimize=%t) = %s, want %d", tt.name, optimize, res.Val.Show(), tt.want)
			}
		}
	}
}
