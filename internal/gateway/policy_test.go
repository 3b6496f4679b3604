package gateway

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"tycoon/internal/client"
	"tycoon/internal/ship"
)

// TestErrorPolicyConformance walks every wire error code, plus one code
// no peer defines, through each consumer of ship's per-code policy
// table and pins the decision each hop makes:
//
//   - retry, retryIdem: client.Retryable for a non-idempotent and an
//     idempotent request;
//   - failover: the coordinator fails over to another replica — and the
//     watcher reconnects — exactly when ship.Definitive is nil;
//   - status, httpRetry, retryAfter: the gateway's HTTP status, the
//     body's retryable flag and whether a Retry-After header is sent.
//
// A code declared in package ship without a row here fails the test.
func TestErrorPolicyConformance(t *testing.T) {
	type row struct {
		name                  string
		retry, retryIdem      bool
		failover              bool
		status                int
		httpRetry, retryAfter bool
	}
	want := map[ship.ErrCode]row{
		ship.CodeProto:       {"proto", true, true, true, 400, false, false},
		ship.CodeBadRequest:  {"bad-request", false, false, false, 400, false, false},
		ship.CodeNotFound:    {"not-found", false, false, false, 404, false, false},
		ship.CodeCompile:     {"compile", false, false, false, 422, false, false},
		ship.CodeExec:        {"exec", false, false, false, 422, false, false},
		ship.CodeBudget:      {"budget", false, false, false, 408, false, false},
		ship.CodeShutdown:    {"shutdown", true, true, true, 503, true, true},
		ship.CodeInternal:    {"internal", false, false, false, 500, false, false},
		ship.CodeOverloaded:  {"overloaded", true, true, true, 429, true, true},
		ship.CodeDegraded:    {"degraded", false, false, false, 500, false, false},
		ship.CodeConflict:    {"conflict", true, true, false, 409, true, false},
		ship.CodeReplicaDown: {"replica-down", true, true, false, 503, true, true},
	}
	declared := declaredCodes(t)
	if len(declared) != len(want) {
		t.Errorf("package ship declares %d error codes, the table pins %d", len(declared), len(want))
	}
	var top ship.ErrCode
	for _, c := range declared {
		if _, ok := want[c]; !ok {
			t.Errorf("code %d has no row in this table", c)
		}
		if c.Policy().Name == "code("+strconv.Itoa(int(c))+")" {
			t.Errorf("code %d has no row in ship's policy table", c)
		}
		top = max(top, c)
	}
	unknown := top + 1
	want[unknown] = row{"code(" + strconv.Itoa(int(unknown)) + ")", false, false, false, 500, false, false}

	for code := ship.ErrCode(1); code <= unknown; code++ {
		w, ok := want[code]
		if !ok {
			t.Errorf("code %d: a gap in the code space", code)
			continue
		}
		err := &ship.WireError{Code: code, Msg: "probe", RetryAfterMs: 50}
		status, body, after := answer(t, err)
		got := row{
			name:       code.String(),
			retry:      client.Retryable(err, false),
			retryIdem:  client.Retryable(err, true),
			failover:   ship.Definitive(err) == nil,
			status:     status,
			httpRetry:  body.Err.Retryable,
			retryAfter: after != "",
		}
		if got != w {
			t.Errorf("code %d:\n got %+v\nwant %+v", code, got, w)
		}
		if body.Err.Code != w.name {
			t.Errorf("code %d: HTTP body code %q, want %q", code, body.Err.Code, w.name)
		}
	}
}

// declaredCodes lists the ErrCode constants package ship declares, read
// from its source so that a new code cannot slip past the table above.
func declaredCodes(t *testing.T) []ship.ErrCode {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("..", "ship"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []ship.ErrCode
	for _, f := range pkgs["ship"].Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "ErrCode" {
					continue
				}
				for _, v := range vs.Values {
					lit, ok := v.(*ast.BasicLit)
					if !ok {
						t.Fatalf("ErrCode constant at %s is not a literal", fset.Position(v.Pos()))
					}
					n, err := strconv.Atoi(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, ship.ErrCode(n))
				}
			}
		}
	}
	return out
}
