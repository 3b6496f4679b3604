package linker_test

import (
	"testing"

	"tycoon/internal/machine"
	"tycoon/internal/relalg"
	"tycoon/internal/store"
)

// TestLanguageFeatures executes every TL construct end to end under both
// the library-call and local-opt regimes.
func TestLanguageFeatures(t *testing.T) {
	const src = `
module feat export downsum, grade, pick, flag, chars, strops, realops,
                   tuples, nested, logic, unary, shadow, deepTry
let downsum(n : Int) : Int =
  begin var s := 0; for i = n downto 1 do s := s + i end; s end

let grade(n : Int) : Int =
  if n < 10 then 1 elsif n < 20 then 2 elsif n < 30 then 3 else 4 end

let pick(s : String) : Int =
  case s of "alpha" => 1 | "beta" => 2 else 0 end

let flag(b : Bool) : Int =
  case b of true => 1 | false => 0 end

let chars(c : Char) : Int =
  if c < 'm' then 1
  elsif c = 'm' then 2
  elsif c >= 'x' then 3
  else 4 end

let strops(a : String, b : String) : Int =
  begin
    var n := 0;
    if a + b = "foobar" then n := n + 1 end;
    if a < b then n := n + 10 end;
    if a <> b then n := n + 100 end;
    n + len(a + b)
  end

let realops(x : Real) : Int =
  begin
    var n := 0;
    if x > 1.5 then n := n + 1 end;
    if x * 2.0 >= 6.0 then n := n + 10 end;
    if x <> 0.0 then n := n + 100 end;
    n
  end

type Pair = Tuple fst, snd : Int end
let mkPair(a, b : Int) : Pair = tuple a, b end
let tuples(a, b : Int) : Int =
  begin
    let p = mkPair(a, b);
    p.fst * 100 + p.snd
  end

let nested(n : Int) : Int =
  begin
    let outer(a : Int) : Int =
      begin
        let inner(b : Int) : Int = a + b;
        inner(a) + inner(1)
      end;
    outer(n)
  end

let logic(a, b : Bool) : Int =
  begin
    var n := 0;
    if a and b then n := n + 1 end;
    if a or b then n := n + 10 end;
    if not a then n := n + 100 end;
    if a = b then n := n + 1000 end;
    n
  end

let unary(x : Int) : Int = -x + (- -x) * 2

let shadow(x : Int) : Int =
  begin
    let y = x + 1;
    begin
      let y = y * 10;
      y
    end + y
  end

let deepTry(n : Int) : Int =
  try
    try 100 / n handle e1 => raise "rethrown" end
  handle e2 =>
    if e2 = "rethrown" then -1 else -2 end
  end
end`
	for _, level := range []bool{false, true} {
		st, lk, comp, m, _ := setup(t, level)
		mod := install(t, st, lk, comp, src)
		cases := []struct {
			fn   string
			args []machine.Value
			want machine.Value
		}{
			{"downsum", []machine.Value{machine.Int(10)}, machine.Int(55)},
			{"grade", []machine.Value{machine.Int(5)}, machine.Int(1)},
			{"grade", []machine.Value{machine.Int(15)}, machine.Int(2)},
			{"grade", []machine.Value{machine.Int(25)}, machine.Int(3)},
			{"grade", []machine.Value{machine.Int(99)}, machine.Int(4)},
			{"pick", []machine.Value{machine.Str("alpha")}, machine.Int(1)},
			{"pick", []machine.Value{machine.Str("beta")}, machine.Int(2)},
			{"pick", []machine.Value{machine.Str("gamma")}, machine.Int(0)},
			{"flag", []machine.Value{machine.Bool(true)}, machine.Int(1)},
			{"flag", []machine.Value{machine.Bool(false)}, machine.Int(0)},
			{"chars", []machine.Value{machine.Char('a')}, machine.Int(1)},
			{"chars", []machine.Value{machine.Char('m')}, machine.Int(2)},
			{"chars", []machine.Value{machine.Char('z')}, machine.Int(3)},
			{"chars", []machine.Value{machine.Char('p')}, machine.Int(4)},
			{"strops", []machine.Value{machine.Str("foo"), machine.Str("bar")}, machine.Int(107)},
			{"realops", []machine.Value{machine.Real(3.0)}, machine.Int(111)},
			{"tuples", []machine.Value{machine.Int(4), machine.Int(2)}, machine.Int(402)},
			{"nested", []machine.Value{machine.Int(20)}, machine.Int(61)},
			{"logic", []machine.Value{machine.Bool(true), machine.Bool(true)}, machine.Int(1011)},
			{"logic", []machine.Value{machine.Bool(false), machine.Bool(false)}, machine.Int(1100)},
			{"logic", []machine.Value{machine.Bool(false), machine.Bool(true)}, machine.Int(110)},
			{"unary", []machine.Value{machine.Int(5)}, machine.Int(5)},
			{"shadow", []machine.Value{machine.Int(1)}, machine.Int(22)},
			{"deepTry", []machine.Value{machine.Int(0)}, machine.Int(-1)},
			{"deepTry", []machine.Value{machine.Int(4)}, machine.Int(25)},
		}
		for _, tt := range cases {
			v, err := m.CallExport(mod, tt.fn, tt.args)
			if err != nil {
				t.Errorf("localOpt %v: %s(%v): %v", level, tt.fn, tt.args, err)
				continue
			}
			if !machine.Eq(v, tt.want) {
				t.Errorf("localOpt %v: %s(%v) = %s, want %s", level, tt.fn, tt.args, v.Show(), tt.want.Show())
			}
		}
	}
}

// TestCaseWithoutElseRaises pins the runtime semantics of a fall-through.
func TestCaseWithoutElseRaises(t *testing.T) {
	st, lk, comp, m, _ := setup(t, false)
	mod := install(t, st, lk, comp, `
module c export f
let f(n : Int) : Int = begin case n of 1 => print(1) | 2 => print(2) end; n end
end`)
	if _, err := m.CallExport(mod, "f", []machine.Value{machine.Int(9)}); err == nil {
		t.Error("fall-through case did not raise")
	}
	if v, err := m.CallExport(mod, "f", []machine.Value{machine.Int(1)}); err != nil || v != machine.Value(machine.Int(1)) {
		t.Errorf("matching case = %v, %v", v, err)
	}
}

// TestExceptionAcrossCalls checks that the ce chain crosses function
// boundaries: a raise deep in a callee lands in the caller's handler.
func TestExceptionAcrossCalls(t *testing.T) {
	st, lk, comp, m, _ := setup(t, false)
	mod := install(t, st, lk, comp, `
module x export outer
let inner(n : Int) : Int = if n = 0 then raise "deep" else n end
let middle(n : Int) : Int = inner(n) * 2
let outer(n : Int) : Int = try middle(n) handle e => 777 end
end`)
	v, err := m.CallExport(mod, "outer", []machine.Value{machine.Int(0)})
	if err != nil || v != machine.Value(machine.Int(777)) {
		t.Fatalf("outer(0) = %v, %v", v, err)
	}
	v, err = m.CallExport(mod, "outer", []machine.Value{machine.Int(5)})
	if err != nil || v != machine.Value(machine.Int(10)) {
		t.Fatalf("outer(5) = %v, %v", v, err)
	}
}

// TestJoinQueries executes TL θ-joins end to end.
func TestJoinQueries(t *testing.T) {
	st, lk, comp, m, _ := setup(t, false)
	emp, err := relalg.CreateRelation(st, "jemp", []store.Column{
		{Name: "id", Type: store.ColInt},
		{Name: "dept", Type: store.ColInt},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dept, err := relalg.CreateRelation(st, "jdept", []store.Column{
		{Name: "dno", Type: store.ColInt},
		{Name: "budget", Type: store.ColInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := relalg.InsertRow(st, emp, []store.Val{store.IntVal(i), store.IntVal(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	for d := int64(0); d < 4; d++ {
		if err := relalg.InsertRow(st, dept, []store.Val{store.IntVal(d), store.IntVal(d * 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	mod := install(t, st, lk, comp, `
module j export pay, pairs
rel jemp : Rel(id : Int, dept : Int)
rel jdept : Rel(dno : Int, budget : Int)
let pay(k : Int) : Int =
  begin
    var s := 0;
    foreach r in select tuple e.id, d.budget end
                 from e in jemp, d in jdept
                 where e.dept = d.dno and e.id < k end
    do s := s + r.budget end;
    s
  end
let pairs() : Int =
  count(select tuple e.id, d.dno end from e in jemp, d in jdept end)
end`)
	// Employees 0..5: depts 0,1,2,3,0,1 → budgets 0+1000+2000+3000+0+1000 = 7000.
	if got := callInt(t, m, mod, "pay", machine.Int(6)); got != 7000 {
		t.Errorf("pay(6) = %d, want 7000", got)
	}
	// Cross product 20×4 = 80 rows.
	if got := callInt(t, m, mod, "pairs"); got != 80 {
		t.Errorf("pairs() = %d, want 80", got)
	}
}

// TestJoinRowRestriction pins the whole-tuple restriction on join rows.
func TestJoinRowRestriction(t *testing.T) {
	_, _, comp, _, _ := setup(t, false)
	_, err := comp.Compile(`
module bad export f
rel jemp2 : Rel(id : Int)
let f() : Int = count(select e from e in jemp2, d in jemp2 end)
end`)
	if err == nil {
		t.Error("whole-row use of a join variable accepted")
	}
}
