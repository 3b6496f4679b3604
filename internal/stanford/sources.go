// Package stanford ports the Stanford benchmark suite — the programs the
// paper's §6 evaluation uses ("performing local program optimizations on
// standard benchmarks for imperative programs (the Stanford Suite)…") —
// to TL, and provides the harness that runs them under the three
// optimization regimes of experiments E1 and E2 (plus the direct-primitive
// ablation). A suite is built on the environment's one composition root
// (package internal/core): each regime is a core configuration,
// LocalOpt or DirectPrims, and the dynamic regime's optimized code goes
// into the code table the suite's machine runs on.
//
// Substitutions: the original suite's Trees and Puzzle programs need
// recursive record types that TL's monomorphic type system does not
// express; Sieve (also a classic Hennessy benchmark) stands in, keeping
// the suite's character — integer and array operations dominating, all
// factored through dynamically bound library modules.
package stanford

// PermSrc counts the permutations of n elements generated in place
// (Stanford "Perm").
const PermSrc = `
module perm export run
let run(n : Int) : Int =
  begin
    var count := 0;
    let a = newArray(n, 0);
    for i = 0 upto n - 1 do a[i] := i end;
    let swap(i, j : Int) : Ok =
      begin let t = a[i]; a[i] := a[j]; a[j] := t end;
    let permute(k : Int) : Ok =
      if k = 0 then count := count + 1
      else
        for i = 0 upto k - 1 do
          swap(i, k - 1);
          permute(k - 1);
          swap(i, k - 1)
        end
      end;
    permute(n);
    count
  end
end
`

// TowersSrc counts the moves of the Towers of Hanoi (Stanford "Towers").
const TowersSrc = `
module towers export run
let run(n : Int) : Int =
  begin
    var moves := 0;
    let hanoi(k, src, dst, via : Int) : Ok =
      if k > 0 then
        hanoi(k - 1, src, via, dst);
        moves := moves + 1;
        hanoi(k - 1, via, dst, src)
      end;
    hanoi(n, 1, 3, 2);
    moves
  end
end
`

// QueensSrc counts the solutions of the n-queens problem (Stanford
// "Queens"; 92 for n = 8).
const QueensSrc = `
module queens export run
let run(n : Int) : Int =
  begin
    var count := 0;
    let cols = newArray(n, 0);
    let diag1 = newArray(2 * n, 0);
    let diag2 = newArray(2 * n, 0);
    let place(r : Int) : Ok =
      if r = n then count := count + 1
      else
        for c = 0 upto n - 1 do
          if cols[c] = 0 and diag1[r + c] = 0 and diag2[r - c + n] = 0 then
            cols[c] := 1; diag1[r + c] := 1; diag2[r - c + n] := 1;
            place(r + 1);
            cols[c] := 0; diag1[r + c] := 0; diag2[r - c + n] := 0
          end
        end
      end;
    place(0);
    count
  end
end
`

// IntmmSrc multiplies two n×n integer matrices (Stanford "Intmm") and
// returns a checksum.
const IntmmSrc = `
module intmm export run
let run(n : Int) : Int =
  begin
    let a = newArray(n * n, 0);
    let b = newArray(n * n, 0);
    let c = newArray(n * n, 0);
    for i = 0 upto n * n - 1 do
      a[i] := i % 10 - 5;
      b[i] := i % 7 - 3
    end;
    for i = 0 upto n - 1 do
      for j = 0 upto n - 1 do
        var s := 0;
        for k = 0 upto n - 1 do
          s := s + a[i * n + k] * b[k * n + j]
        end;
        c[i * n + j] := s
      end
    end;
    var sum := 0;
    for i = 0 upto n * n - 1 do sum := sum + c[i] end;
    sum
  end
end
`

// MmSrc multiplies two n×n real matrices (Stanford "Mm") and returns a
// scaled checksum.
const MmSrc = `
module mm export run
let run(n : Int) : Int =
  begin
    let a = newArray(n * n, 0.0);
    let b = newArray(n * n, 0.0);
    let c = newArray(n * n, 0.0);
    for i = 0 upto n * n - 1 do
      a[i] := real.ofInt(i % 10) / 10.0;
      b[i] := real.ofInt(i % 7) / 7.0
    end;
    for i = 0 upto n - 1 do
      for j = 0 upto n - 1 do
        var s := 0.0;
        for k = 0 upto n - 1 do
          s := s + a[i * n + k] * b[k * n + j]
        end;
        c[i * n + j] := s
      end
    end;
    var sum := 0.0;
    for i = 0 upto n * n - 1 do sum := sum + c[i] end;
    real.toInt(sum * 1000.0)
  end
end
`

// QuickSrc quicksorts a pseudo-random array (Stanford "Quick") and
// returns a checksum proving sortedness.
const QuickSrc = `
module quick export run
let run(n : Int) : Int =
  begin
    let a = newArray(n, 0);
    var seed := 1234;
    for i = 0 upto n - 1 do
      seed := (seed * 1309 + 13849) % 65536;
      a[i] := seed
    end;
    let sort(lo, hi : Int) : Ok =
      if lo < hi then
        let p = a[(lo + hi) / 2];
        var i := lo;
        var j := hi;
        while i <= j do
          while a[i] < p do i := i + 1 end;
          while a[j] > p do j := j - 1 end;
          if i <= j then
            let t = a[i];
            a[i] := a[j];
            a[j] := t;
            i := i + 1;
            j := j - 1
          end
        end;
        sort(lo, j);
        sort(i, hi)
      end;
    sort(0, n - 1);
    var sorted := 1;
    for i = 1 upto n - 1 do
      if a[i - 1] > a[i] then sorted := 0 end
    end;
    sorted * 1000000 + a[0] % 1000 + a[n - 1] % 1000
  end
end
`

// BubbleSrc bubble-sorts a pseudo-random array (Stanford "Bubble").
const BubbleSrc = `
module bubble export run
let run(n : Int) : Int =
  begin
    let a = newArray(n, 0);
    var seed := 4711;
    for i = 0 upto n - 1 do
      seed := (seed * 1309 + 13849) % 65536;
      a[i] := seed
    end;
    var top := n - 1;
    while top > 0 do
      var i := 0;
      while i < top do
        if a[i] > a[i + 1] then
          let t = a[i];
          a[i] := a[i + 1];
          a[i + 1] := t
        end;
        i := i + 1
      end;
      top := top - 1
    end;
    var sorted := 1;
    for i = 1 upto n - 1 do
      if a[i - 1] > a[i] then sorted := 0 end
    end;
    sorted * 1000000 + a[0] % 1000 + a[n - 1] % 1000
  end
end
`

// SieveSrc counts primes up to n with the Sieve of Eratosthenes (standing
// in for the suite's recursive-record programs; see the package comment).
const SieveSrc = `
module sieve export run
let run(n : Int) : Int =
  begin
    let flags = newArray(n + 1, 1);
    var count := 0;
    var i := 2;
    while i <= n do
      if flags[i] = 1 then
        count := count + 1;
        var k := i + i;
        while k <= n do
          flags[k] := 0;
          k := k + i
        end
      end;
      i := i + 1
    end;
    count
  end
end
`
