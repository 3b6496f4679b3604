package ship_test

import (
	"testing"
	"time"

	"tycoon/internal/ship"
)

// TestGateUnbounded: a non-positive bound never refuses.
func TestGateUnbounded(t *testing.T) {
	g := ship.NewGate(0, time.Second, "tycd")
	for i := 0; i < 1000; i++ {
		if werr := g.Enter(); werr != nil {
			t.Fatal(werr)
		}
	}
	g.Leave()
	if g.Inflight() != 0 || g.Shed() != 0 {
		t.Fatalf("unbounded gate reports inflight %d shed %d", g.Inflight(), g.Shed())
	}
}

// TestGateAllocs: the gate runs on every work request, so a pass through
// it must not allocate (the per-request release closure it replaced
// cost one allocation).
func TestGateAllocs(t *testing.T) {
	g := ship.NewGate(4, time.Second, "tycd")
	if n := testing.AllocsPerRun(1000, func() {
		if werr := g.Enter(); werr != nil {
			t.Fatal(werr)
		}
		g.Leave()
	}); n != 0 {
		t.Fatalf("Enter/Leave allocates %v times, want 0", n)
	}
}
