package server_test

import (
	"os"
	"path/filepath"
	"testing"

	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// TestReopenAddsNothing: a server booted over a store that already holds
// the standard library writes nothing to it. Three boots keep the
// object count and the log size at their first values.
func TestReopenAddsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	var objects int
	var size int64
	for i := 0; i < 3; i++ {
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.New(st, server.Config{}); err != nil {
			t.Fatal(err)
		}
		n := st.Len()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			objects, size = n, info.Size()
			continue
		}
		if n != objects || info.Size() != size {
			t.Errorf("boot %d: %d objects, %d bytes; first boot left %d objects, %d bytes",
				i+1, n, info.Size(), objects, size)
		}
	}
}

// TestModulesOutliveRestart: CALL and OPTIMIZE find a module installed
// before the server restarted, through its module: root.
func TestModulesOutliveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tyst")
	t.Run("install", func(t *testing.T) {
		_, addr, _ := world(t, path, server.Config{})
		if _, err := dial(t, addr).Install("module demo export double let double(a : Int) : Int = a * 2 end"); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("after restart", func(t *testing.T) {
		_, addr, _ := world(t, path, server.Config{})
		c := dial(t, addr)
		for _, optimize := range []bool{false, true} {
			if optimize {
				if _, err := c.Optimize("demo", "double"); err != nil {
					t.Fatal(err)
				}
			}
			res, err := c.Call("demo", "double", ship.WVal{Kind: ship.WInt, Int: 21})
			if err != nil {
				t.Fatal(err)
			}
			if res.Val.Int != 42 {
				t.Fatalf("demo.double(21) = %s (optimized %v)", res.Val.Show(), optimize)
			}
		}
		_, err := c.Optimize("demo", "nope")
		wantCode(t, err, ship.CodeNotFound)
	})
}
