package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/iofault"
	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/server"
	"tycoon/internal/store"
)

// TestCrashAtEveryOpInstall crashes one served INSTALL at every
// filesystem operation in turn — and once after its last — over a store
// whose library committed at boot. Each reopened store holds the whole
// module, callable, or none of its objects and no module root.
func TestCrashAtEveryOpInstall(t *testing.T) {
	const path = "d/install.tyst"
	const src = `module m export f let f(n : Int) : Int = n * 3 end`
	// install boots a server over fs, arms a crash crashAt operations
	// into the INSTALL (none if negative), installs src, and drains. It
	// returns the store's object count after boot and the operations the
	// INSTALL performed.
	install := func(fs *iofault.MemFS, crashAt int) (booted, ops int) {
		st, err := store.OpenFS(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		srv, err := server.New(st, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx) // a crashed store fails the drain's flush
		}()
		c, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		inj := fs.Injector()
		booted, start := st.Len(), inj.Ops()
		if crashAt >= 0 {
			inj.CrashAt(start + crashAt)
		}
		if _, err := c.Install(src); err != nil && crashAt < 0 {
			t.Fatal(err)
		}
		return booted, inj.Ops() - start
	}

	booted, ops := install(iofault.NewMemFS(iofault.NewInjector(1)), -1)
	if ops == 0 {
		t.Fatal("the INSTALL performed no filesystem operation")
	}
	var whole, none int
	for crashAt := 0; crashAt <= ops; crashAt++ {
		fs := iofault.NewMemFS(iofault.NewInjector(int64(crashAt + 1)))
		install(fs, crashAt)
		fs.Crash()
		st, err := store.OpenFS(fs, path)
		if err != nil {
			t.Fatalf("crash at op %d: reopen: %v", crashAt, err)
		}
		mod, ok := st.Root(linker.ModuleRoot + "m")
		switch {
		case !ok && st.Len() == booted:
			none++
		case !ok:
			t.Errorf("crash at op %d: no module root, but %d objects where boot left %d", crashAt, st.Len(), booted)
		default:
			whole++
			v, err := machine.New(st).CallExport(mod, "f", []machine.Value{machine.Int(14)})
			if err != nil || v != machine.Value(machine.Int(42)) {
				t.Errorf("crash at op %d: m.f(14) = %v, %v; want 42", crashAt, v, err)
			}
		}
		st.Close()
	}
	if whole == 0 || none == 0 {
		t.Errorf("over %d operations: %d whole modules, %d stores without it; want some of each", ops, whole, none)
	}
}
