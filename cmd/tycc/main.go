// Command tycc runs the Tycoon cluster coordinator: a TYWR01 server
// that plans distributed requests over N tycd shards. Each -shard flag
// names one shard's replicas (comma-separated addresses, preference
// order); shard index order fixes the hash-ring placement, so restart
// tycc with the shards in the same order. Saving submits route to the
// shard owning the save name and apply to every replica; plain submits
// scatter to all shards and merge; installs fan out everywhere.
// SIGINT/SIGTERM drain gracefully.
//
// Usage:
//
//	tycc -shard 127.0.0.1:7411 -shard 127.0.0.1:7412 -shard 127.0.0.1:7413
//	tycc -shard 127.0.0.1:7411,127.0.0.1:7421 -hedge 30ms -partial
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tycoon/internal/cluster"
)

// shardList collects repeated -shard flags.
type shardList []cluster.Shard

func (s *shardList) String() string { return fmt.Sprintf("%d shards", len(*s)) }

func (s *shardList) Set(v string) error {
	var replicas []string
	for _, addr := range strings.Split(v, ",") {
		addr = strings.TrimSpace(addr)
		if addr != "" {
			replicas = append(replicas, addr)
		}
	}
	if len(replicas) == 0 {
		return fmt.Errorf("empty shard replica list")
	}
	*s = append(*s, cluster.Shard{Replicas: replicas})
	return nil
}

func main() {
	var shards shardList
	flag.Var(&shards, "shard", "one shard's replica addresses, comma-separated (repeat per shard, in ring order)")
	addr := flag.String("addr", "127.0.0.1:7410", "listen address (port 0 picks an ephemeral port)")
	portfile := flag.String("portfile", "", "write the bound address to this file once listening")
	hedge := flag.Duration("hedge", 0, "hedge shard reads slower than this against another replica (0: off)")
	retries := flag.Int("retries", 0, "per-shard request retries (0: default)")
	timeout := flag.Duration("timeout", 0, "per-shard request timeout (0: default)")
	inflight := flag.Int("inflight", 0, "max concurrent requests before shedding with overloaded (0: default, negative: unbounded)")
	partial := flag.Bool("partial", false, "degrade scatter reads to partial results naming missing shard ranges when a shard is down")
	handoffDir := flag.String("handoff-dir", "", "directory for per-replica write-ahead handoff logs; enables replica repair (unset: writes fail with replica-down while a replica is unreachable)")
	repairEvery := flag.Duration("repair-interval", 0, "pace of the background repair loop draining handoff logs (0: default)")
	idle := flag.Duration("idle", 0, "close sessions idle for this long (0: never)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown grace period")
	quiet := flag.Bool("q", false, "suppress the coordinator log")
	flag.Parse()

	if len(shards) == 0 {
		fatal("no shards: pass at least one -shard host:port[,host:port...]")
	}
	cfg := cluster.Config{
		Topology:       cluster.Topology{Shards: shards},
		HedgeAfter:     *hedge,
		Retries:        *retries,
		Timeout:        *timeout,
		MaxInflight:    *inflight,
		AllowPartial:   *partial,
		HandoffDir:     *handoffDir,
		RepairInterval: *repairEvery,
		IdleTimeout:    *idle,
	}
	if !*quiet {
		cfg.Out = os.Stderr
	}
	co, err := cluster.New(cfg)
	if err != nil {
		fatal("start coordinator: %v", err)
	}
	srv := cluster.NewServer(co)

	ready := make(chan net.Listener, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr, ready) }()

	ln, ok := <-ready
	if !ok || ln == nil {
		fatal("listen %s: %v", *addr, <-errCh)
	}
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "tycc: %d shards, listening on %s\n", len(shards), bound)
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound+"\n"), 0o644); err != nil {
			fatal("write portfile: %v", err)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "tycc: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tycc: drain: %v\n", err)
		}
	case err := <-errCh:
		if err != nil {
			fatal("serve: %v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tycc: "+format+"\n", args...)
	os.Exit(1)
}
