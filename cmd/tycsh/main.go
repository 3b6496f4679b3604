// Command tycsh is the remote shell for a tycd server: a line-oriented
// client that installs modules, calls functions, submits TML terms over
// the wire as PTML, triggers reflective optimization, and inspects the
// server's shared-cache statistics.
//
// Usage:
//
//	tycsh -addr 127.0.0.1:7411 [-retries n] [-timeout d] [script...]
//
// With no script arguments it reads stdin. Requests are retried per the
// client taxonomy (-retries attempts beyond the first; idempotent work
// carries idempotency keys so retried saves apply exactly once).
//
// Commands (one per line; '#' starts a comment):
//
//	ping
//	health                       server mode: ok, degraded or draining
//	stats
//	install <file.tl>            install a TL module from a source file
//	install <<                   ...heredoc until a line containing only "."
//	call <module>.<fn> [arg...]  call an exported function
//	call @<name> [arg...]        call a closure saved by submit
//	optimize <module>.<fn>       reflectively optimize server-side
//	submit [opt] [explain=] [save=<name>] [merge=<auto|sum|any|all>] [<var>=<value>...] (<tml term>)
//	watch [n=<count>] <pattern>...
//	                             stream committed root changes matching
//	                             the patterns ('*' wildcards) until
//	                             interrupted, or n notifications arrive
//	quit
//
// Exit codes distinguish failure layers: 1 for local/usage errors, 2
// when the byte stream failed to parse as the wire protocol, 3 when the
// server answered a structured error, 4 for transport failures (dial,
// reset, timeout).
//
// Argument and binding values: integers (42), reals (3.5), true/false,
// strings ("x"), chars ('c'), roots (@rel:t), OIDs (<0x1f>), () for nil.
// In a submitted term, free variables e and k are the server-provided
// exception and result continuations; all other free variables must be
// bound on the command line.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/ship"
)

// Exit codes per failure layer.
const (
	exitLocal     = 1
	exitProto     = 2
	exitServer    = 3
	exitTransport = 4
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "tycd server address")
	timeout := flag.Duration("timeout", time.Minute, "per-request timeout")
	retries := flag.Int("retries", 3, "retry attempts per request beyond the first (0 disables)")
	verbose := flag.Bool("v", false, "print per-request execution stats")
	interactive := flag.Bool("i", false, "print a prompt")
	flag.Parse()

	opts := client.Options{
		Timeout: *timeout,
		Retries: *retries,
		Client:  "tycsh",
	}
	c, err := client.Dial(*addr, opts)
	if err != nil {
		fatalCode(classCode(err), "connect %s: %v", *addr, err)
	}
	defer c.Close()

	sh := &shell{c: c, addr: *addr, opts: opts, verbose: *verbose}
	if args := flag.Args(); len(args) > 0 {
		for _, path := range args {
			f, err := os.Open(path)
			if err != nil {
				fatal("%v", err)
			}
			err = sh.runScript(bufio.NewReader(f), false)
			f.Close()
			if err != nil {
				sh.abort(path+": ", err)
			}
		}
		sh.exit()
	}
	if err := sh.runScript(bufio.NewReader(os.Stdin), *interactive); err != nil {
		sh.abort("", err)
	}
	sh.exit()
}

func fatal(format string, args ...any) {
	fatalCode(exitLocal, format, args...)
}

func fatalCode(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tycsh: "+format+"\n", args...)
	os.Exit(code)
}

// classCode maps a request error to its exit code.
func classCode(err error) int {
	switch client.Classify(err) {
	case client.ClassProtocol:
		return exitProto
	case client.ClassServer:
		return exitServer
	default:
		return exitTransport
	}
}

// requestError marks an error that came out of a wire request (as
// opposed to a local usage or file error), so the abort path can pick
// the transport/protocol exit code.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// reqErr wraps a client-call error; nil stays nil.
func reqErr(err error) error {
	if err == nil {
		return nil
	}
	return &requestError{err}
}

type shell struct {
	c       *client.Client
	addr    string
	opts    client.Options
	verbose bool
	// serverErr remembers that some command got a structured server
	// error (the script continues past those): the shell then exits
	// nonzero even though it ran to the end.
	serverErr bool
}

// abort terminates the shell on a script-stopping error with the exit
// code of its failure layer.
func (sh *shell) abort(prefix string, err error) {
	var re *requestError
	if errors.As(err, &re) {
		fatalCode(classCode(re.err), "%s%v", prefix, re.err)
	}
	fatalCode(exitLocal, "%s%v", prefix, err)
}

// exit ends a completed run: 0, or the server-error code if any command
// was answered with a structured error along the way.
func (sh *shell) exit() {
	if sh.serverErr {
		os.Exit(exitServer)
	}
	os.Exit(0)
}

// runScript executes commands line by line. Command failures are
// reported and the script continues — the server keeps the session open
// after an error response — but transport failures abort.
func (sh *shell) runScript(r *bufio.Reader, prompt bool) error {
	for {
		if prompt {
			fmt.Print("tycsh> ")
		}
		line, err := r.ReadString('\n')
		if line == "" && err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if cmdErr := sh.exec(strings.TrimSpace(line), r); cmdErr != nil {
			if cmdErr == errQuit {
				return nil
			}
			var we *ship.WireError
			if errors.As(cmdErr, &we) {
				fmt.Fprintf(os.Stderr, "error: %v\n", we)
				sh.serverErr = true
				continue // session survives structured errors
			}
			return cmdErr
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

var errQuit = errors.New("quit")

func (sh *shell) exec(line string, r *bufio.Reader) error {
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "quit", "exit":
		return errQuit
	case "ping":
		if err := sh.c.Ping(); err != nil {
			return reqErr(err)
		}
		fmt.Println("pong")
		return nil
	case "health":
		h, err := sh.c.Health()
		if err != nil {
			return reqErr(err)
		}
		fmt.Printf("status %s, sessions %d, inflight %d\n", h.Status, h.Sessions, h.Inflight)
		if h.Degraded {
			fmt.Printf("degraded: %s\n", h.Reason)
		}
		// Against a coordinator, health also shows each replica's repair
		// state: whether it serves reads, how many acked writes wait in
		// its handoff log, and the CSN its last repair audit recorded.
		if st, err := sh.c.Stats(); err == nil && st.Cluster != nil {
			for _, r := range st.Cluster.Replicas {
				line := fmt.Sprintf("replica shard%d %s %s", r.Shard, r.Addr, replicaState(r))
				if r.Backlog > 0 {
					line += fmt.Sprintf(" backlog %d", r.Backlog)
				}
				if r.LastRepairCSN > 0 {
					line += fmt.Sprintf(" last-repair-csn %d", r.LastRepairCSN)
				}
				fmt.Println(line)
			}
			if st.Cluster.RepairMismatch > 0 {
				fmt.Printf("repair MISMATCH: %d anti-entropy audit failures — run tycfsck -cluster\n",
					st.Cluster.RepairMismatch)
			}
		}
		return nil
	case "stats":
		st, err := sh.c.Stats()
		if err != nil {
			return reqErr(err)
		}
		fmt.Printf("sessions %d (total %d)", st.Sessions, st.TotalSessions)
		if st.Draining {
			fmt.Print(" draining")
		}
		if st.Degraded {
			fmt.Printf(" degraded (%s)", st.DegradedReason)
		}
		if st.Shed > 0 {
			fmt.Printf(" shed %d", st.Shed)
		}
		if st.IdemApplied+st.IdemDeduped > 0 {
			fmt.Printf(" idem %d/%d", st.IdemApplied, st.IdemDeduped)
		}
		fmt.Printf("\npipeline: hits %d misses %d shared %d errors %d entries %d\n",
			st.Pipeline.Hits, st.Pipeline.Misses, st.Pipeline.Shared,
			st.Pipeline.Errors, st.Pipeline.Entries)
		fmt.Printf("indexes: builds %d extends %d hits %d horizon-hits %d invalidations %d\n",
			st.Indexes.Builds, st.Indexes.Extends, st.Indexes.Hits,
			st.Indexes.HorizonHits, st.Indexes.Invalidations)
		if sb := st.Store; sb != nil {
			fmt.Printf("store: snapshots %d txns %d/%d conflicts %d batches %d (mean %.1f txns)\n",
				sb.OpenSnapshots, sb.Committed, sb.Aborted, sb.Conflicts,
				sb.Batches, sb.MeanBatch)
			if sb.Backlog > 0 || sb.FlushErr != "" {
				fmt.Printf("store backlog: %d txns pending (%s)\n", sb.Backlog, sb.FlushErr)
			}
		}
		for name, vs := range st.Verbs {
			fmt.Printf("verb %-9s count %d errors %d avg %s\n", name, vs.Count, vs.Errors,
				avg(vs.Micros, vs.Count))
		}
		if w := st.Watch; w != nil {
			fmt.Printf("watch: %d subscribers (total %d, resumed %d) events %d delivered %d backlog %d\n",
				w.Subscribers, w.TotalWatches, w.Resumed, w.Events, w.Delivered, w.Backlog)
			if w.Dropped > 0 || w.LostHorizon > 0 {
				fmt.Printf("watch pressure: dropped %d lost-horizon %d\n", w.Dropped, w.LostHorizon)
			}
		}
		if cl := st.Cluster; cl != nil {
			fmt.Printf("cluster: %d shards, scatter %d routed %d failovers %d hedges %d/%d partials %d\n",
				cl.Shards, cl.Scatter, cl.Routed, cl.Failovers, cl.HedgeWins, cl.Hedges, cl.Partials)
			if cl.HandoffWrites+cl.RepairShipped+cl.Repairs+cl.RepairMismatch > 0 {
				fmt.Printf("repair: handoff writes %d replayed %d repairs %d mismatches %d\n",
					cl.HandoffWrites, cl.RepairShipped, cl.Repairs, cl.RepairMismatch)
			}
			for _, r := range cl.Replicas {
				fmt.Printf("replica shard%d %s %s fails %d idle %d backlog %d\n",
					r.Shard, r.Addr, replicaState(r), r.Fails, r.Idle, r.Backlog)
			}
		}
		// The session's own resilience counters — how hard this shell
		// had to work to look like a clean request stream.
		ct := sh.c.Counters()
		fmt.Printf("local: attempts %d retries %d reconnects %d retry-after honored %d\n",
			ct.Attempts, ct.Retries, ct.Reconnects, ct.RetryAfterHonored)
		return nil
	case "install":
		src, err := installSource(rest, r)
		if err != nil {
			return err
		}
		res, err := sh.c.Install(src)
		if err != nil {
			return reqErr(err)
		}
		fmt.Printf("installed %s\n", res.Val.Str)
		return nil
	case "call":
		target, args, err := splitCall(rest)
		if err != nil {
			return err
		}
		var res *ship.Result
		if strings.HasPrefix(target, "@") {
			res, err = sh.c.Call("", target[1:], args...)
		} else {
			mod, fn, ok := strings.Cut(target, ".")
			if !ok {
				return fmt.Errorf("call: want module.fn or @saved, got %q", target)
			}
			res, err = sh.c.Call(mod, fn, args...)
		}
		if err != nil {
			return reqErr(err)
		}
		sh.print(res)
		return nil
	case "optimize":
		mod, fn, ok := strings.Cut(rest, ".")
		if !ok {
			return fmt.Errorf("optimize: want module.fn, got %q", rest)
		}
		res, err := sh.c.Optimize(mod, fn)
		if err != nil {
			return reqErr(err)
		}
		fmt.Printf("optimized %s (cache hit %t, inlined %d, rewrites %d)\n",
			res.Val.Str, res.Info.CacheHit, res.Info.Inlined, res.Info.Rewrites)
		return nil
	case "submit":
		req, err := parseSubmit(rest)
		if err != nil {
			return err
		}
		res, err := sh.c.SubmitTMLPlan(req.name, req.term, req.binds, req.optimize, req.save, req.merge, req.explain)
		if err != nil {
			return reqErr(err)
		}
		sh.print(res)
		return nil
	case "watch":
		return sh.watch(rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// watch subscribes to committed root changes matching the given
// patterns and prints one line per notification until interrupted (or
// until n=<count> notifications, for scripts). The subscription rides
// its own wire session; this session stays free for the next command.
func (sh *shell) watch(rest string) error {
	limit := int64(-1)
	var patterns []string
	for _, tok := range strings.Fields(rest) {
		if v, ok := strings.CutPrefix(tok, "n="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("watch: bad count %q", tok)
			}
			limit = n
			continue
		}
		patterns = append(patterns, tok)
	}
	if len(patterns) == 0 {
		return fmt.Errorf("watch: want at least one root pattern")
	}
	w, err := client.NewWatcher(sh.addr, patterns, 0, sh.opts)
	if err != nil {
		return reqErr(err)
	}
	defer w.Close()
	fmt.Printf("watching %s from csn %d\n", strings.Join(patterns, " "), w.Pos())
	for limit != 0 {
		ev, err := w.Next()
		if err != nil {
			if errors.Is(err, client.ErrWatcherClosed) {
				return nil
			}
			return reqErr(err)
		}
		fmt.Printf("notify %s oid <0x%x> csn %d\n", ev.Root, ev.OID, ev.CSN)
		if limit > 0 {
			limit--
		}
	}
	return nil
}

func avg(micros, count int64) time.Duration {
	if count == 0 {
		return 0
	}
	return time.Duration(micros/count) * time.Microsecond
}

// replicaState renders one replica's combined health: the repair state
// (live/lagging/repairing, from the coordinator's handoff machinery)
// qualified by the connectivity latch.
func replicaState(r ship.ReplicaStat) string {
	state := r.State
	if state == "" {
		state = "live" // a coordinator without handoff reports no state
	}
	if r.Down {
		state += "+DOWN"
	}
	return state
}

func (sh *shell) print(res *ship.Result) {
	if res.Val.Kind == ship.WRel && res.Val.Rel != nil {
		t := res.Val.Rel
		if len(t.Cols) > 0 {
			fmt.Println(strings.Join(t.Cols, "\t"))
		}
		for _, row := range t.Rows {
			cells := make([]string, len(row))
			for i, f := range row {
				cells[i] = f.Show()
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		fmt.Printf("(%d rows)\n", len(t.Rows))
	} else {
		fmt.Println(res.Val.Show())
	}
	if res.Partial {
		fmt.Printf("(partial: missing %s)\n", strings.Join(res.Missing, ", "))
	}
	if res.Explain != "" {
		fmt.Println("plan:")
		for _, line := range strings.Split(res.Explain, "\n") {
			fmt.Println("  " + line)
		}
	}
	if sh.verbose {
		fmt.Fprintf(os.Stderr, "steps %d, %s, cache hit %t\n",
			res.Info.Steps, time.Duration(res.Info.Micros)*time.Microsecond, res.Info.CacheHit)
	}
}

// installSource resolves the install argument: a file path, or "<<" for
// a heredoc terminated by a line containing only ".".
func installSource(rest string, r *bufio.Reader) (string, error) {
	if rest == "<<" {
		var b strings.Builder
		for {
			line, err := r.ReadString('\n')
			if strings.TrimSpace(line) == "." {
				return b.String(), nil
			}
			b.WriteString(line)
			if err != nil {
				return "", fmt.Errorf("install: heredoc not terminated by \".\"")
			}
		}
	}
	if rest == "" {
		return "", fmt.Errorf("install: want a file path or <<")
	}
	data, err := os.ReadFile(rest)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// splitCall separates the call target from its argument values.
func splitCall(rest string) (string, []ship.WVal, error) {
	fields := splitArgs(rest)
	if len(fields) == 0 {
		return "", nil, fmt.Errorf("call: missing target")
	}
	args := make([]ship.WVal, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := parseWVal(f)
		if err != nil {
			return "", nil, err
		}
		args = append(args, v)
	}
	return fields[0], args, nil
}

type submitReq struct {
	name, term, save string
	optimize         bool
	explain          bool
	merge            ship.Merge
	binds            []ship.WBind
}

// parseSubmit parses: [opt] [explain=] [name=<label>] [save=<name>]
// [merge=<policy>] [var=value...] followed by the TML term (everything
// from the first '('). The merge policy (auto/sum/any/all) only matters
// against a cluster coordinator, which uses it to combine partitioned
// scalar answers; a plain server ignores it.
func parseSubmit(rest string) (*submitReq, error) {
	req := &submitReq{}
	for rest != "" {
		if rest[0] == '(' {
			req.term = rest
			return req, nil
		}
		tok, remainder, _ := strings.Cut(rest, " ")
		rest = strings.TrimSpace(remainder)
		switch {
		case tok == "opt":
			req.optimize = true
		case tok == "explain" || strings.HasPrefix(tok, "explain="):
			switch strings.TrimPrefix(strings.TrimPrefix(tok, "explain"), "=") {
			case "", "on", "true", "1":
				req.explain = true
			case "off", "false", "0":
				req.explain = false
			default:
				return nil, fmt.Errorf("submit: bad explain token %q", tok)
			}
		case strings.HasPrefix(tok, "save="):
			req.save = tok[len("save="):]
		case strings.HasPrefix(tok, "name="):
			req.name = tok[len("name="):]
		case strings.HasPrefix(tok, "merge="):
			m, err := ship.ParseMerge(tok[len("merge="):])
			if err != nil {
				return nil, err
			}
			req.merge = m
		case strings.Contains(tok, "="):
			name, val, _ := strings.Cut(tok, "=")
			v, err := parseWVal(val)
			if err != nil {
				return nil, fmt.Errorf("binding %s: %w", name, err)
			}
			req.binds = append(req.binds, ship.WBind{Name: name, Val: v})
		default:
			return nil, fmt.Errorf("submit: unexpected token %q before term", tok)
		}
	}
	return nil, fmt.Errorf("submit: missing term")
}

// splitArgs splits on spaces, keeping double-quoted strings intact.
func splitArgs(s string) []string {
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		if s[0] == '"' {
			if i := strings.Index(s[1:], `"`); i >= 0 {
				out = append(out, s[:i+2])
				s = s[i+2:]
				continue
			}
		}
		tok, rest, _ := strings.Cut(s, " ")
		out = append(out, tok)
		s = rest
	}
	return out
}

// parseWVal parses one command-line value literal.
func parseWVal(tok string) (ship.WVal, error) {
	switch {
	case tok == "()":
		return ship.WVal{Kind: ship.WNil}, nil
	case tok == "true" || tok == "false":
		return ship.WVal{Kind: ship.WBool, Bool: tok == "true"}, nil
	case strings.HasPrefix(tok, "@"):
		return ship.WVal{Kind: ship.WRoot, Str: tok[1:]}, nil
	case strings.HasPrefix(tok, `"`) && strings.HasSuffix(tok, `"`) && len(tok) >= 2:
		s, err := strconv.Unquote(tok)
		if err != nil {
			return ship.WVal{}, fmt.Errorf("bad string %s: %v", tok, err)
		}
		return ship.WVal{Kind: ship.WStr, Str: s}, nil
	case strings.HasPrefix(tok, "'") && strings.HasSuffix(tok, "'") && len(tok) == 3:
		return ship.WVal{Kind: ship.WChar, Ch: tok[1]}, nil
	case strings.HasPrefix(tok, "<0x") && strings.HasSuffix(tok, ">"):
		n, err := strconv.ParseUint(tok[3:len(tok)-1], 16, 64)
		if err != nil {
			return ship.WVal{}, fmt.Errorf("bad oid %s: %v", tok, err)
		}
		return ship.WVal{Kind: ship.WRef, Ref: n}, nil
	}
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return ship.WVal{Kind: ship.WInt, Int: n}, nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return ship.WVal{Kind: ship.WReal, Real: f}, nil
	}
	return ship.WVal{}, fmt.Errorf("cannot parse value %q", tok)
}
