package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child-process plumbing: build the real binaries, boot them on
// ephemeral ports, read their /proc accounting, drain them with
// SIGTERM, and guarantee that no child outlives the benchmark on any
// exit path.

// env is the build and scratch environment of one benchmark process.
type env struct {
	root string // repository (checkout) root
	bin  string // built tycd/tycc live here
	tmp  string // this process's scratch directory, removed on exit
}

// findRoot walks up from the working directory to the go.mod of module
// tycoon — the benchmark is its own nested module, so the parent
// directory in a checkout.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module tycoon\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module tycoon above the working directory (run from inside a checkout)")
		}
		dir = parent
	}
}

// newEnv resolves the directories; everything the benchmark writes
// lives under <root>/.bench_build or <root>/benchmark/out.
func newEnv(root string) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: abs, bin: filepath.Join(abs, ".bench_build", "bin")}
	tmp := filepath.Join(abs, ".bench_build", "tmp")
	for _, d := range []string{e.bin, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// One scratch directory per benchmark process, so removing it on
	// exit never touches another run's stores.
	if e.tmp, err = os.MkdirTemp(tmp, "p"); err != nil {
		return nil, err
	}
	return e, nil
}

// build compiles cmd/tycd and cmd/tycc from the checkout's source. The
// go command's own cache makes the second call a staleness check.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(os.PathSeparator), "./cmd/tycd", "./cmd/tycc")
	cmd.Dir = e.root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/tycd ./cmd/tycc: %w\n%s", err, out.String())
	}
	return nil
}

// children tracks every live child so a signal or a failure path can
// kill them all; each child leads its own process group.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// child is one running tycd or tycc.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
	done chan struct{} // closed once Wait returned
	err  error
}

// spawn starts bin with args plus an ephemeral listen address and waits
// until the child has published its bound address — for tycd that is
// after the store was opened and replayed, so the wait is part of the
// set-up cost the caller times.
func (e *env) spawn(name, bin, dir string, args ...string) (*child, error) {
	portfile := filepath.Join(dir, name+".port")
	os.Remove(portfile)
	full := append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile, "-q"}, args...)
	c := &child{name: name, log: &bytes.Buffer{}, done: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(e.bin, bin), full...)
	c.cmd.Dir = dir
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()

	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(portfile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			c.addr = strings.TrimSpace(string(data))
			return c, nil
		}
		select {
		case <-c.done:
			c.forget()
			return nil, fmt.Errorf("%s exited during start-up: %v\n%s", name, c.err, c.log.String())
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s did not publish its address within 60s\n%s", name, c.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) forget() {
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// drain asks the child to shut down gracefully and waits for it; a
// child that ignores SIGTERM for 40 s is killed and reported.
func (c *child) drain() error {
	defer c.forget()
	select {
	case <-c.done:
		return fmt.Errorf("%s had already exited: %v\n%s", c.name, c.err, c.log.String())
	default:
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", c.name, err)
	}
	select {
	case <-c.done:
		if c.err != nil {
			return fmt.Errorf("%s drain: %v\n%s", c.name, c.err, c.log.String())
		}
		return nil
	case <-time.After(40 * time.Second):
		c.kill()
		return fmt.Errorf("%s did not drain within 40s", c.name)
	}
}

// kill terminates the child's whole process group and reaps it.
func (c *child) kill() {
	if c.cmd.Process != nil {
		syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-c.done
	c.forget()
}

// reapOnPanic, deferred at the top of every goroutine the benchmark
// starts, keeps a bug in the benchmark from orphaning servers: the
// children are killed before the panic takes the process down.
func reapOnPanic() {
	if r := recover(); r != nil {
		killAll()
		panic(r)
	}
}

// killAll is the last-resort sweep for failure, panic and signal paths.
func killAll() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// procSample is one reading of a child's kernel accounting.
type procSample struct {
	cpuUser, cpuSys float64 // seconds
	rssPeakMB       float64 // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for every architecture Go supports.
const clockTick = 100

// sample reads /proc/<pid>/stat and /proc/<pid>/status.
func (c *child) sample() (procSample, error) {
	var ps procSample
	pid := strconv.Itoa(c.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return ps, err
	}
	// The command name may contain spaces; fields resume after ")".
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return ps, fmt.Errorf("unparseable /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseFloat(fields[11], 64) // field 14: utime
	st, _ := strconv.ParseFloat(fields[12], 64) // field 15: stime
	ps.cpuUser, ps.cpuSys = ut/clockTick, st/clockTick
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			ps.rssPeakMB = kb / 1024
		}
	}
	return ps, nil
}

// environment describes the machine a result was measured on; results
// from different CPU models are never compared.
type environment struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Filesystem string `json:"tmp_filesystem"`
	Flush      string `json:"flush_policy"`
}

func readEnvironment(tmp string) environment {
	e := environment{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPU: "unknown",
		Filesystem: "unknown", Flush: "fsync on every commit batch (tycd default)"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					e.CPU = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	// The longest mount point that prefixes tmp names its filesystem.
	if data, err := os.ReadFile("/proc/mounts"); err == nil {
		best := -1
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (tmp == mp || strings.HasPrefix(tmp, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
				best, e.Filesystem = len(mp), f[2]
			}
		}
	}
	return e
}
