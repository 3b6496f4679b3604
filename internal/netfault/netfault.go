// Package netfault is the network analogue of internal/iofault: a
// deterministic, seedable fault injector layered under net.Conn and
// net.Listener so the wire path of the tycd server — framing, the
// retrying client, overload shedding, drain — can be tested against the
// failures open environments actually produce. The paper's premise is
// that persistent intermediate code is safely re-shippable across an
// open system boundary; that claim is only as strong as the transport's
// behaviour when the boundary misbehaves, so the faults here are the
// ones TCP really serves: added latency, connections reset mid-frame,
// frames truncated by a dying peer, bytes corrupted in flight, short
// writes, and accept failures.
//
// Two ways to use it:
//
//   - Wrap a net.Listener (WrapListener) or a single net.Conn (WrapConn)
//     so faults fire directly on the wrapped endpoint;
//   - run an in-process Proxy between a real client and a real server:
//     both ends keep their own sockets and the proxy injects faults on
//     the bytes relayed between them, which also lets a test restart the
//     backend under a live client (SetBackend).
//
// Determinism: every connection draws its own rand.Rand seeded from the
// injector seed and the connection's accept sequence number, so a
// deterministic workload sees a reproducible fault schedule per
// connection regardless of goroutine interleaving between connections.
package netfault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error surfaced by operations the injector chose to
// fail; it unwraps from the net.OpError-ish errors returned by faulty
// conns so tests can tell injected faults from real ones.
var ErrInjected = errors.New("netfault: injected fault")

// Config is the fault mix. All probabilities are per-write (or
// per-accept for AcceptFailProb) in [0, 1]; zero values mean the fault
// never fires, so the zero Config is a transparent pass-through.
type Config struct {
	// Seed drives every random choice; the same seed and workload
	// reproduce the same per-connection fault schedule.
	Seed int64

	// DelayProb delays a write by a uniform duration in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected latency; 0 means 5ms.
	MaxDelay time.Duration

	// ResetProb drops the connection before a write: the peer sees a
	// mid-stream close, possibly between a request and its response.
	ResetProb float64

	// TruncateProb delivers only a prefix of a write and then drops the
	// connection: a frame torn mid-body by a dying peer.
	TruncateProb float64

	// CorruptProb flips one byte of a write: the payload arrives with
	// the right length and a wrong CRC.
	CorruptProb float64

	// ShortWriteProb splits one write into two separate deliveries.
	// This is not a failure — TCP never promised write atomicity — but
	// it exercises frame reassembly on the read side.
	ShortWriteProb float64

	// AcceptFailProb closes an accepted connection immediately, before
	// a single byte is exchanged (a listener backlog drop).
	AcceptFailProb float64
}

// Stats counts the faults that actually fired, so a test can assert the
// schedule was not vacuously clean.
type Stats struct {
	Conns       int64 // connections observed
	Delays      int64
	Resets      int64
	Truncations int64
	Corruptions int64
	ShortWrites int64
	AcceptFails int64
}

// Injector hands out per-connection fault schedules.
type Injector struct {
	cfg   Config
	mu    sync.Mutex
	seq   int64
	stats Stats
}

// NewInjector builds an injector for the given fault mix.
func NewInjector(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// Stats snapshots the fired-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// next allocates the RNG for one new connection.
func (in *Injector) next() *rand.Rand {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	in.stats.Conns++
	return rand.New(rand.NewSource(in.cfg.Seed + in.seq*0x9e3779b9))
}

func (in *Injector) count(f *int64) {
	in.mu.Lock()
	*f++
	in.mu.Unlock()
}

// acceptFails decides whether a freshly accepted connection is dropped.
func (in *Injector) acceptFails(rng *rand.Rand) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if rng.Float64() < in.cfg.AcceptFailProb {
		in.stats.AcceptFails++
		return true
	}
	return false
}

// WrapConn layers fault injection over one connection.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &Conn{Conn: c, in: in, rng: in.next()}
}

// WrapListener layers fault injection over every accepted connection.
func (in *Injector) WrapListener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		// fc is not yet shared with any other goroutine, so its RNG can
		// be consulted without the conn mutex.
		fc := l.in.WrapConn(c).(*Conn)
		if l.in.acceptFails(fc.rng) {
			c.Close()
			continue
		}
		return fc, nil
	}
}

// Conn is a fault-injecting connection. Reads pass through untouched
// (every injected fault is modelled at the writer, where TCP damage
// originates); writes consult the connection's schedule.
type Conn struct {
	net.Conn
	in     *Injector
	mu     sync.Mutex
	rng    *rand.Rand
	broken atomic.Bool
}

// decide draws the fate of one write under the connection's RNG.
type fate int

const (
	fateClean fate = iota
	fateDelay
	fateReset
	fateTruncate
	fateCorrupt
	fateShort
)

func (c *Conn) decide() (f fate, delay time.Duration, frac float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := &c.in.cfg
	roll := c.rng.Float64()
	frac = c.rng.Float64()
	switch {
	case roll < cfg.ResetProb:
		return fateReset, 0, frac
	case roll < cfg.ResetProb+cfg.TruncateProb:
		return fateTruncate, 0, frac
	case roll < cfg.ResetProb+cfg.TruncateProb+cfg.CorruptProb:
		return fateCorrupt, 0, frac
	case roll < cfg.ResetProb+cfg.TruncateProb+cfg.CorruptProb+cfg.ShortWriteProb:
		return fateShort, 0, frac
	case roll < cfg.ResetProb+cfg.TruncateProb+cfg.CorruptProb+cfg.ShortWriteProb+cfg.DelayProb:
		return fateDelay, time.Duration(1 + c.rng.Int63n(int64(cfg.MaxDelay))), frac
	}
	return fateClean, 0, frac
}

// Write applies the connection's fault schedule to one write.
func (c *Conn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, &net.OpError{Op: "write", Net: "netfault", Err: ErrInjected}
	}
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	f, delay, frac := c.decide()
	switch f {
	case fateDelay:
		c.in.count(&c.in.stats.Delays)
		time.Sleep(delay)
	case fateReset:
		c.in.count(&c.in.stats.Resets)
		c.broken.Store(true)
		c.Conn.Close()
		return 0, &net.OpError{Op: "write", Net: "netfault", Err: ErrInjected}
	case fateTruncate:
		c.in.count(&c.in.stats.Truncations)
		n := int(frac * float64(len(p))) // strictly less than len(p)
		c.broken.Store(true)
		c.Conn.Write(p[:n])
		c.Conn.Close()
		return n, &net.OpError{Op: "write", Net: "netfault", Err: ErrInjected}
	case fateCorrupt:
		c.in.count(&c.in.stats.Corruptions)
		tainted := append([]byte(nil), p...)
		tainted[int(frac*float64(len(p)))] ^= 0xa5
		n, err := c.Conn.Write(tainted)
		return n, err
	case fateShort:
		c.in.count(&c.in.stats.ShortWrites)
		cut := 1 + int(frac*float64(len(p)-1))
		n, err := c.Conn.Write(p[:cut])
		if err != nil {
			return n, err
		}
		m, err := c.Conn.Write(p[cut:])
		return n + m, err
	}
	return c.Conn.Write(p)
}

// Break poisons the connection: every later write fails. Tests use it
// to model an asymmetric partition.
func (c *Conn) Break() { c.broken.Store(true); c.Conn.Close() }

// --- in-process proxy -------------------------------------------------------

// Proxy relays TCP between clients and a backend, injecting faults on
// the relayed bytes in both directions. The backend address can be
// swapped at runtime (SetBackend) so a test can drain and restart the
// server behind a live, retrying client.
type Proxy struct {
	in *Injector
	ln net.Listener

	mu      sync.Mutex
	backend string
	conns   map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup
}

// NewProxy listens on an ephemeral loopback port and relays to backend.
func NewProxy(backend string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		in:      NewInjector(cfg),
		ln:      ln,
		backend: backend,
		conns:   make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the injector's fired-fault counters.
func (p *Proxy) Stats() Stats { return p.in.Stats() }

// SetBackend points the proxy at a new backend address; established
// relays keep their old backend until they die.
func (p *Proxy) SetBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// DropAll severs every established relay, forcing clients to reconnect.
func (p *Proxy) DropAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops the proxy and severs every relay.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.DropAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		rng := p.in.next()
		if p.in.acceptFails(rng) {
			conn.Close()
			continue
		}
		p.mu.Lock()
		backend := p.backend
		closed := p.closed
		p.mu.Unlock()
		if closed {
			conn.Close()
			return
		}
		up, err := net.DialTimeout("tcp", backend, 2*time.Second)
		if err != nil {
			// Backend down (restart window): the client sees a reset.
			conn.Close()
			continue
		}
		p.track(conn, up)
		// Each direction gets its own RNG derived from the relay's
		// schedule, so the two pipe goroutines never share state.
		fup := &Conn{Conn: up, in: p.in, rng: rand.New(rand.NewSource(rng.Int63()))}
		fdown := &Conn{Conn: conn, in: p.in, rng: rand.New(rand.NewSource(rng.Int63()))}
		p.wg.Add(2)
		go p.pipe(fup, conn) // client → backend, faults on upstream writes
		go p.pipe(fdown, up) // backend → client, faults on downstream writes
	}
}

func (p *Proxy) track(a, b net.Conn) {
	p.mu.Lock()
	p.conns[a] = struct{}{}
	p.conns[b] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(a, b net.Conn) {
	p.mu.Lock()
	delete(p.conns, a)
	delete(p.conns, b)
	p.mu.Unlock()
}

// pipe copies src → dst until either side dies, then severs both so the
// peer notices: a half-dead relay must look like a dead connection, not
// a hang.
func (p *Proxy) pipe(dst *Conn, src net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if rerr != nil {
			break
		}
	}
	src.Close()
	dst.Conn.Close()
	p.untrack(src, dst.Conn)
}

// String describes the fault mix for logs.
func (c Config) String() string {
	return fmt.Sprintf("netfault(seed=%d delay=%.2f reset=%.2f trunc=%.2f corrupt=%.2f short=%.2f acceptfail=%.2f)",
		c.Seed, c.DelayProb, c.ResetProb, c.TruncateProb, c.CorruptProb, c.ShortWriteProb, c.AcceptFailProb)
}
