// Package chaos is a seed-deterministic network fault-injection layer for
// the eval fabric. It wraps the gateway's injectable Dial hook with
// connections that misbehave on a script: added latency, connection resets
// mid-frame, truncated or bit-flipped byte streams, slow-loris trickle
// reads, duplicated frame delivery, and full partitions that silently drop
// traffic instead of closing.
//
// Determinism is the point. Every fault decision is a pure function of
// (seed, connection key, byte offset): each connection gets its own PRNG
// seeded from the injector seed and the connection's stable key
// ("addr#ordinal/dial"), so concurrent connections cannot perturb each
// other's schedules, and two runs with the same seed and the same dial
// order produce byte-identical fault schedules (Schedule pins this in
// tests). Timers run on an injected Clock so chaos tests compose with the
// fabric's fake clock.
//
// The injector never fabricates traffic; it only delays, drops, flips, or
// repeats bytes the wrapped endpoints actually move. Duplicate delivery
// works at Write granularity because fabric.WriteFrame issues exactly one
// Write per frame — duplicating a Write duplicates a frame on the wire.
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// Clock is the subset of serve.Clock chaos needs; the serving clocks
// satisfy it without chaos importing fabric or serve.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// WallClock returns the real-time clock (the default when New gets nil).
func WallClock() Clock { return wallClock{} }

// Direction selects which half of a connection a fault applies to, from the
// wrapped endpoint's point of view: Inbound faults afflict Reads, Outbound
// faults afflict Writes, Both afflicts both.
type Direction int

const (
	Both Direction = iota
	Inbound
	Outbound
)

func (d Direction) String() string {
	switch d {
	case Inbound:
		return "in"
	case Outbound:
		return "out"
	default:
		return "both"
	}
}

// Kind enumerates the fault taxonomy (DESIGN.md §11).
type Kind int

const (
	// KindLatency delays every Read/Write by Delay before moving bytes.
	KindLatency Kind = iota + 1
	// KindReset closes the underlying connection once After bytes have
	// crossed in the fault's direction — a mid-frame connection reset.
	KindReset
	// KindTruncate delivers only the first After bytes in the fault's
	// direction; reads then hit EOF, writes silently vanish (a peer that
	// stops reading / a stream cut mid-frame).
	KindTruncate
	// KindCorrupt XORs the byte at offset After with XOR (a PRNG-chosen
	// nonzero byte when XOR is 0) — a single bit-flip class corruption.
	KindCorrupt
	// KindSlowLoris clamps each transfer to Chunk bytes and inserts Delay
	// between them — a peer that keeps the connection alive while feeding
	// it one byte at a time.
	KindSlowLoris
	// KindDuplicate repeats every Every'th Write verbatim — duplicate
	// frame delivery, since the fabric writes one frame per Write.
	KindDuplicate
	// KindPartition is address-scoped, not offset-scoped: while an address
	// is partitioned, new dials fail, reads block (no FIN, no RST — just
	// silence), and writes are silently dropped. Heal breaks parked reads
	// with an error so the endpoint redials a clean connection.
	KindPartition
)

func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindReset:
		return "reset"
	case KindTruncate:
		return "truncate"
	case KindCorrupt:
		return "corrupt"
	case KindSlowLoris:
		return "slowloris"
	case KindDuplicate:
		return "duplicate"
	case KindPartition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scripted misbehavior. Zero parameters take per-kind
// defaults resolved deterministically at connection setup.
type Fault struct {
	Kind  Kind
	Dir   Direction
	After int64         // byte offset for Reset/Truncate/Corrupt
	Delay time.Duration // Latency/SlowLoris pause
	Chunk int           // SlowLoris max bytes per transfer (default 1)
	XOR   byte          // Corrupt mask; 0 = PRNG-chosen nonzero byte
	Every int           // Duplicate period in Writes (default 1 = every write)
}

// Rule scopes a fault to connections: Addr matches the dial target
// ("" = every address), Conn matches the per-address connection ordinal
// (-1 = every connection).
type Rule struct {
	Addr  string
	Conn  int
	Fault Fault
}

// Plan is the fault script an Injector executes.
type Plan struct {
	Rules []Rule
}

// On is a convenience constructor for a single-rule plan fragment.
func On(addr string, conn int, f Fault) Rule { return Rule{Addr: addr, Conn: conn, Fault: f} }

// ErrPartitioned is returned by dials into (and reads that outlive) a
// partition.
var ErrPartitioned = errors.New("chaos: partitioned")

// DialFunc matches fabric.GatewayConfig.Dial.
type DialFunc func(addr string) (net.Conn, error)

// Injector owns one chaos run: the seed, the plan, the per-address
// connection ordinals, the partition set, and the event journal.
type Injector struct {
	seed  int64
	plan  Plan
	clock Clock

	mu       sync.Mutex
	ordinals map[string]int
	parts    map[string]bool
	partAll  bool
	partGen  chan struct{} // closed and replaced on every Heal
	events   map[string][]string
	keys     []string // connection keys in creation order (per-key logs stay ordered)
}

// New builds an injector. A nil clock means WallClock.
func New(seed int64, plan Plan, clock Clock) *Injector {
	if clock == nil {
		clock = WallClock()
	}
	return &Injector{
		seed:     seed,
		plan:     plan,
		clock:    clock,
		ordinals: map[string]int{},
		parts:    map[string]bool{},
		partGen:  make(chan struct{}),
		events:   map[string][]string{},
	}
}

// connSeed derives a connection's private PRNG seed from the injector seed
// and the connection key, so fault parameters depend only on (seed, key).
func (in *Injector) connSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return in.seed ^ int64(h.Sum64())
}

// record appends one event to a connection's journal.
func (in *Injector) record(key, format string, args ...any) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.events[key]; !ok {
		in.keys = append(in.keys, key)
	}
	in.events[key] = append(in.events[key], fmt.Sprintf(format, args...))
}

// Schedule renders the fault journal: one "key: event" line per recorded
// event, grouped by connection key in sorted order, events in occurrence
// order within a connection. Because every decision is keyed to the
// connection, two same-seed runs over the same dial sequence produce
// identical schedules regardless of goroutine interleaving.
func (in *Injector) Schedule() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	keys := append([]string(nil), in.keys...)
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		for _, e := range in.events[k] {
			out = append(out, k+": "+e)
		}
	}
	return out
}

// Partition drops an address off the network: dials to it fail, its live
// connections black-hole (reads park, writes vanish). addr "" partitions
// everything.
func (in *Injector) Partition(addr string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if addr == "" {
		in.partAll = true
	} else {
		in.parts[addr] = true
	}
}

// Heal lifts a partition. Reads parked inside it return ErrPartitioned —
// the stream lost bytes while dark, so the connection is handed back
// broken and the endpoint redials clean.
func (in *Injector) Heal(addr string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if addr == "" {
		in.partAll = false
		in.parts = map[string]bool{}
	} else {
		delete(in.parts, addr)
	}
	close(in.partGen)
	in.partGen = make(chan struct{})
}

// partitioned reports the address's partition state plus the channel that
// signals the next Heal.
func (in *Injector) partitioned(addr string) (bool, <-chan struct{}) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.partAll || in.parts[addr], in.partGen
}

// nextKey assigns the stable key for the n'th connection dialed to addr.
// The "/dial" suffix is part of the key the connection PRNG is seeded
// from, so it stays to keep pinned fault schedules unchanged.
func (in *Injector) nextKey(addr string) string {
	in.mu.Lock()
	n := in.ordinals[addr]
	in.ordinals[addr] = n + 1
	in.mu.Unlock()
	return fmt.Sprintf("%s#%d/dial", addr, n)
}

// Dial wraps a dialer: connections it opens take faults scoped to the dial
// target address, and dials into a partition fail outright.
func (in *Injector) Dial(inner DialFunc) DialFunc {
	return func(addr string) (net.Conn, error) {
		key := in.nextKey(addr)
		if down, _ := in.partitioned(addr); down {
			in.record(key, "dial refused (partitioned)")
			return nil, fmt.Errorf("%w: dial %s", ErrPartitioned, addr)
		}
		c, err := inner(addr)
		if err != nil {
			in.record(key, "dial error: %v", err)
			return nil, err
		}
		return in.wrap(c, addr, key), nil
	}
}

// wrap builds the fault-injecting connection: rules are matched and their
// free parameters resolved NOW, from the connection's private PRNG, so the
// whole schedule for this connection is fixed before any byte moves.
func (in *Injector) wrap(c net.Conn, addr, key string) net.Conn {
	rng := rand.New(rand.NewSource(in.connSeed(key)))
	_, ordinal := splitKey(key)
	fc := &Conn{Conn: c, in: in, addr: addr, key: key, closed: make(chan struct{})}
	for _, r := range in.plan.Rules {
		if r.Addr != "" && r.Addr != addr {
			continue
		}
		if r.Conn >= 0 && r.Conn != ordinal {
			continue
		}
		f := r.Fault
		if f.Kind == KindCorrupt && f.XOR == 0 {
			// A deterministic nonzero mask: 1..255 from the conn PRNG.
			f.XOR = byte(1 + rng.Intn(255))
		}
		if f.Kind == KindSlowLoris && f.Chunk <= 0 {
			f.Chunk = 1
		}
		if f.Kind == KindDuplicate && f.Every <= 0 {
			f.Every = 1
		}
		switch f.Dir {
		case Inbound:
			fc.rd.faults = append(fc.rd.faults, f)
		case Outbound:
			fc.wr.faults = append(fc.wr.faults, f)
		default:
			fc.rd.faults = append(fc.rd.faults, f)
			fc.wr.faults = append(fc.wr.faults, f)
		}
		in.record(key, "arm %s %s after=%d delay=%s chunk=%d xor=%#02x every=%d",
			f.Kind, f.Dir, f.After, f.Delay, f.Chunk, f.XOR, f.Every)
	}
	return fc
}

// splitKey recovers (addr, ordinal) from an "addr#n/dial" key.
func splitKey(key string) (string, int) {
	addr, n := key, 0
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '#' {
			addr = key[:i]
			fmt.Sscanf(key[i+1:], "%d", &n)
			break
		}
	}
	return addr, n
}

// dirState tracks one direction of a connection: the running byte offset
// and the faults armed on it. Each direction has its own mutex because
// reads and writes legitimately run concurrently.
type dirState struct {
	mu     sync.Mutex
	off    int64
	writes int
	faults []Fault
}

// Conn is a net.Conn that executes its armed faults. It forwards
// deadlines, addresses, and Close to the wrapped connection.
type Conn struct {
	net.Conn
	in   *Injector
	addr string
	key  string
	rd   dirState
	wr   dirState

	closeOnce sync.Once
	closed    chan struct{}
}

// Close is idempotent and unblocks partition-parked reads.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// sleep waits d on the injector clock, returning early if the connection
// closes underneath.
func (c *Conn) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	select {
	case <-c.in.clock.After(d):
	case <-c.closed:
	}
}

// awaitPartition parks while the address is dark. It reports whether a
// partition was observed: after one, the stream has lost bytes, so the
// caller must fail the connection rather than resume mid-stream.
func (c *Conn) awaitPartition() bool {
	saw := false
	for {
		down, gen := c.in.partitioned(c.addr)
		if !down {
			return saw
		}
		saw = true
		select {
		case <-gen:
		case <-c.closed:
			return true
		}
	}
}

func (c *Conn) Read(p []byte) (int, error) {
	d := &c.rd
	d.mu.Lock()
	faults := d.faults
	off := d.off
	d.mu.Unlock()

	if down, _ := c.in.partitioned(c.addr); down {
		c.in.record(c.key, "read parked @%d (partition)", off)
		c.awaitPartition()
		c.in.record(c.key, "read failed @%d (partition)", off)
		return 0, ErrPartitioned
	}

	limit := len(p)
	for _, f := range faults {
		switch f.Kind {
		case KindLatency:
			c.sleep(f.Delay)
		case KindSlowLoris:
			if limit > f.Chunk {
				limit = f.Chunk
			}
			c.sleep(f.Delay)
		case KindTruncate:
			if off >= f.After {
				// A truncated inbound stream looks like the peer closing:
				// plain EOF, possibly mid-frame.
				c.in.record(c.key, "read eof @%d (truncate)", off)
				return 0, io.EOF
			}
			if rem := f.After - off; int64(limit) > rem {
				limit = int(rem)
			}
		case KindReset:
			if off >= f.After {
				c.in.record(c.key, "read reset @%d", off)
				c.Close()
				return 0, errReset
			}
			if rem := f.After - off; int64(limit) > rem {
				limit = int(rem)
			}
		}
	}
	n, err := c.Conn.Read(p[:limit])
	if n > 0 {
		for _, f := range faults {
			if f.Kind == KindCorrupt && f.After >= off && f.After < off+int64(n) {
				p[f.After-off] ^= f.XOR
				c.in.record(c.key, "corrupt read @%d xor=%#02x", f.After, f.XOR)
			}
		}
		d.mu.Lock()
		d.off += int64(n)
		d.mu.Unlock()
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	d := &c.wr
	d.mu.Lock()
	faults := d.faults
	off := d.off
	d.writes++
	writeNo := d.writes
	d.off += int64(len(p)) // the caller's view: all bytes accepted
	d.mu.Unlock()

	if down, _ := c.in.partitioned(c.addr); down {
		c.in.record(c.key, "write dropped %dB @%d (partition)", len(p), off)
		return len(p), nil
	}

	buf := p
	duplicate := false
	for _, f := range faults {
		switch f.Kind {
		case KindLatency, KindSlowLoris:
			c.sleep(f.Delay)
		case KindCorrupt:
			if f.After >= off && f.After < off+int64(len(p)) {
				if &buf[0] == &p[0] {
					buf = append([]byte(nil), p...)
				}
				buf[f.After-off] ^= f.XOR
				c.in.record(c.key, "corrupt write @%d xor=%#02x", f.After, f.XOR)
			}
		case KindTruncate:
			if off >= f.After {
				c.in.record(c.key, "write dropped %dB @%d (truncate)", len(p), off)
				return len(p), nil
			}
			if rem := f.After - off; int64(len(buf)) > rem {
				buf = buf[:rem]
				c.in.record(c.key, "write truncated to %dB @%d", len(buf), off)
			}
		case KindReset:
			if off >= f.After {
				c.in.record(c.key, "write reset @%d", off)
				c.Close()
				return 0, errReset
			}
			if rem := f.After - off; int64(len(buf)) > rem {
				buf = buf[:rem]
				if _, err := c.Conn.Write(buf); err != nil {
					return 0, err
				}
				c.in.record(c.key, "write reset mid-frame @%d", f.After)
				c.Close()
				return len(buf), errReset
			}
		case KindDuplicate:
			if writeNo%f.Every == 0 {
				duplicate = true
			}
		}
	}
	if _, err := c.Conn.Write(buf); err != nil {
		return 0, err
	}
	if duplicate {
		c.in.record(c.key, "duplicate write #%d (%dB)", writeNo, len(buf))
		if _, err := c.Conn.Write(buf); err != nil {
			return len(buf), err
		}
	}
	return len(p), nil
}

var errReset = errors.New("chaos: connection reset")
