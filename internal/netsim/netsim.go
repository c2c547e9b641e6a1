// Package netsim provides the simulated operating-system network that
// replaces the paper's Linux testbed (DESIGN.md §1). It offers TCP-like
// reliable byte streams and UDP-like datagrams between virtual hosts
// addressed by strings, plus byte counters used by the network-overhead
// experiment (E7) and optional fault injection for robustness tests.
//
// The fabric is a shared-scheduler design sized for ~100k concurrent
// connections (DESIGN.md §12): time-dependent behaviour (latency,
// deadlines) is an event on the Network's Clock rather than a sleeping
// goroutine, readiness is delivered through per-pipe edge hooks a
// Poller multiplexes, and the fault plane publishes atomic snapshots so
// the per-write hot path never takes the Network mutex.
//
// The JNI primitive layer (internal/jni) is the only intended consumer;
// it plays the role of the NET_SEND / NET_READ system calls of the
// paper's Figure 1.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Common error values, matched by callers with errors.Is.
var (
	ErrClosed      = errors.New("netsim: endpoint closed")
	ErrAddrInUse   = errors.New("netsim: address already in use")
	ErrConnRefused = errors.New("netsim: connection refused")
	ErrNetDown     = errors.New("netsim: network shut down")
)

// Stats holds cumulative traffic counters for a Network. All fields are
// read atomically via Network.Stats.
type Stats struct {
	StreamBytes   int64 // bytes written into stream connections
	DatagramBytes int64 // payload bytes of datagrams sent
	Datagrams     int64 // datagrams sent (before loss)
	DatagramsLost int64 // datagrams dropped by loss injection
	Conns         int64 // stream connections established
}

// Network is an in-memory fabric connecting virtual hosts. The zero
// value is not usable; construct with New. Safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	udp       map[string]*UDPSocket
	down      bool

	// clock drives every time-dependent behaviour: latency delivery and
	// read deadlines. Immutable after UseVirtualClock, which must run
	// before traffic starts.
	clock Clock

	rngMu sync.Mutex
	rng   *rand.Rand

	// Atomically published knobs, read on every send without locking.
	latencyNs atomic.Int64  // network-wide one-way delay, nanoseconds
	lossBits  atomic.Uint64 // datagram loss rate as float64 bits

	// Fault-injection snapshot (see faults.go). faulty caches whether
	// any stream fault is configured so fault-free writes skip even the
	// snapshot load.
	faults         atomic.Pointer[faultSnap]
	faulty         atomic.Bool
	stalledWriters atomic.Int64

	streamBytes   atomic.Int64
	datagramBytes atomic.Int64
	datagrams     atomic.Int64
	datagramsLost atomic.Int64
	conns         atomic.Int64
}

// New returns an empty network on the wall clock.
func New() *Network {
	return &Network{
		listeners: make(map[string]*Listener),
		udp:       make(map[string]*UDPSocket),
		clock:     WallClock{},
		rng:       rand.New(rand.NewSource(1)),
	}
}

// UseVirtualClock installs and returns a fresh VirtualClock, the
// one-line setup for deterministic latency/deadline tests.
func (n *Network) UseVirtualClock() *VirtualClock {
	vc := NewVirtualClock()
	n.clock = vc
	return vc
}

// Clock returns the fabric's time source.
func (n *Network) Clock() Clock { return n.clock }

// SetDatagramLoss configures the probability in [0,1] that a datagram is
// silently dropped, using a deterministic generator. Streams are never
// lossy (they model TCP).
func (n *Network) SetDatagramLoss(rate float64) {
	n.lossBits.Store(math.Float64bits(rate))
}

// SetLatency injects a one-way delay per send operation (stream write
// or datagram send), turning the instantaneous in-memory fabric into a
// WAN-ish one. The sender is never blocked: delivery to the peer is
// deferred by d on the fabric clock, like a link with propagation delay
// rather than a throttled NIC. Zero (the default) disables the delay.
func (n *Network) SetLatency(d time.Duration) {
	n.latencyNs.Store(int64(d))
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		StreamBytes:   n.streamBytes.Load(),
		DatagramBytes: n.datagramBytes.Load(),
		Datagrams:     n.datagrams.Load(),
		DatagramsLost: n.datagramsLost.Load(),
		Conns:         n.conns.Load(),
	}
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	n.streamBytes.Store(0)
	n.datagramBytes.Store(0)
	n.datagrams.Store(0)
	n.datagramsLost.Store(0)
	n.conns.Store(0)
}

// Shutdown tears the whole network down: listeners stop accepting,
// existing connections error, UDP sockets close.
func (n *Network) Shutdown() {
	n.mu.Lock()
	n.down = true
	listeners := make([]*Listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	socks := make([]*UDPSocket, 0, len(n.udp))
	for _, s := range n.udp {
		socks = append(socks, s)
	}
	n.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, s := range socks {
		s.Close()
	}
}

// ---- stream (TCP-like) ----

// Listener accepts stream connections on one address. The backlog is a
// head-indexed ring: Accept pops in O(1) and released slots are nil'd
// so accepted connections don't linger in backing memory.
type Listener struct {
	net    *Network
	addr   string
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Conn
	head   int
	closed bool
}

// Listen binds a stream listener to addr.
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, ErrNetDown
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &Listener{net: n, addr: addr}
	l.cond = sync.NewCond(&l.mu)
	n.listeners[addr] = l
	return l, nil
}

// Addr returns the listener's bound address.
func (l *Listener) Addr() string { return l.addr }

// backlogLenLocked is the number of queued, not-yet-accepted conns.
func (l *Listener) backlogLenLocked() int { return len(l.queue) - l.head }

// Accept blocks until a connection arrives or the listener closes.
func (l *Listener) Accept() (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.backlogLenLocked() == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, ErrClosed
	}
	c := l.queue[l.head]
	l.queue[l.head] = nil
	l.head++
	if l.head == len(l.queue) {
		// Drained: rewind so the slice is reused instead of growing
		// without bound across the listener's lifetime.
		l.queue = l.queue[:0]
		l.head = 0
	}
	return c, nil
}

// Close unbinds the listener, wakes pending Accepts, and resets
// connections still waiting in the backlog.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pending := l.queue[l.head:]
	l.queue = nil
	l.head = 0
	l.cond.Broadcast()
	l.mu.Unlock()

	for _, c := range pending {
		c.Close()
	}

	l.net.mu.Lock()
	if l.net.listeners[l.addr] == l {
		delete(l.net.listeners, l.addr)
	}
	l.net.mu.Unlock()
	return nil
}

// Dial opens a stream connection to a listening address. The returned
// Conn's local address is synthesized from the dial count.
func (n *Network) Dial(addr string) (*Conn, error) {
	return n.DialFrom("", addr)
}

// DialFrom is Dial with an explicit local address, which gives the
// dialing side a stable host identity that Partition can target. An
// empty local address synthesizes one from the dial count.
func (n *Network) DialFrom(local, addr string) (*Conn, error) {
	// A synthesized local name only ever matches a "*" cut, so any
	// placeholder host gives the same partition answer.
	dialHost := "client"
	if local != "" {
		dialHost = host(local)
	}
	for {
		n.mu.Lock()
		if n.down {
			n.mu.Unlock()
			return nil, ErrNetDown
		}
		l, ok := n.listeners[addr]
		n.mu.Unlock()
		if n.snap().partitioned(dialHost, host(addr)) {
			return nil, fmt.Errorf("%w: dial %s", ErrPartitioned, addr)
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
		}

		id := n.conns.Add(1)
		lc := local
		if lc == "" {
			lc = fmt.Sprintf("client-%d", id)
		}
		client, server := newConnPair(n, lc, addr)

		l.mu.Lock()
		if l.closed {
			// The listener closed between our lookup and here. It may
			// merely be gone — but the address may also have been
			// re-bound by a fresh listener (a server restart), in which
			// case refusing the dial would be a race the real stack
			// doesn't have. Retry the lookup; a genuinely unbound addr
			// returns ErrConnRefused on the next pass.
			l.mu.Unlock()
			client.Close()
			server.Close()
			n.conns.Add(-1)
			continue
		}
		l.queue = append(l.queue, server)
		l.cond.Signal()
		l.mu.Unlock()
		return client, nil
	}
}

// Pipe returns a connected pair of Conns without any listener, useful
// for tests and for wiring loopback transports.
func (n *Network) Pipe() (*Conn, *Conn) {
	id := n.conns.Add(1)
	a, b := newConnPair(n, fmt.Sprintf("pipe-%da", id), fmt.Sprintf("pipe-%db", id))
	return a, b
}
