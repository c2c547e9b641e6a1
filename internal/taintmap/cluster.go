package taintmap

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/netsim"
)

// defaultPeerTimeout bounds how long a replication push waits for a
// peer's ack before declaring the link dead. Before this existed a
// stalled-but-connected peer (the classic gray failure) wedged the
// owner's registration path forever.
const defaultPeerTimeout = 2 * time.Second

// peerCooldown is how long a failed peer link refuses calls before
// re-trying the transport. Within the window a replication push hints
// instantly instead of paying the timeout again per registration.
const peerCooldown = 250 * time.Millisecond

// errPeerDown is the instant failure a cooling-down peer link returns.
var errPeerDown = errors.New("taintmap: peer link cooling down after failure")

// ClusterNode is the server-side half of the partitioned Taint Map: the
// per-server state that turns N independent taintmapd processes into
// one logical map. It owns the membership ring, the peer links used for
// synchronous replication, and the join gossip. A Server constructed
// with WithClusterNode consults it on every cluster op and pushes every
// fresh registration through it before acking.
//
// Replication is owner-push: the partition owner that minted an id
// sends the (id, blob) entry to its ring successors and waits for their
// acks before the registration reply leaves the server. A successor
// that cannot be reached does not fail the registration — the owner is
// the durable copy and read-repair re-converges the replica later
// (hinted handoff, counted in Hinted). Replication handlers only ever
// adopt — they never mint ids or push further — so peer calls cannot
// cycle and the protocol cannot deadlock however the ring is wired.
type ClusterNode struct {
	self Member
	dial func(addr string) (io.ReadWriteCloser, error)
	clk  netsim.Clock // times the peer links' ack waits and cooldowns

	ring atomic.Pointer[Ring]

	mu    sync.Mutex // ring changes and peer-map writes
	peers map[uint32]*peerLink

	// peerTimeout bounds each peer call's ack wait, nanoseconds; 0
	// disables the bound (not recommended).
	peerTimeout atomic.Int64

	hinted  atomic.Int64 // replication pushes skipped on a dead peer
	pushed  atomic.Int64 // entries successfully replicated to successors
	repairs atomic.Int64 // entries adopted through read-repair ('w')
}

// NewClusterNode makes this server the given member of a cluster whose
// initial membership is members (which must include self). dial opens a
// connection to a peer's address.
func NewClusterNode(self Member, members []Member, rf int, dial func(addr string) (io.ReadWriteCloser, error)) (*ClusterNode, error) {
	found := false
	for _, m := range members {
		if m.Part == self.Part {
			found = true
			break
		}
	}
	if !found {
		members = append(append([]Member(nil), members...), self)
	}
	r, err := NewRing(1, rf, members)
	if err != nil {
		return nil, err
	}
	n := &ClusterNode{self: self, dial: dial, clk: netsim.WallClock{}, peers: make(map[uint32]*peerLink)}
	n.peerTimeout.Store(int64(defaultPeerTimeout))
	n.ring.Store(r)
	return n, nil
}

// SetPeerTimeout adjusts the bound on a peer call's ack wait (default
// 2s), from the next call on. Non-positive d disables the bound.
func (n *ClusterNode) SetPeerTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.peerTimeout.Store(int64(d))
}

// Self returns this node's membership entry.
func (n *ClusterNode) Self() Member { return n.self }

// Ring returns the current membership snapshot.
func (n *ClusterNode) Ring() *Ring { return n.ring.Load() }

// Hinted reports how many replication pushes were skipped because a
// successor was unreachable (the entries live on the owner and heal by
// read-repair).
func (n *ClusterNode) Hinted() int64 { return n.hinted.Load() }

// Pushed reports how many entries were synchronously replicated.
func (n *ClusterNode) Pushed() int64 { return n.pushed.Load() }

// Repaired reports how many entries this node adopted via read-repair.
func (n *ClusterNode) Repaired() int64 { return n.repairs.Load() }

// Join adds (or re-addresses) a member and gossips the join to every
// other peer. It is idempotent: a join for a member already in the ring
// at the same address is a no-op that does not re-gossip, which is what
// lets peers forward joins to each other without looping.
func (n *ClusterNode) Join(m Member) (*Ring, error) {
	n.mu.Lock()
	r := n.ring.Load()
	if old, ok := r.Member(m.Part); ok && old.Addr == m.Addr {
		n.mu.Unlock()
		return r, nil
	}
	nr, err := r.WithMember(m)
	if err != nil {
		n.mu.Unlock()
		return nil, err
	}
	n.ring.Store(nr)
	n.mu.Unlock()

	payload := appendMember(nil, m)
	for _, peer := range nr.Members() {
		if peer.Part == n.self.Part || peer.Part == m.Part {
			continue
		}
		if err := n.callPeer(peer, opJoinTag, payload); err != nil {
			// The peer will learn the ring on its next join exchange or
			// from a client; membership gossip is best-effort.
			continue
		}
	}
	return nr, nil
}

// JoinVia introduces this node to an existing cluster through one seed
// member: it sends its own membership entry and installs the ring the
// seed answers with. Used by `taintmapd -join=<addr>`.
func (n *ClusterNode) JoinVia(seedAddr string) (*Ring, error) {
	link := &peerLink{addr: seedAddr, dial: n.dial, clk: n.clk}
	defer link.close()
	reply, err := link.call(opJoinTag, appendMember(nil, n.self), time.Duration(n.peerTimeout.Load()))
	if err != nil {
		return nil, fmt.Errorf("taintmap: join via %s: %w", seedAddr, err)
	}
	r, err := parseRing(reply)
	if err != nil {
		return nil, fmt.Errorf("taintmap: join via %s: %w", seedAddr, err)
	}
	n.mu.Lock()
	n.ring.Store(r)
	n.mu.Unlock()
	return r, nil
}

// replicate pushes an encoded entry list to this partition's ring
// successors and waits for their acks — the synchronous half of the
// replication protocol, called by the request handler between minting
// and acking. Unreachable successors are skipped (hinted handoff).
func (n *ClusterNode) replicate(entries []byte) {
	r := n.ring.Load()
	var buf [MaxPartitions]uint32
	for _, part := range r.appendReplicas(buf[:0], n.self.Part)[1:] {
		peer, ok := r.Member(part)
		if !ok {
			continue
		}
		if err := n.callPeer(peer, opReplicateTag, entries); err != nil {
			n.hinted.Add(1)
			continue
		}
		n.pushed.Add(1)
	}
}

// callPeer issues one cluster op on the cached link to peer, dropping
// the link on failure so the next call re-dials.
func (n *ClusterNode) callPeer(peer Member, op byte, payload []byte) error {
	n.mu.Lock()
	link := n.peers[peer.Part]
	if link == nil || link.addr != peer.Addr {
		if link != nil {
			link.close()
		}
		link = &peerLink{addr: peer.Addr, dial: n.dial, clk: n.clk}
		n.peers[peer.Part] = link
	}
	n.mu.Unlock()
	_, err := link.call(op, payload, time.Duration(n.peerTimeout.Load()))
	return err
}

// Close drops every peer link.
func (n *ClusterNode) Close() {
	n.mu.Lock()
	for _, link := range n.peers {
		link.close()
	}
	clear(n.peers)
	n.mu.Unlock()
}

// peerLink is one node-to-node connection: one request in flight at a
// time (tag 0 — the link is mutex-serialized, so tags carry no
// information). Kept deliberately simpler than the client mux:
// replication already batches at the request level, and a peer push is
// on the registration latency path only for fresh ids.
type peerLink struct {
	addr string
	dial func(addr string) (io.ReadWriteCloser, error)
	clk  netsim.Clock

	mu        sync.Mutex
	conn      io.ReadWriteCloser
	br        *bufio.Reader
	bw        *bufio.Writer
	ack       *ackTimer // bounds conn's ack waits; nil until the first wait
	downUntil time.Time // cooldown after a transport failure
}

// call sends one tagged request and reads its reply, dialing on first
// use and tearing the connection down on any failure. The ack wait is
// bounded by timeout through the connection's ackTimer, so a stalled
// peer costs one timeout, not a wedged owner; for peerCooldown after any
// transport failure further calls fail instantly, turning
// per-registration replication pushes into immediate hinted handoff.
func (l *peerLink) call(op byte, payload []byte, timeout time.Duration) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.downUntil.IsZero() {
		if l.clk.Now().Before(l.downUntil) {
			return nil, errPeerDown
		}
		l.downUntil = time.Time{}
	}
	if l.conn == nil {
		conn, err := l.dial(l.addr)
		if err != nil {
			return l.fail(err)
		}
		l.conn = conn
		l.br = bufio.NewReaderSize(conn, connBuffer)
		l.bw = bufio.NewWriterSize(conn, connBuffer)
	}
	if err := writeTaggedFrame(l.bw, op, 0, payload); err != nil {
		return l.fail(err)
	}
	if err := l.bw.Flush(); err != nil {
		return l.fail(err)
	}
	if l.ack == nil || l.ack.timeout != timeout {
		l.ack.stop()
		l.ack = &ackTimer{clk: l.clk, conn: l.conn, timeout: timeout, born: l.clk.Now()}
	}
	if timeout > 0 { // bounded until due is cleared
		l.ack.due.Store(int64(l.clk.Now().Sub(l.ack.born) + timeout))
		l.ack.arm(timeout)
	}
	status, _, reply, err := readTaggedFrame(l.br, nil, isReplyStatus, maxReplyFrame)
	l.ack.due.Store(0)
	if err != nil {
		return l.fail(err)
	}
	if status != statusTaggedOK {
		// The request was answered; the link itself is healthy.
		return nil, serverErr(reply)
	}
	return reply, nil
}

// fail drops the connection and its ack timer and cools the link off.
func (l *peerLink) fail(err error) ([]byte, error) {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.ack.stop()
	l.ack = nil
	l.downUntil = l.clk.Now().Add(peerCooldown)
	return nil, err
}

func (l *peerLink) close() {
	l.mu.Lock()
	l.fail(nil)
	l.mu.Unlock()
}

// ackTimer bounds a peer connection's ack waits with one timer, not a
// read deadline per call: the first wait after it lapsed arms it; firing,
// it re-arms while a call waits and closes the connection once that call
// waited timeout. It holds only the connection and takes no lock (it
// fires while the waiting call holds the link's). A new timeout takes a
// new ackTimer, so none fires after the waiting call's deadline.
type ackTimer struct {
	clk     netsim.Clock
	conn    io.Closer
	timeout time.Duration // non-positive: waits are unbounded
	born    time.Time     // due's origin
	due     atomic.Int64  // the waiting call's deadline, ns after born; 0: none waits
	armed   atomic.Bool
	stopped atomic.Bool
	timer   atomic.Pointer[netsim.Timer] // the last one armed
}

// arm starts the timer unless it is running.
func (w *ackTimer) arm(d time.Duration) {
	if w.armed.Load() || !w.armed.CompareAndSwap(false, true) {
		return
	}
	t := w.clk.AfterFunc(d, w.expire)
	w.timer.Store(&t)
	if w.stopped.Load() { // stop may have read the timer before this one
		t.Stop()
	}
}

func (w *ackTimer) expire() {
	w.armed.Store(false)
	if due := w.due.Load(); due != 0 && !w.stopped.Load() {
		if left := time.Duration(due) - w.clk.Now().Sub(w.born); left > 0 {
			w.arm(left)
		} else {
			w.conn.Close()
		}
	}
}

// stop retires the timer; nil-safe.
func (w *ackTimer) stop() {
	if w != nil {
		w.stopped.Store(true)
		if t := w.timer.Load(); t != nil {
			(*t).Stop()
		}
	}
}
