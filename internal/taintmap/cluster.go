package taintmap

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/netsim"
)

// defaultPeerTimeout bounds how long a replication push waits for a
// peer's ack before declaring the connection dead. Before this existed
// a stalled-but-connected peer (the classic gray failure) wedged the
// owner's registration path forever.
const defaultPeerTimeout = 2 * time.Second

// peerCooldown is how long a peer refuses calls after its connection
// failed before dialing again. Within the window a replication push
// hints instantly instead of paying the timeout again per registration.
const peerCooldown = 250 * time.Millisecond

// errPeerDown is the instant failure a cooling-down peer returns.
var errPeerDown = errors.New("taintmap: peer cooling down after failure")

// ClusterNode is the server-side half of the partitioned Taint Map: the
// per-server state that turns N independent taintmapd processes into
// one logical map. It owns the membership ring, the peer clients used
// for synchronous replication, and the join gossip. A Server constructed
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
	clk  netsim.Clock // times the peer calls and cooldowns

	ring atomic.Pointer[Ring]

	mu    sync.Mutex // ring changes and peer-map writes
	peers map[uint32]*peer

	// peerTimeout is the call timeout of the peer clients dialed next,
	// nanoseconds; 0 disables the bound (not recommended).
	peerTimeout atomic.Int64

	hinted atomic.Int64 // replication pushes skipped on a dead peer
	pushed atomic.Int64 // entries successfully replicated to successors
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
	n := &ClusterNode{self: self, dial: dial, clk: netsim.WallClock{}, peers: make(map[uint32]*peer)}
	n.peerTimeout.Store(int64(defaultPeerTimeout))
	n.ring.Store(r)
	return n, nil
}

// SetPeerTimeout adjusts the bound on a peer call's wait for its reply
// (default 2s): the call timeout of every peer connection dialed after
// it, and of JoinVia's. Peers are dialed on first use, so set it before
// the node serves. Non-positive d disables the bound.
func (n *ClusterNode) SetPeerTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.peerTimeout.Store(int64(d))
}

// Ring returns the current membership snapshot.
func (n *ClusterNode) Ring() *Ring { return n.ring.Load() }

// Hinted reports how many replication pushes were skipped because a
// successor was unreachable (the entries live on the owner and heal by
// read-repair).
func (n *ClusterNode) Hinted() int64 { return n.hinted.Load() }

// Pushed reports how many entries were synchronously replicated.
func (n *ClusterNode) Pushed() int64 { return n.pushed.Load() }

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
	conn, err := n.dial(seedAddr)
	if err != nil {
		return nil, fmt.Errorf("taintmap: join via %s: %w", seedAddr, err)
	}
	rc := n.peerClient(conn)
	reply, err := rc.call(opJoinTag, appendMember(nil, n.self), time.Time{})
	rc.Close()
	var r *Ring
	if err == nil {
		r, err = parseRing(reply)
	}
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

// peerClient wraps a connection to a peer in a client bounded by the
// peer timeout, on the node's clock.
func (n *ClusterNode) peerClient(conn io.ReadWriteCloser) *RemoteClient {
	return newRemoteClientWith(conn, nil, nil, time.Duration(n.peerTimeout.Load()), n.clk)
}

// callPeer issues one cluster op to peer m on its client — concurrent
// pushes share it, pipelined — and retires the client when its
// connection failed, cooling the peer off.
func (n *ClusterNode) callPeer(m Member, op byte, payload []byte) error {
	n.mu.Lock()
	p := n.peers[m.Part]
	if p == nil || p.addr != m.Addr {
		if p != nil {
			p.close()
		}
		p = &peer{addr: m.Addr}
		n.peers[m.Part] = p
	}
	n.mu.Unlock()
	rc, err := p.client(n)
	if err != nil {
		return err
	}
	if _, err = rc.call(op, payload, time.Time{}); isConnErr(err) {
		p.drop(rc, n.clk.Now().Add(peerCooldown))
	}
	return err
}

// Close drops every peer client.
func (n *ClusterNode) Close() {
	n.mu.Lock()
	for _, p := range n.peers {
		p.close()
	}
	clear(n.peers)
	n.mu.Unlock()
}

// peer is the node's client of one other member, dialed on first use.
// For peerCooldown after its connection failed — the dial, or a call the
// client lost the connection under, its timeout included — it refuses
// calls, turning per-registration replication pushes into immediate
// hinted handoff instead of a timeout each.
type peer struct {
	addr string

	mu        sync.Mutex
	rc        *RemoteClient // nil until dialed, and after a failure
	downUntil time.Time
}

// client returns the peer's live client, dialing one unless the peer is
// cooling down.
func (p *peer) client(n *ClusterNode) (*RemoteClient, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rc != nil {
		return p.rc, nil
	}
	now := n.clk.Now()
	if now.Before(p.downUntil) {
		return nil, errPeerDown
	}
	conn, err := n.dial(p.addr)
	if err != nil {
		p.downUntil = now.Add(peerCooldown)
		return nil, err
	}
	p.rc = n.peerClient(conn)
	return p.rc, nil
}

// drop retires rc — unless a newer client replaced it already — and
// refuses calls until downUntil.
func (p *peer) drop(rc *RemoteClient, downUntil time.Time) {
	p.mu.Lock()
	if p.rc == rc {
		p.rc, p.downUntil = nil, downUntil
	}
	p.mu.Unlock()
	rc.Close()
}

// close retires the peer's client, if it has one.
func (p *peer) close() {
	p.mu.Lock()
	rc := p.rc
	p.rc = nil
	p.mu.Unlock()
	if rc != nil {
		rc.Close()
	}
}
