package taintmap

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

func TestIDSpaceLayout(t *testing.T) {
	// The three id fields must tile the 32 bits without overlap, or a
	// stream-scoped id could alias a real one and two partitions could
	// mint the same id.
	if scopedBit&partitionMask != 0 {
		t.Fatalf("scoped bit overlaps partition field")
	}
	if partitionMask&seqMask != 0 {
		t.Fatalf("partition field overlaps sequence field")
	}
	if scopedBit|partitionMask|seqMask != ^uint32(0) {
		t.Fatalf("id fields do not cover all 32 bits")
	}
	for _, part := range []uint32{0, 1, 7, MaxPartitions - 1} {
		for _, seq := range []uint32{1, 42, seqMask} {
			id := partitionBase(part) | seq
			if PartitionOf(id) != part || SeqOf(id) != seq {
				t.Fatalf("decompose(%d|%d) = (%d,%d)", part, seq, PartitionOf(id), SeqOf(id))
			}
			if IsStreamScoped(id) {
				t.Fatalf("real id %d reads as stream-scoped", id)
			}
		}
	}
	for _, k := range []int{1, 2, int(seqMask)} {
		if id := StreamScopedID(k); !IsStreamScoped(id) || id&^scopedBit != uint32(k) {
			t.Fatalf("StreamScopedID(%d) = %#x", k, id)
		}
	}
	if _, err := NewPartitionStore(MaxPartitions); err == nil {
		t.Fatal("partition out of range accepted")
	}
}

func TestPartitionStoreMintAndAdopt(t *testing.T) {
	s, err := NewPartitionStore(3)
	if err != nil {
		t.Fatal(err)
	}
	id := s.RegisterBlob([]byte("blob-a"))
	if PartitionOf(id) != 3 || SeqOf(id) != 1 {
		t.Fatalf("partition store minted id %x", id)
	}
	if again := s.RegisterBlob([]byte("blob-a")); again != id {
		t.Fatalf("dedup broke under partition base: %d != %d", again, id)
	}
	if blob, err := s.LookupBlob(id); err != nil || string(blob) != "blob-a" {
		t.Fatalf("own-partition lookup: %q, %v", blob, err)
	}

	// Foreign-partition adoption serves lookups out of a replica table.
	foreign := partitionBase(5) | 9
	if err := s.AdoptBlob(foreign, []byte("blob-f")); err != nil {
		t.Fatal(err)
	}
	if blob, err := s.LookupBlob(foreign); err != nil || string(blob) != "blob-f" {
		t.Fatalf("replica lookup: %q, %v", blob, err)
	}
	if got := s.Replicated(5); got != 9 {
		t.Fatalf("Replicated(5) = %d, want 9 (the highest adopted seq)", got)
	}
	// Adoption is idempotent and rejects ids that must never replicate.
	if err := s.AdoptBlob(foreign, []byte("blob-f")); err != nil {
		t.Fatalf("re-adopt: %v", err)
	}
	if err := s.AdoptBlob(scopedBit|foreign, []byte("x")); err == nil {
		t.Fatal("adopted a stream-scoped id")
	}
	if err := s.AdoptBlob(partitionBase(5), []byte("x")); err == nil {
		t.Fatal("adopted a zero-sequence id")
	}

	// Own-partition adoption (a healed owner) raises the mint cursor so
	// the next registration cannot collide with the adopted seq.
	if err := s.AdoptBlob(partitionBase(3)|40, []byte("blob-heal")); err != nil {
		t.Fatal(err)
	}
	next := s.RegisterBlob([]byte("blob-b"))
	if SeqOf(next) <= 40 {
		t.Fatalf("mint after adopt reused seq %d", SeqOf(next))
	}
	if again := s.RegisterBlob([]byte("blob-heal")); again != partitionBase(3)|40 {
		t.Fatalf("healed blob re-registered as %x", again)
	}
}

func TestRingOwnershipAndReplicas(t *testing.T) {
	members := []Member{{Part: 0, Addr: "a:1"}, {Part: 1, Addr: "b:1"}, {Part: 2, Addr: "c:1"}, {Part: 3, Addr: "d:1"}}
	r, err := NewRing(1, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	// Ownership is deterministic and roughly balanced over blob hashes.
	counts := make(map[uint32]int)
	for i := 0; i < 4096; i++ {
		blob := []byte(fmt.Sprintf("blob-%d", i))
		p := r.OwnerOfBlob(blob)
		if p != r.OwnerOfBlob(blob) {
			t.Fatal("ownership not deterministic")
		}
		counts[p]++
	}
	for _, m := range members {
		if counts[m.Part] < 4096/4/3 {
			t.Fatalf("partition %d owns only %d of 4096 blobs — vnode spread broken", m.Part, counts[m.Part])
		}
	}
	// Replica placement is partition-ordered with wraparound, owner first.
	for part, want := range map[uint32][]uint32{0: {0, 1}, 2: {2, 3}, 3: {3, 0}} {
		got := r.appendReplicas(nil, part)
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("Replicas(%d) = %v, want %v", part, got, want)
		}
	}
	// A partition no longer in the ring still resolves to live replicas.
	smaller, err := NewRing(2, 2, members[:2])
	if err != nil {
		t.Fatal(err)
	}
	got := smaller.appendReplicas(nil, 3)
	if len(got) != 2 || got[0] != 3 || got[1] != 0 {
		t.Fatalf("Replicas of departed partition = %v", got)
	}

	// Wire roundtrip survives parse -> encode -> parse.
	enc := appendRing(nil, r)
	r2, err := parseRing(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch != r.Epoch || r2.RF != r.RF || len(r2.Members()) != len(members) {
		t.Fatalf("ring roundtrip lost state: %+v", r2)
	}
	for i, m := range r2.Members() {
		if m != members[i] {
			t.Fatalf("member %d roundtripped as %+v", i, m)
		}
	}
	if _, err := NewRing(1, 2, []Member{{Part: 0, Addr: "a"}, {Part: 0, Addr: "b"}}); err == nil {
		t.Fatal("duplicate partition accepted")
	}
}

// TestOneAddressAnyPartition: a one-address client is a ring of one at
// partition 0, and it still registers with and looks up from its one
// server whatever partition that server mints for.
func TestOneAddressAnyPartition(t *testing.T) {
	n := netsim.New()
	ring, err := NewRing(1, 1, []Member{{Part: 3, Addr: "tm:1"}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewPartitionStore(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, node, err := StartSimClusterMember(n, ring, 3, store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); node.Close() }()
	tree := taint.NewTree()
	w := dialOne("tm:1", simDialer(n, "app:1"), tree, ResilientOptions{})
	defer w.Close()
	tt := tree.NewSource("elsewhere", "app:1")
	id, err := w.Register(tt)
	if err != nil || PartitionOf(id) != 3 {
		t.Fatalf("register = %#x, %v; want an id of partition 3", id, err)
	}
	r := dialOne("tm:1", simDialer(n, "app:2"), taint.NewTree(), ResilientOptions{})
	defer r.Close()
	if got, err := r.Lookup(id); err != nil || !taint.SameSet(got, tt) {
		t.Fatalf("lookup of %#x = %v, %v", id, got, err)
	}
}

// clusterEnv is a simulated cluster whose stores survive server
// restarts (the durable-store model the chaos harness uses).
type clusterEnv struct {
	t      *testing.T
	net    *netsim.Network
	ring   *Ring
	stores []*Store
	srvs   []*Server
	nodes  []*ClusterNode
	opts   []ServerOption // applied to every member server
}

func newClusterEnv(t *testing.T, n, rf int) *clusterEnv {
	return newClusterEnvOpts(t, n, rf)
}

// newClusterEnvOpts is newClusterEnv with extra server options applied
// to every member (e.g. an admission gate).
func newClusterEnvOpts(t *testing.T, n, rf int, opts ...ServerOption) *clusterEnv {
	t.Helper()
	e := &clusterEnv{t: t, net: netsim.New(), opts: opts}
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{Part: uint32(i), Addr: simMemberAddr(uint32(i))}
	}
	ring, err := NewRing(1, rf, members)
	if err != nil {
		t.Fatal(err)
	}
	e.ring = ring
	e.stores = make([]*Store, n)
	e.srvs = make([]*Server, n)
	e.nodes = make([]*ClusterNode, n)
	for i := 0; i < n; i++ {
		store, err := NewPartitionStore(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		e.stores[i] = store
		e.start(i)
	}
	t.Cleanup(e.close)
	return e
}

// start brings up (or back up) member i on its existing store.
func (e *clusterEnv) start(i int) {
	e.t.Helper()
	srv, node, err := StartSimClusterMember(e.net, e.ring, uint32(i), e.stores[i], e.opts...)
	if err != nil {
		e.t.Fatalf("start member %d: %v", i, err)
	}
	e.srvs[i] = srv
	e.nodes[i] = node
}

// kill force-closes member i's server.
func (e *clusterEnv) kill(i int) {
	e.srvs[i].Close()
	e.nodes[i].Close()
}

func (e *clusterEnv) close() {
	for i := range e.srvs {
		if e.srvs[i] != nil {
			e.kill(i)
		}
	}
}

func (e *clusterEnv) client(local string, opt ClusterOptions) *ClusterClient {
	e.t.Helper()
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, local, e.ring, tree, opt)
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterRegisterLookupReplicate(t *testing.T) {
	e := newClusterEnv(t, 3, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	ids := make([]uint32, n)
	blobs := make([]string, n)
	for i := 0; i < n; i++ {
		tt := tree.NewSource(fmt.Sprintf("cluster-%d", i), "app:1")
		id, err := c.Register(tt)
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		if id == 0 || IsStreamScoped(id) {
			t.Fatalf("register %d returned id %x", i, id)
		}
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		// The id's partition bits name the blob's ring owner: routing is
		// stateless for every other client.
		if want := e.ring.OwnerOfBlob(blob); PartitionOf(id) != want {
			t.Fatalf("id %x minted by partition %d, ring owner is %d", id, PartitionOf(id), want)
		}
		ids[i], blobs[i] = id, string(blob)
	}

	// All partitions got traffic and every fresh id was synchronously
	// replicated to its successor before the register ack.
	parts := make(map[uint32]int)
	for _, id := range ids {
		parts[PartitionOf(id)]++
	}
	if len(parts) != 3 {
		t.Fatalf("ids landed in %d partitions, want 3 (%v)", len(parts), parts)
	}
	var pushed int64
	for i, node := range e.nodes {
		pushed += node.Pushed()
		if h := node.Hinted(); h != 0 {
			t.Fatalf("node %d hinted %d pushes on a healthy network", i, h)
		}
	}
	if pushed == 0 {
		t.Fatal("no replication push ever happened")
	}
	for i := range e.stores {
		succ := e.ring.appendReplicas(nil, uint32(i))[1]
		if got := e.stores[succ].Replicated(uint32(i)); got != parts[uint32(i)] {
			t.Fatalf("partition %d: successor %d replicated %d of %d entries", i, succ, got, parts[uint32(i)])
		}
	}

	// A fresh client resolves every id — singly and as one batch — to
	// byte-identical content, whichever replica the rotation picks.
	c2 := e.client("app:2", ClusterOptions{})
	for i, id := range ids {
		got, err := c2.Lookup(id)
		if err != nil {
			t.Fatalf("fresh lookup %x: %v", id, err)
		}
		b, _ := taint.MarshalTaint(got)
		if string(b) != blobs[i] {
			t.Fatalf("id %x resolved to different bytes", id)
		}
	}
	c3 := e.client("app:3", ClusterOptions{})
	ts, err := c3.LookupBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		b, _ := taint.MarshalTaint(ts[i])
		if string(b) != blobs[i] {
			t.Fatalf("batch id %x resolved to different bytes", ids[i])
		}
	}

	// Registration stays content-addressed across clients: the same
	// bytes resolve to the same id from anywhere.
	tree4 := taint.NewTree()
	c4, err := DialSimCluster(e.net, "app:4", e.ring, tree4, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	for i := 0; i < n; i += 17 {
		tt := tree4.NewSource(fmt.Sprintf("cluster-%d", i), "app:1")
		id, err := c4.Register(tt)
		if err != nil || id != ids[i] {
			t.Fatalf("re-register from second node: id %x want %x (%v)", id, ids[i], err)
		}
	}

	// Unknown ids fail typed, after consulting every replica.
	if _, err := c2.Lookup(partitionBase(1) | 777777); !errors.Is(err, ErrUnknownGlobalID) {
		t.Fatalf("unknown id error = %v", err)
	}
}

func TestClusterRegisterBatchGroupsByOwner(t *testing.T) {
	e := newClusterEnv(t, 3, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ts := make([]taint.Taint, 120)
	for i := range ts {
		ts[i] = tree.NewSource(fmt.Sprintf("batch-%d", i%60), "app:1") // duplicates included
	}
	ids, err := c.RegisterBatch(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if ids[i] == 0 {
			t.Fatalf("position %d unresolved", i)
		}
		if ids[i] != ids[(i+60)%120] {
			t.Fatalf("duplicate taints got ids %x and %x", ids[i], ids[(i+60)%120])
		}
		blob, _ := taint.MarshalTaint(ts[i])
		if want := e.ring.OwnerOfBlob(blob); PartitionOf(ids[i]) != want {
			t.Fatalf("batch id %x not minted by ring owner %d", ids[i], want)
		}
	}
}

// TestClusterMembershipJoin grows a running 2-member cluster to 3 under
// load: the joiner announces itself through one seed, the membership
// gossips, the client refreshes and re-routes — and not one resolution
// is lost across the transition.
// TestPeerPushesShareOneConnection: concurrent registrations on one
// owner push their entries through its one client of the replica — one
// connection, the pushes pipelined on it — and every push is acked.
func TestPeerPushesShareOneConnection(t *testing.T) {
	const clients = 8
	e := newClusterEnv(t, 2, 2)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		tree := taint.NewTree()
		c, err := DialSim(e.net, simMemberAddr(0), tree)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Register(tree.NewSource(fmt.Sprintf("pushed-%d", i), "app:1"))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p, h := e.nodes[0].Pushed(), e.nodes[0].Hinted(); p != clients || h != 0 {
		t.Fatalf("%d registrations pushed %d entries and hinted %d, want %d and 0", clients, p, h, clients)
	}
	if a := e.srvs[1].Stats().Accepted; a != 1 {
		t.Fatalf("the replica accepted %d connections, want the owner's one", a)
	}
}

func TestClusterMembershipJoin(t *testing.T) {
	e := newClusterEnv(t, 2, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1: registrations against the 2-member ring.
	type reg struct {
		id   uint32
		blob string
	}
	var regs []reg
	registerN := func(prefix string, n int) {
		for i := 0; i < n; i++ {
			tt := tree.NewSource(fmt.Sprintf("%s-%d", prefix, i), "app:1")
			id, err := c.Register(tt)
			if err != nil || id == 0 || IsStreamScoped(id) {
				t.Fatalf("register %s-%d: id %x, %v", prefix, i, id, err)
			}
			blob, _ := taint.MarshalTaint(tt)
			regs = append(regs, reg{id: id, blob: string(blob)})
		}
	}
	registerN("pre", 100)

	// The joiner: partition 2 starts on its own and joins via member 0.
	store2, err := NewPartitionStore(2)
	if err != nil {
		t.Fatal(err)
	}
	joiner := Member{Part: 2, Addr: simMemberAddr(2)}
	node2, err := NewClusterNode(joiner, nil, 2, func(addr string) (io.ReadWriteCloser, error) {
		return e.net.DialFrom("tm2:peer", addr)
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := e.net.Listen(joiner.Addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(store2, simAcceptor{l: l, clk: e.net.Clock()}, nil, WithClusterNode(node2))
	srv2.Start()
	defer srv2.Close()
	newRing, err := node2.JoinVia(simMemberAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(newRing.Members()) != 3 || newRing.Epoch <= e.ring.Epoch {
		t.Fatalf("join produced ring %+v", newRing)
	}
	// The join gossiped: the seed and, through it, the other member.
	for i, node := range e.nodes {
		if got := len(node.Ring().Members()); got != 3 {
			t.Fatalf("member %d still sees %d members after join", i, got)
		}
	}

	// The client learns the ring from any member and re-routes.
	got, err := c.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Members()) != 3 {
		t.Fatalf("client refreshed to %d members", len(got.Members()))
	}
	registerN("post", 200)
	sawPart2 := false
	for _, r := range regs {
		if PartitionOf(r.id) == 2 {
			sawPart2 = true
			break
		}
	}
	if !sawPart2 {
		t.Fatal("no registration ever routed to the joiner")
	}

	// Zero dropped resolutions: everything registered under either ring
	// resolves byte-identically from a fresh client on the new ring.
	tree2 := taint.NewTree()
	c2, err := DialSimCluster(e.net, "app:2", newRing, tree2, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, r := range regs {
		tt, err := c2.Lookup(r.id)
		if err != nil {
			t.Fatalf("post-join lookup %x: %v", r.id, err)
		}
		b, _ := taint.MarshalTaint(tt)
		if string(b) != r.blob {
			t.Fatalf("id %x changed content across the membership change", r.id)
		}
	}
}

// TestClusterReaddressKeepsMember: a member that moves to a new address
// keeps its client handle — only the connection is replaced. While
// nothing answers there, its partition's registers fail with
// ErrDegraded and keep nothing; once the replacement is up at the new
// address, the same taints register there to ids that resolve from a
// fresh client.
func TestClusterReaddressKeepsMember(t *testing.T) {
	e := newClusterEnv(t, 2, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, grayOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var owned []taint.Taint // two taints partition 0 owns
	for i := 0; len(owned) < 2 && i < 256; i++ {
		tt := tree.NewSource(fmt.Sprintf("moved-%d", i), "app:1")
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		if e.ring.OwnerOfBlob(blob) == 0 {
			owned = append(owned, tt)
		}
	}

	// Member 0 moves; nothing listens at the new address yet.
	handle := c.member(0)
	moved, err := e.ring.WithMember(Member{Part: 0, Addr: "tm0b:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateRing(moved); err != nil {
		t.Fatal(err)
	}
	if c.member(0) != handle {
		t.Fatal("the re-addressed member got a new handle")
	}
	for _, tt := range owned {
		if id, err := c.Register(tt); !errors.Is(err, ErrDegraded) || tt.GlobalID() != 0 {
			t.Fatalf("register against the unreachable new address = %#x (node %#x), %v", id, tt.GlobalID(), err)
		}
	}

	// The replacement comes up at the new address: both taints register
	// there.
	e.kill(0)
	e.ring = moved
	e.start(0)
	waitHealth(t, c, "reconnect at the new address", func(h Health) bool { return h.Connected })
	check := e.client("verify:1", ClusterOptions{})
	for _, tt := range owned {
		id, err := c.Register(tt)
		if err != nil || IsStreamScoped(id) || PartitionOf(id) != 0 || tt.GlobalID() != id {
			t.Fatalf("register at the new address = %#x (node stamped %#x), %v", id, tt.GlobalID(), err)
		}
		got, err := check.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		wantBlob, _ := taint.MarshalTaint(tt)
		if gotBlob, _ := taint.MarshalTaint(got); string(gotBlob) != string(wantBlob) {
			t.Fatalf("id %#x resolved to different bytes", id)
		}
	}
}

// TestClusterReadRepairDivergence is the satellite scenario: a replica
// misses entries because it was unreachable mid-replication (hinted
// handoff), then comes back EMPTY — and ordinary lookups heal it back
// to the owner's state through read-repair.
func TestClusterReadRepairDivergence(t *testing.T) {
	e := newClusterEnv(t, 2, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Mint taints owned by partition 0 (successor: partition 1), with
	// the replica cut off so every push lands as hinted handoff.
	e.net.Partition("tm1", "*")
	var ids []uint32
	blobs := make(map[uint32]string)
	for i := 0; len(ids) < 48; i++ {
		tt := tree.NewSource(fmt.Sprintf("diverge-%d", i), "app:1")
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		if e.ring.OwnerOfBlob(blob) != 0 {
			continue // only partition-0-owned content for this scenario
		}
		id, err := c.Register(tt)
		if err != nil {
			t.Fatalf("register during replica outage: %v", err)
		}
		ids = append(ids, id)
		blobs[id] = string(blob)
	}
	if e.nodes[0].Hinted() == 0 {
		t.Fatal("no hinted handoff: the partition cut missed replication")
	}
	if got := e.stores[1].Replicated(0); got != 0 {
		t.Fatalf("cut-off replica still adopted %d entries", got)
	}

	// The replica comes back EMPTY: worst-case divergence (a disk loss),
	// on a healed network.
	e.net.HealAll()
	e.kill(1)
	fresh, err := NewPartitionStore(1)
	if err != nil {
		t.Fatal(err)
	}
	e.stores[1] = fresh
	e.start(1)

	// A fresh client's first batch lookup rotates to the empty replica
	// first, falls through to the owner, and pushes the entries back.
	c2 := e.client("app:2", ClusterOptions{})
	ts, err := c2.LookupBatch(ids)
	if err != nil {
		t.Fatalf("lookup against diverged replica: %v", err)
	}
	for i, tt := range ts {
		b, _ := taint.MarshalTaint(tt)
		if string(b) != blobs[ids[i]] {
			t.Fatalf("id %x resolved to wrong bytes during divergence", ids[i])
		}
	}
	if c2.Repaired() == 0 {
		t.Fatal("lookups resolved without repairing the stale replica")
	}
	if got := e.stores[1].Replicated(0); got != len(ids) {
		t.Fatalf("replica healed to %d of %d entries", got, len(ids))
	}

	// Healed means healed: kill the owner outright; the replica alone
	// now serves every id.
	e.kill(0)
	c3 := e.client("app:3", ClusterOptions{
		Resilient: ResilientOptions{BreakerThreshold: 1},
	})
	for _, id := range ids {
		tt, err := c3.Lookup(id)
		if err != nil {
			t.Fatalf("lookup %x with owner dead: %v", id, err)
		}
		b, _ := taint.MarshalTaint(tt)
		if string(b) != blobs[id] {
			t.Fatalf("id %x wrong bytes from healed replica", id)
		}
	}
}

// TestClusterReplicaRefusesConflict: a replica table, like the owned one,
// never lets an id change its blob. A replica squatting on a seq with
// other bytes refuses the owner's push — counted as hinted, the owner's
// copy being the durable one — and a read-repair of it, which the client
// does not count as repaired; an equal re-adopt stores nothing.
func TestClusterReplicaRefusesConflict(t *testing.T) {
	e := newClusterEnv(t, 2, 2)
	squat := partitionBase(0) | 1 // the first id partition 0 mints
	if err := e.stores[1].AdoptBlob(squat, []byte("squatter")); err != nil {
		t.Fatal(err)
	}
	reps := (*e.stores[1].reps.Load())[0]
	used := reps.used
	if n := testing.AllocsPerRun(20, func() {
		if err := e.stores[1].AdoptBlob(squat, []byte("squatter")); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || reps.used != used {
		t.Fatalf("an equal re-adopt allocates %.0f times and grows the arena by %d bytes", n, reps.used-used)
	}

	tree := taint.NewTree()
	c := e.client("app:1", ClusterOptions{})
	var id uint32
	var blob []byte
	for i := 0; id == 0; i++ {
		tt := tree.NewSource(fmt.Sprintf("conflict-%d", i), "app:1")
		b, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		if e.ring.OwnerOfBlob(b) != 0 {
			continue
		}
		if id, err = c.Register(tt); err != nil {
			t.Fatal(err)
		}
		blob = b
	}
	if id != squat {
		t.Fatalf("the owner minted %#x, want %#x", id, squat)
	}
	if got := e.nodes[0].Hinted(); got != 1 {
		t.Fatalf("the refused push counted %d hinted, want 1", got)
	}
	if got, err := e.stores[1].LookupBlob(squat); err != nil || string(got) != "squatter" {
		t.Fatalf("the replica's %#x = %q, %v: its blob changed", squat, got, err)
	}

	ts, err := c.LookupBatch([]uint32{id})
	if err != nil {
		t.Fatal(err)
	}
	c.repairTo([]*member{c.member(1)}, []uint32{id}, ts)
	if c.Repaired() != 0 {
		t.Fatalf("a refused read-repair counted %d repaired", c.Repaired())
	}
	if _, err := c.member(1).rawCall(opReplicateTag, appendEntries(nil, []uint32{id}, [][]byte{blob})); err == nil {
		t.Fatal("the replica accepted a repair changing its blob")
	}
	if got, err := e.stores[1].LookupBlob(squat); err != nil || string(got) != "squatter" {
		t.Fatalf("after the repairs the replica's %#x = %q, %v: its blob changed", squat, got, err)
	}
}

// TestClusterLookupBatchGroups drives ClusterClient.LookupBatch's
// grouping with the memo out of the way: one batch mixing ids of three
// partitions, a duplicate and a zero resolves every position, each
// partition's ids over the wire in a group of their own. A batch holding
// a stream-scoped id is refused, not routed.
func TestClusterLookupBatchGroups(t *testing.T) {
	e := newClusterEnv(t, 3, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ids []uint32
	var want []taint.Taint
	perPart := map[uint32]int{}
	for i := 0; len(ids) < 9 && i < 256; i++ {
		tt := tree.NewSource(fmt.Sprintf("grouped-%d", i), "app:1")
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		owner := e.ring.OwnerOfBlob(blob)
		if perPart[owner] == 3 {
			continue
		}
		perPart[owner]++
		id, err := c.Register(tt)
		if err != nil {
			t.Fatal(err)
		}
		if IsStreamScoped(id) || PartitionOf(id) != owner {
			t.Fatalf("owner %d handed out id %#x", owner, id)
		}
		ids = append(ids, id)
		want = append(want, tt)
	}
	if len(ids) != 9 {
		t.Fatalf("found taints for %v, want 3 per partition", perPart)
	}
	ids = append(ids, ids[0], 0)
	want = append(want, want[0], taint.Taint{})

	c.memo.reset()
	got, err := c.LookupBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] != want[i] {
			t.Fatalf("position %d (id %#x) resolved to %v, want %v", i, ids[i], got[i], want[i])
		}
	}
	if _, err := c.LookupBatch(append(ids, StreamScopedID(1))); err == nil {
		t.Fatal("a batch holding a stream-scoped id resolved")
	}
}
