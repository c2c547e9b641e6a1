package taintmap

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"dista/internal/core/taint"
)

// bigBatch returns taints of tree whose serialized forms add up to at
// least 32 connection buffers, with those forms: a 2-member cluster's
// owners each get a register frame of 16 buffers or more.
func bigBatch(t *testing.T, tree *taint.Tree, prefix string) ([]taint.Taint, [][]byte) {
	t.Helper()
	var ts []taint.Taint
	var blobs [][]byte
	for total, i := 0, 0; total < 32*connBuffer; i++ {
		tt := tree.NewSource(fmt.Sprintf("%s-%d-%s", prefix, i, strings.Repeat("v", 150)), "app:1")
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		ts, blobs, total = append(ts, tt), append(blobs, blob), total+len(blob)
	}
	return ts, blobs
}

// roundTripBig registers a batch whose register frames are 16 connection
// buffers or more through c, resolves it through a memo-cold reader — a
// reply frame as large — and has a third client learn it as one
// definitions unit would carry it.
func roundTripBig(t *testing.T, c Client, tree *taint.Tree, reader, learner Client) []uint32 {
	t.Helper()
	ts, blobs := bigBatch(t, tree, "big")
	ids, err := c.RegisterBatch(ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reader.LookupBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := learner.Learn(ids, blobs); err != nil {
		t.Fatal(err)
	}
	learned, err := learner.LookupBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if !taint.SameSet(got[i], ts[i]) || !taint.SameSet(learned[i], ts[i]) {
			t.Fatalf("taint %d of %d: looked up %v, learned %v, want %v", i, len(ts), got[i], learned[i], ts[i])
		}
	}
	return ids
}

// TestLargeFramesRoundTripSim: frames many times the connection buffer
// cross a client connection, a server connection and, replicated, a peer
// link of a 2-member RF-2 sim cluster.
func TestLargeFramesRoundTripSim(t *testing.T) {
	e := newClusterEnv(t, 2, 2)
	tree := taint.NewTree()
	c := e.client("app:1", ClusterOptions{})
	ids := roundTripBig(t, c, tree, e.client("app:2", ClusterOptions{}), e.client("app:3", ClusterOptions{}))
	owned := map[uint32]int{}
	for _, id := range ids {
		owned[PartitionOf(id)]++
	}
	for part, n := range owned {
		if got := e.stores[1-part].Replicated(part); got != n {
			t.Fatalf("partition %d's replica holds %d of its %d ids", part, got, n)
		}
	}
	if h := e.nodes[0].Hinted() + e.nodes[1].Hinted(); h != 0 {
		t.Fatalf("%d replication pushes skipped", h)
	}
}

// TestLargeFramesRoundTripTCP: the same frames over loopback TCP, through
// the one-address client a deployment dials.
func TestLargeFramesRoundTripTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP available: %v", err)
	}
	srv := NewServer(NewStore(), netAcceptor{l: l}, nil)
	srv.Start()
	defer srv.Close()
	dial := func(addr string) (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) }
	open := func(tree *taint.Tree) Client {
		c, err := DialClusterAddrs([]string{l.Addr().String()}, dial, tree, ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	tree := taint.NewTree()
	roundTripBig(t, open(tree), tree, open(taint.NewTree()), open(taint.NewTree()))
}

// TestServeConnBurstOneFlush: the replies to a pipelined burst that
// arrives in one read go out in one write — the server flushes only once
// its read buffer is empty.
func TestServeConnBurstOneFlush(t *testing.T) {
	s := NewStore()
	var burst []byte
	for i := 0; len(burst) < connBuffer*9/10; i++ {
		burst = append(burst, loneRegisterReq(uint32(i), fmt.Appendf(nil, "burst-%04d", i))...)
	}
	conn := &stepConn{in: make(chan []byte), wrote: make(chan int, 64)}
	served := make(chan error, 1)
	go func() { served <- serveConn(connHost{store: s}, conn, 0) }()
	conn.in <- burst
	close(conn.in)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	frames := int(s.Stats().Registrations)
	if writes := len(conn.wrote); writes != 1 {
		t.Fatalf("the replies to a burst of %d frames took %d writes", frames, writes)
	}
	if n := <-conn.wrote; n != frames*(9+4) {
		t.Fatalf("the write carried %d bytes, want all %d replies (%d bytes)", n, frames, frames*(9+4))
	}
}
