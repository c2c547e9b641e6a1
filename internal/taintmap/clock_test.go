package taintmap

import (
	"errors"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// Every timer of the taint map runs on a netsim.Clock: the server's
// read deadline on its network's, a client's call timeout and deadlines
// on its own. On a virtual clock each fires exactly when the test moves
// the clock past it, and never on wall time.

// waitUntil polls cond on wall time — for a goroutine of the test to
// reach a state — and fails the test after ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServerReadTimeoutOnFabricClock: a server over the simulated
// network sets its read deadline on the network's clock, the one the
// connection reads it on, so a client that sends nothing is dropped once
// that clock passes the timeout.
func TestServerReadTimeoutOnFabricClock(t *testing.T) {
	const timeout = 50 * time.Millisecond
	n := netsim.New()
	vc := n.UseVirtualClock()
	l, err := n.Listen("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(), simAcceptor{l: l, clk: n.Clock()}, nil, WithReadTimeout(timeout))
	srv.Start()
	defer srv.Close()
	conn, err := n.Dial("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitUntil(t, "the server to set its read deadline", func() bool { return vc.PendingTimers() == 1 })
	vc.Advance(timeout - time.Nanosecond)
	if a := srv.Stats().ActiveConns; a != 1 {
		t.Fatalf("%d connections served before the read timeout, want 1", a)
	}
	vc.Advance(time.Nanosecond)
	waitUntil(t, "the silent connection to be dropped", func() bool { return srv.Stats().ActiveConns == 0 })
}

// TestCallTimeoutOnVirtualClock is TestCallTimeoutOnStalledConnection on
// fabric time: a call on a stalled connection outlives twice the call
// timeout of wall time and is still pending one nanosecond of fabric
// time before it, and fails with ErrCallTimeout at it.
func TestCallTimeoutOnVirtualClock(t *testing.T) {
	const timeout = 100 * time.Millisecond
	n := netsim.New()
	vc := n.UseVirtualClock()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := n.Dial("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	tree := taint.NewTree()
	c := newRemoteClientWith(conn, tree, &cache{}, timeout, vc)
	defer func() {
		n.SetStall(false)
		c.Close()
	}()

	n.SetStall(true)
	done := make(chan error, 1)
	go func() {
		_, err := c.Register(tree.NewSource("frozen", "n:1"))
		done <- err
	}()
	waitUntil(t, "the register to be pending", func() bool { return pendingCalls(t, c) == 1 })
	time.Sleep(2 * timeout) // wall time that must not move the call timer
	vc.Advance(timeout - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("register returned %v one nanosecond before the call timeout", err)
	default:
	}
	if p := pendingCalls(t, c); p != 1 {
		t.Fatalf("%d calls pending one nanosecond before the call timeout, want 1", p)
	}
	vc.Advance(time.Nanosecond)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("register on a stalled conn = %v, want ErrCallTimeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("register still pending at the call timeout")
	}
}

// TestOpTimeoutOnVirtualClock: a cluster client on a virtual clock
// bounds a lookup by its OpTimeout on that clock — the connection's
// deadline and the operation's are one clock's — and returns
// ErrDeadlineExceeded once the clock passes it.
func TestOpTimeoutOnVirtualClock(t *testing.T) {
	const opTimeout = 50 * time.Millisecond
	n := netsim.New()
	vc := n.UseVirtualClock()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tree := taint.NewTree()
	w, err := DialSim(n, "tm:1", tree)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	id, err := w.Register(tree.NewSource("bounded", "n:1"))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(0, 1, []Member{{Part: 0, Addr: "tm:1"}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialSimCluster(n, "app:1", ring, taint.NewTree(), ClusterOptions{OpTimeout: opTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n.SetHostStall("tm", true)
	defer n.SetHostStall("tm", false)
	done := make(chan error, 1)
	go func() {
		_, err := c.Lookup(id)
		done <- err
	}()
	// The lookup's deadline and its connection's call timeout.
	waitUntil(t, "the lookup to be pending", func() bool { return vc.PendingTimers() == 2 })
	vc.Advance(opTimeout - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("lookup returned %v one nanosecond before its deadline", err)
	default:
	}
	vc.Advance(time.Nanosecond)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("lookup past its deadline = %v, want ErrDeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lookup still pending past its deadline")
	}
}
