package taintmap

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// simDialer returns a dial function connecting from a fixed local host
// so netsim partitions can target the client side by name.
func simDialer(n *netsim.Network, local string) func(addr string) (io.ReadWriteCloser, error) {
	return func(addr string) (io.ReadWriteCloser, error) {
		return n.DialFrom(local, addr)
	}
}

// dialOne is the client DialClusterAddrs makes of one address: a
// cluster of one, its ring built locally, so nothing here can fail.
func dialOne(addr string, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt ResilientOptions) *ClusterClient {
	c, err := DialClusterAddrs([]string{addr}, dial, tree, ClusterOptions{Resilient: opt})
	if err != nil {
		panic(err)
	}
	return c.(*ClusterClient)
}

// waitHealth polls a one-address client until pred accepts its member's
// health or the deadline passes.
func waitHealth(t *testing.T, c *ClusterClient, what string, pred func(Health) bool) Health {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h := c.Health().Members[0]; pred(h) {
			return h
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (health %+v)", what, c.Health().Members[0])
	return Health{}
}

// fastOpts keeps reconnect timing test-friendly. Jitter is disabled so
// schedules are deterministic.
func fastOpts() ResilientOptions {
	return ResilientOptions{
		CallTimeout:      250 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		JitterFrac:       -1,
		BreakerThreshold: 2,
	}
}

// TestResilientDegradedRefusesThenHeals is the end-to-end outage story:
// a partition cuts the client off, the breaker trips and a register
// fails fast with ErrDegraded, keeping nothing (a stream send defines
// such a taint inline instead), while the memo keeps answering what it
// holds. Then the partition heals, the same taints register as usual,
// and a *different* client resolves them to the same bytes.
func TestResilientDegradedRefusesThenHeals(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tree := taint.NewTree()
	c := dialOne("tm:1", simDialer(n, "app:1"), tree, fastOpts())
	defer c.Close()

	// Healthy path first.
	warm := tree.NewSource("warm", "app:1")
	warmID, err := c.Register(warm)
	if err != nil || warmID == 0 || IsStreamScoped(warmID) {
		t.Fatalf("healthy register = %d, %v", warmID, err)
	}

	n.Partition("app", "tm")

	// The first register is what discovers the outage — its write fails,
	// the reconnect loop exhausts the breaker, and the call is released
	// with ErrDegraded; the rest fail at once.
	outage := make([]taint.Taint, 4)
	for i := range outage {
		outage[i] = tree.NewSource(fmt.Sprintf("outage-%d", i), "app:1")
		id, err := c.Register(outage[i])
		if !errors.Is(err, ErrDegraded) || id != 0 {
			t.Fatalf("degraded register %d = %d, %v; want ErrDegraded", i, id, err)
		}
		if outage[i].GlobalID() != 0 {
			t.Fatalf("a refused register stamped the taint node: %d", outage[i].GlobalID())
		}
	}
	if h := c.Health().Members[0]; !h.Degraded || h.Connected {
		t.Fatalf("client not degraded after registers across a partition: %+v", h)
	}
	// The warm taint is still resolvable from the memo while degraded.
	if got, err := c.Lookup(warmID); err != nil || !taint.SameSet(got, warm) {
		t.Fatalf("degraded lookup of warm id: %v, %v", got, err)
	}
	// An id this node never saw cannot be served degraded.
	if _, err := c.Lookup(9999); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded lookup of unknown id = %v, want ErrDegraded", err)
	}

	n.Heal("app", "tm")
	waitHealth(t, c, "reconnect after heal", func(h Health) bool { return h.Connected && !h.Degraded })

	// Every outage taint now registers to a real Global ID that a
	// completely separate client resolves to the same taint.
	check, err := DialSim(n, "tm:1", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	for i, tt := range outage {
		gid, err := c.Register(tt)
		if err != nil || gid == 0 || IsStreamScoped(gid) || tt.GlobalID() != gid {
			t.Fatalf("outage taint %d registers to %#x (node %#x) after heal, %v", i, gid, tt.GlobalID(), err)
		}
		got, err := check.Lookup(gid)
		if err != nil || !taint.SameSet(got, tt) {
			t.Fatalf("second client lookup of id %d: %v, %v", gid, got, err)
		}
	}
}

// TestResilientReconnectReplaysBlockedRegister covers the window before
// the breaker trips: a register issued while the connection is down
// waits (it does not error) and completes once the client reconnects.
func TestResilientReconnectReplaysBlockedRegister(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tree := taint.NewTree()
	opt := fastOpts()
	opt.BreakerThreshold = 1 << 30 // never trip: force the waiting path
	c := dialOne("tm:1", simDialer(n, "app:1"), tree, opt)
	defer c.Close()

	n.Partition("app", "tm")
	tt := tree.NewSource("blocked", "app:1")
	type res struct {
		id  uint32
		err error
	}
	done := make(chan res, 1)
	go func() {
		id, err := c.Register(tt)
		done <- res{id, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("register completed across a partition: %d, %v", r.id, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	n.Heal("app", "tm")
	select {
	case r := <-done:
		if r.err != nil || r.id == 0 || IsStreamScoped(r.id) {
			t.Fatalf("register after heal = %d, %v", r.id, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("register still blocked after heal")
	}
}

// TestBackoffScheduleWithFakeClock drives the reconnect loop on a
// virtual clock against a dial that always fails: every backoff is one
// timer, and stepping the clock to each shows the schedule doubling from
// base to the cap and staying there.
func TestBackoffScheduleWithFakeClock(t *testing.T) {
	vc := netsim.NewVirtualClock()
	c := dialOne("tm:1", func(string) (io.ReadWriteCloser, error) {
		return nil, errors.New("no route")
	}, taint.NewTree(), ResilientOptions{
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       80 * time.Millisecond,
		JitterFrac:       -1,
		BreakerThreshold: 1,
		clk:              vc,
	})
	defer c.Close()

	var got []time.Duration
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < 6 {
		if vc.PendingTimers() == 0 {
			if !time.Now().Before(deadline) {
				t.Fatalf("recorded only %d delays", len(got))
			}
			time.Sleep(time.Millisecond)
			continue
		}
		before := vc.Now()
		vc.AdvanceToNext()
		got = append(got, vc.Now().Sub(before))
	}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("delay %d = %v, want %v (schedule %v)", i, got[i], w, got)
		}
	}
}

// TestBackoffDelayJitterBounds checks the pure schedule helper: jitter
// stays within ±frac of the deterministic value.
func TestBackoffDelayJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 12; attempt++ {
		base := backoffDelay(attempt, 10*time.Millisecond, time.Second, 0, nil)
		for trial := 0; trial < 100; trial++ {
			d := backoffDelay(attempt, 10*time.Millisecond, time.Second, 0.2, rng)
			lo := time.Duration(float64(base) * 0.8)
			hi := time.Duration(float64(base) * 1.2)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	if d := backoffDelay(50, 10*time.Millisecond, time.Second, 0, nil); d != time.Second {
		t.Fatalf("deep attempt delay = %v, want cap 1s", d)
	}
}

// TestRemoteClientClosedTyped is the regression test for the permanent-
// death bug: once the connection is lost, pending and subsequent calls
// must all fail with an error matching ErrClientClosed — not a bare
// string error a wrapper cannot classify.
func TestRemoteClientClosedTyped(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	tree := taint.NewTree()
	c, err := DialSim(n, "tm:1", tree)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(tree.NewSource("pre", "n:1")); err != nil {
		t.Fatal(err)
	}

	srv.Close() // kills the connection server-side

	// The demux goroutine notices asynchronously; every failure from
	// here on must carry the typed error.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		_, err := c.Register(tree.NewSource(fmt.Sprintf("post-%d", i), "n:1"))
		if err != nil {
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("post-outage register error not typed: %v", err)
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("register kept succeeding after server close")
		}
		time.Sleep(time.Millisecond)
	}
	// And it stays that way (an uncached id, so the memo cannot answer).
	if _, err := c.Lookup(424242); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("lookup after death = %v, want ErrClientClosed", err)
	}
}

// TestRemoteClientCloseIdempotent: double Close must not panic (the
// netsim conn tolerates it, a net.TCPConn does not appreciate double
// Close either) and must return the first result both times.
func TestRemoteClientCloseIdempotent(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialSim(n, "tm:1", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	first := c.Close()
	second := c.Close()
	if first != second {
		t.Fatalf("Close results differ: %v then %v", first, second)
	}
	// User-initiated close is also typed.
	if _, err := c.Lookup(1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close = %v, want ErrClientClosed", err)
	}
}

// TestCallTimeoutOnStalledConnection: a per-call deadline turns a
// wedged connection (peer alive, socket frozen) into a prompt typed
// error instead of a hang.
func TestCallTimeoutOnStalledConnection(t *testing.T) {
	n := netsim.New()
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
	c := newRemoteClientWith(conn, tree, &cache{}, 100*time.Millisecond, netsim.WallClock{})
	defer func() {
		n.SetStall(false)
		c.Close()
	}()

	n.SetStall(true)
	start := time.Now()
	_, err = c.Register(tree.NewSource("frozen", "n:1"))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("register on stalled conn = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
