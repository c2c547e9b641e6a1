package taintmap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// countingConn records every transport Write of the client it carries:
// how many there were and the bytes of each. An armed gate holds the
// next Write (and every Write behind it) until it is closed, and an
// armed fault fails the next Write instead of performing it.
type countingConn struct {
	io.ReadWriteCloser

	mu     sync.Mutex
	writes [][]byte
	gate   chan struct{} // non-nil: Writes wait for close(gate)
	atGate chan struct{} // closed when a Write reaches the armed gate
	fault  error         // non-nil: the next Write fails with it
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	gate, fault := c.gate, c.fault
	if gate != nil && c.atGate != nil {
		close(c.atGate)
		c.atGate = nil
	}
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if fault != nil {
		return 0, fault
	}
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.ReadWriteCloser.Write(p)
}

// arm installs a gate and returns it with the channel that closes once
// a Write is parked on it.
func (c *countingConn) arm() (gate, atGate chan struct{}) {
	gate, atGate = make(chan struct{}), make(chan struct{})
	c.mu.Lock()
	c.gate, c.atGate = gate, atGate
	c.mu.Unlock()
	return gate, atGate
}

// open closes the gate and disarms it.
func (c *countingConn) open(gate chan struct{}) {
	c.mu.Lock()
	c.gate = nil
	c.mu.Unlock()
	close(gate)
}

func (c *countingConn) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// frames splits captured transport writes into request frames, failing
// the test on a write that does not end on a frame boundary.
func frames(t *testing.T, writes [][]byte) (out [][]byte) {
	t.Helper()
	for _, w := range writes {
		for len(w) > 0 {
			if len(w) < 9 || len(w) < 9+int(binary.BigEndian.Uint32(w[5:9])) {
				t.Fatalf("transport write ends inside a frame: % x", w[:min(len(w), 32)])
			}
			n := 9 + int(binary.BigEndian.Uint32(w[5:9]))
			out = append(out, w[:n])
			w = w[n:]
		}
	}
	return out
}

// countedClient dials the sim server through a countingConn.
func countedClient(t *testing.T, n *netsim.Network, addr string, tree *taint.Tree, timeout time.Duration) (*RemoteClient, *countingConn) {
	t.Helper()
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{ReadWriteCloser: conn}
	return newRemoteClientWith(cc, tree, &cache{}, timeout, netsim.WallClock{}), cc
}

// helperWait bounds every wait of the helpers below, so a client that
// stops making progress fails the test within seconds rather than
// hanging the package until go test's timeout.
const helperWait = 10 * time.Second

// lockWithin takes mu, polling TryLock, and fails the test naming the
// lock if it is still held after helperWait: a send that writes while
// holding sendMu would otherwise park the helper in Lock for good.
func lockWithin(t *testing.T, mu *sync.Mutex, name string) {
	t.Helper()
	deadline := time.Now().Add(helperWait)
	for !mu.TryLock() {
		if time.Now().After(deadline) {
			t.Fatalf("%s is still held after %v", name, helperWait)
		}
		time.Sleep(time.Millisecond)
	}
}

// buffered returns a copy of the client's unwritten outbound bytes.
func buffered(t *testing.T, c *RemoteClient) []byte {
	t.Helper()
	lockWithin(t, &c.sendMu, "sendMu")
	defer c.sendMu.Unlock()
	return append([]byte(nil), c.out...)
}

// pendingCalls returns how many calls the client is waiting on.
func pendingCalls(t *testing.T, c *RemoteClient) int {
	t.Helper()
	lockWithin(t, &c.pmu, "pmu")
	defer c.pmu.Unlock()
	return len(c.pending)
}

// waitBuffered polls until the client's outbound buffer holds want
// frames behind the write in progress.
func waitBuffered(t *testing.T, c *RemoteClient, want int) {
	t.Helper()
	deadline := time.Now().Add(helperWait)
	for {
		if got := len(frames(t, [][]byte{buffered(t, c)})); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("outbound buffer holds %d frames, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoneCallerWritesOncePerRequest: a caller alone on the connection
// flushes its own frame at once — exactly one transport Write per
// request, carrying exactly the bytes writeTaggedFrame produces for it.
// An oversize payload is refused before anything is buffered, and a
// batch past the frame limit still goes out as several frames.
func TestLoneCallerWritesOncePerRequest(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tree := taint.NewTree()
	c, cc := countedClient(t, n, "tm:1", tree, 0)
	defer c.Close()

	lone := tree.NewSource("lone", "app:1")
	pair := []taint.Taint{tree.NewSource("pair-a", "app:1"), tree.NewSource("pair-b", "app:1")}
	loneBlob, _ := taint.MarshalTaint(lone)
	pairBlobs, _ := marshalAll(nil, pair)
	id, err := c.Register(lone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterBatch(pair); err != nil {
		t.Fatal(err)
	}
	c.memo = &cache{} // the lookup must reach the wire
	if _, err := c.Lookup(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}

	var want [][]byte
	for i, req := range []struct {
		op      byte
		payload []byte
	}{
		{opRegisterBatchTag, appendBlobList(nil, [][]byte{loneBlob})},
		{opRegisterBatchTag, appendBlobList(nil, pairBlobs)},
		{opLookupBatchTag, appendIDList(nil, []uint32{id})},
		{opStatsTag, nil},
	} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeTaggedFrame(bw, req.op, uint32(i+1), req.payload); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		want = append(want, buf.Bytes())
	}
	got := cc.snapshot()
	if len(got) != len(want) {
		t.Fatalf("%d transport writes for %d lone requests", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("request %d went out as % x, want % x", i, got[i], want[i])
		}
	}

	if _, err := c.call(opRegisterBatchTag, make([]byte, maxFrame+1), time.Time{}); !errors.Is(err, errProtocol) {
		t.Fatalf("oversize payload = %v, want errProtocol", err)
	}
	if writes := len(cc.snapshot()); writes != len(want) || len(buffered(t, c)) != 0 || pendingCalls(t, c) != 0 {
		t.Fatalf("refused payload left %d writes, %d buffered bytes, %d pending calls",
			writes-len(want), len(buffered(t, c)), pendingCalls(t, c))
	}

	var big []taint.Taint
	filler := strings.Repeat("x", 2048)
	for i, total := 0, 0; total <= 3*maxFrame/2; i++ {
		tt := tree.NewSource(fmt.Sprintf("big-%d-%s", i, filler), "app:1")
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		total += 4 + len(blob)
		big = append(big, tt)
	}
	if _, err := c.RegisterBatch(big); err != nil {
		t.Fatal(err)
	}
	chunks := cc.snapshot()[len(want):]
	if len(chunks) < 2 {
		t.Fatalf("a batch past the frame limit went out in %d writes", len(chunks))
	}
	for _, w := range chunks {
		if fs := frames(t, [][]byte{w}); len(fs) != 1 || len(w) > 9+maxFrame {
			t.Fatalf("chunk write of %d bytes holds %d frames", len(w), len(fs))
		}
	}
}

// TestGroupCommitSharesWrites: frames appended while a write is in
// progress ride the flusher's next write. With the first caller parked
// in the transport, seven more append; once the transport moves, all
// seven leave in one write — two writes for eight frames — and every
// reply finds its own caller. A free-running flood of the same eight
// callers then checks routing under whatever grouping the scheduler
// produces.
func TestGroupCommitSharesWrites(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tree := taint.NewTree()
	c, cc := countedClient(t, n, "tm:1", tree, 0)
	defer c.Close()

	const callers = 8
	// round registers one fresh taint per caller, all at once, and checks
	// that each caller received the id of its own taint. A gated round
	// holds caller 0 in the transport until the others have appended.
	round := func(r int, gated bool) {
		t.Helper()
		var gate, reached chan struct{}
		if gated {
			gate, reached = cc.arm()
		}
		var wg sync.WaitGroup
		ids := make([]uint32, callers)
		ts := make([]taint.Taint, callers)
		for g := range ts {
			ts[g] = tree.NewSource(fmt.Sprintf("commit-%d-%d", r, g), "app:1")
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if ids[g], err = c.Register(ts[g]); err != nil {
					t.Errorf("caller %d: %v", g, err)
				}
			}()
			if gated && g == 0 {
				<-reached
			}
		}
		if gated {
			waitBuffered(t, c, callers-1)
			cc.open(gate)
		}
		wg.Wait()
		check, err := DialSim(n, "tm:1", taint.NewTree())
		if err != nil {
			t.Fatal(err)
		}
		defer check.Close()
		for g, id := range ids {
			got, err := check.Lookup(id)
			if err != nil || !taint.SameSet(got, ts[g]) {
				t.Fatalf("round %d caller %d received id %d, which resolves to %v (%v)", r, g, id, got, err)
			}
		}
	}

	round(0, true)
	writes := cc.snapshot()
	if len(writes) != 2 || len(frames(t, writes[:1])) != 1 || len(frames(t, writes[1:])) != callers-1 {
		t.Fatalf("%d frames left in %d writes, want 1 then %d in one", len(frames(t, writes)), len(writes), callers-1)
	}
	const rounds = 50
	for r := 1; r <= rounds; r++ {
		round(r, false)
	}
	writes = cc.snapshot()
	if sent := len(frames(t, writes)); len(writes) > sent || sent != (rounds+1)*callers {
		t.Fatalf("%d transport writes for %d frames (want %d frames)", len(writes), sent, (rounds+1)*callers)
	}
}

// TestFrozenTransportContract pins who is held by a transport that
// stops accepting bytes (netsim.SetStall): the flusher sits in
// conn.Write; a call that merely appended behind it still gives up at
// its own deadline, with the connection up and serving again after the
// thaw; and when the freeze outlasts CallTimeout the watchdog tears the
// connection down, which releases the flusher and everything else with
// ErrCallTimeout.
func TestFrozenTransportContract(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer n.SetStall(false)

	t.Run("AppenderKeepsItsDeadline", func(t *testing.T) {
		tree := taint.NewTree()
		c, cc := countedClient(t, n, "tm:1", tree, 0)
		defer c.Close()
		n.SetStall(true)
		flusher := make(chan error, 1)
		go func() {
			_, err := c.Register(tree.NewSource("flusher", "app:1"))
			flusher <- err
		}()
		// The flusher has swapped its frame out and is parked in Write.
		deadline := time.Now().Add(10 * time.Second)
		for n.StalledWriters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("flusher never reached the stalled transport")
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		_, err := c.call(opStatsTag, nil, time.Now().Add(50*time.Millisecond))
		if !errors.Is(err, ErrDeadlineExceeded) || isConnErr(err) {
			t.Fatalf("appended call under a frozen transport = %v, want ErrDeadlineExceeded", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("deadline fired after %v, want ~50ms", took)
		}
		select {
		case err := <-flusher:
			t.Fatalf("flusher returned (%v) while the transport was frozen", err)
		default:
		}
		n.SetStall(false)
		if err := <-flusher; err != nil {
			t.Fatalf("flusher after the thaw: %v", err)
		}
		if _, err := c.Stats(); err != nil {
			t.Fatalf("same connection after the thaw: %v", err)
		}
		// The abandoned frame still went out, behind the flusher's.
		if fs := frames(t, cc.snapshot()); len(fs) != 3 || fs[1][0] != opStatsTag {
			t.Fatalf("%d frames on the wire, want register, abandoned stats, stats", len(fs))
		}
	})

	t.Run("WatchdogReleasesTheFlusher", func(t *testing.T) {
		tree := taint.NewTree()
		c, _ := countedClient(t, n, "tm:1", tree, 100*time.Millisecond)
		defer c.Close()
		n.SetStall(true)
		defer n.SetStall(false)
		errs := make(chan error, 3)
		go func() {
			_, err := c.Register(tree.NewSource("flusher", "app:1"))
			errs <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); n.StalledWriters() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("flusher never reached the stalled transport")
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 2; i++ {
			go func() {
				_, err := c.Register(tree.NewSource(fmt.Sprintf("appender-%d", i), "app:1"))
				errs <- err
			}()
		}
		for i := 0; i < 3; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrCallTimeout) {
					t.Fatalf("call on a frozen connection = %v, want ErrCallTimeout", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a call outlived the watchdog's teardown")
			}
		}
		if _, err := c.Stats(); !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("call after the teardown = %v, want ErrCallTimeout", err)
		}
	})
}

// TestHedgedLookupPastFrozenLeg: hedged legs run on their own
// goroutines, so a leg whose flusher is parked in a frozen member's
// transport does not hold the lookup — the other replica answers it.
func TestHedgedLookupPastFrozenLeg(t *testing.T) {
	e := newClusterEnv(t, 3, 2)
	seedTree := taint.NewTree()
	seed, err := DialSimCluster(e.net, "seed:1", e.ring, seedTree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	var ids []uint32
	for i := 0; i < 8; i++ {
		id, err := seed.Register(seedTree.NewSource(fmt.Sprintf("frozen-leg-%d", i), "seed:1"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Every write the reader makes towards member 0 parks in the
	// transport; members 1 and 2 stay reachable.
	var gates []chan struct{}
	var mu sync.Mutex
	dial := func(addr string) (io.ReadWriteCloser, error) {
		conn, err := e.net.DialFrom("rd:1", addr)
		if err != nil || addr != simMemberAddr(0) {
			return conn, err
		}
		cc := &countingConn{ReadWriteCloser: conn}
		gate, _ := cc.arm()
		mu.Lock()
		gates = append(gates, gate)
		mu.Unlock()
		return cc, nil
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, g := range gates {
			close(g)
		}
	}()
	c, err := NewClusterClient(e.ring, dial, taint.NewTree(), ClusterOptions{HedgeDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	for _, id := range ids {
		got, err := c.Lookup(id)
		if err != nil || got.Empty() {
			t.Fatalf("lookup %#x past a frozen leg = %v, %v", id, got, err)
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("lookups took %v: a frozen leg held them", took)
	}
	if h := c.Health(); h.Hedges == 0 {
		t.Fatalf("no hedge was launched: %+v", h)
	}
}

// TestWriteErrorMidBurst: the transport fails a write with other frames
// queued behind it. The flusher, the callers whose frames were queued
// and every later call all fail with an ErrClientClosed-wrapping error;
// none hangs.
func TestWriteErrorMidBurst(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tree := taint.NewTree()
	c, cc := countedClient(t, n, "tm:1", tree, 0)
	defer c.Close()

	gate, reached := cc.arm()
	cc.mu.Lock()
	cc.fault = errors.New("injected write failure")
	cc.mu.Unlock()
	const callers = 4
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			_, err := c.Register(tree.NewSource(fmt.Sprintf("burst-%d", g), "app:1"))
			errs <- err
		}()
		if g == 0 {
			<-reached
		}
	}
	waitBuffered(t, c, callers-1)
	cc.open(gate)
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("call in the failed burst = %v, want ErrClientClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a call of the failed burst hangs")
		}
	}
	if _, err := c.Stats(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after the write error = %v, want ErrClientClosed", err)
	}
	if got := len(cc.snapshot()); got != 0 {
		t.Fatalf("%d writes reached the transport after the injected failure", got)
	}
}

// TestSendBufferIsBounded: with a write stuck in the transport and a
// buffer's worth of frames already queued behind it, a further caller
// waits for room rather than growing the buffer, and gives up at its
// deadline with nothing appended.
func TestSendBufferIsBounded(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tree := taint.NewTree()
	c, cc := countedClient(t, n, "tm:1", tree, 0)
	defer c.Close()

	gate, reached := cc.arm()
	done := make(chan error, 2)
	go func() {
		_, err := c.Stats()
		done <- err
	}()
	<-reached
	// One frame past the high-water mark queues behind the stuck write
	// (the longest tag value the taint encoding takes, plus its headers).
	go func() {
		_, err := c.Register(tree.NewSource(strings.Repeat("x", sendHighWater-1), "app:1"))
		done <- err
	}()
	waitBuffered(t, c, 1)
	before := len(buffered(t, c))

	_, err = c.call(opStatsTag, nil, time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) || !strings.Contains(err.Error(), "not sent") {
		t.Fatalf("call against a full send buffer = %v, want ErrDeadlineExceeded (not sent)", err)
	}
	if after := len(buffered(t, c)); after != before || pendingCalls(t, c) != 2 {
		t.Fatalf("refused call left %d buffered bytes (was %d) and %d pending calls (want 2)", after, before, pendingCalls(t, c))
	}

	// Once the transport moves the buffer drains and a waiting caller
	// gets its turn.
	waiter := make(chan error, 1)
	go func() {
		_, err := c.call(opStatsTag, nil, time.Now().Add(10*time.Second))
		waiter <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it reach the room wait (either order passes)
	cc.open(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued call after the transport moved: %v", err)
		}
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiting call after the transport moved: %v", err)
	}
}

// TestOversizeBufferIsDroppedNotShared: a frame past the high-water mark
// grows the outbound buffer; that buffer is not kept, and dropping it
// must not leave out and spare on one backing array — a frame appended
// during the next write would land on the bytes being written.
func TestOversizeBufferIsDroppedNotShared(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tree := taint.NewTree()
	c, cc := countedClient(t, n, "tm:1", tree, 0)
	defer c.Close()

	for i := 0; i < 2; i++ { // both buffers exist
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	big := []taint.Taint{
		tree.NewSource(strings.Repeat("a", sendHighWater-1), "app:1"),
		tree.NewSource(strings.Repeat("b", sendHighWater-1), "app:1"),
	}
	if _, err := c.RegisterBatch(big); err != nil {
		t.Fatal(err)
	}

	gate, reached := cc.arm()
	done := make(chan error, 2)
	go func() {
		_, err := c.Stats()
		done <- err
	}()
	<-reached
	go func() {
		_, err := c.Register(tree.NewSource("behind", "app:1"))
		done <- err
	}()
	waitBuffered(t, c, 1)
	cc.open(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	fs := frames(t, cc.snapshot())
	if len(fs) != 5 || fs[3][0] != opStatsTag || len(fs[3]) != 9 || fs[4][0] != opRegisterBatchTag {
		t.Fatalf("frames after the oversize write: %d, want stats then register intact", len(fs))
	}
}
