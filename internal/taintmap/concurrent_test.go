package taintmap

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// TestServerCloseTwiceNeverStarted is the regression test for the Close
// deadlock: a second Close on a server whose Start was never called
// used to block forever on the done channel.
func TestServerCloseTwiceNeverStarted(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(), simAcceptor{l: l, clk: n.Clock()}, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		srv.Close()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("second Close on a never-started server deadlocked")
	}
}

// TestConcurrentClients hammers one shared RemoteClient and one shared
// LocalClient from 8 goroutines with overlapping register/lookup
// batches and, each round, a lone Register of one taint every goroutine
// registers at once — batches of one of the same blob racing on the
// shared client. It then asserts the global invariants: every
// occurrence of a blob observed the same id, stamped on its taint node,
// and the store allocated each distinct blob exactly one id. Run under
// -race this also exercises the sharded store, the lock-free page table
// and the mux demultiplexer.
func TestConcurrentClients(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remoteTree := taint.NewTree()
	remote, err := DialSim(n, "tm:7", remoteTree)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	localTree := taint.NewTree()
	local := NewLocalClient(srv.Store(), localTree)

	const goroutines = 8
	const rounds = 60
	const distinct = 24 // logical taints shared by all goroutines

	var mu sync.Mutex
	idOf := make(map[string]uint32) // marshalled blob -> observed id

	record := func(ts []taint.Taint, ids []uint32) error {
		for i, tt := range ts {
			blob, err := taint.MarshalTaint(tt)
			if err != nil {
				return err
			}
			mu.Lock()
			prev, seen := idOf[string(blob)]
			if !seen {
				idOf[string(blob)] = ids[i]
			}
			mu.Unlock()
			if seen && prev != ids[i] {
				return fmt.Errorf("blob got ids %d and %d", prev, ids[i])
			}
			if ids[i] == 0 {
				return fmt.Errorf("tainted value got id 0")
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var client Client = remote
			tree := remoteTree
			if g%2 == 1 {
				client, tree = local, localTree
			}
			for r := 0; r < rounds; r++ {
				lone := tree.NewSource(fmt.Sprintf("lone-%d", r), "common:1")
				id, err := client.Register(lone)
				if err == nil && lone.GlobalID() != id {
					err = fmt.Errorf("lone register returned id %d, stamped %d", id, lone.GlobalID())
				}
				if err == nil {
					err = record([]taint.Taint{lone}, []uint32{id})
				}
				if err != nil {
					errs <- err
					return
				}
				// Overlapping windows of the shared logical taints; each
				// goroutine builds them in its client's tree.
				ts := make([]taint.Taint, 0, 6)
				for k := 0; k < 6; k++ {
					ts = append(ts, tree.NewSource(
						fmt.Sprintf("shared-%d", (g+r+k)%distinct), "common:1"))
				}
				ids, err := client.RegisterBatch(ts)
				if err != nil {
					errs <- err
					return
				}
				if err := record(ts, ids); err != nil {
					errs <- err
					return
				}
				got, err := client.LookupBatch(ids)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if !taint.SameSet(got[i], ts[i]) {
						errs <- fmt.Errorf("lookup of id %d returned wrong taint", ids[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := srv.Store().Stats().GlobalTaints; got != len(idOf) {
		t.Fatalf("store allocated %d ids for %d distinct blobs", got, len(idOf))
	}
	if len(idOf) != distinct+rounds {
		t.Fatalf("observed %d distinct blobs, want %d", len(idOf), distinct+rounds)
	}
}

// TestRegisterBatchChunksOversized registers a batch whose encoded
// payload exceeds maxFrame (1 MiB): the client must split it into
// several frames transparently instead of failing at the frame bound.
func TestRegisterBatchChunksOversized(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Long source names make each blob large, so a modest count of
	// distinct taints overflows one frame.
	build := func(tree *taint.Tree) ([]taint.Taint, int) {
		filler := strings.Repeat("x", 2048)
		var ts []taint.Taint
		total := 4
		for i := 0; total <= 3*maxFrame/2; i++ {
			tt := tree.NewSource(fmt.Sprintf("big-%d-%s", i, filler), "chunk:1")
			blob, err := taint.MarshalTaint(tt)
			if err != nil {
				t.Fatal(err)
			}
			total += 4 + len(blob)
			ts = append(ts, tt)
		}
		return ts, total
	}

	for _, tc := range []struct {
		name string
		dial func(*taint.Tree) Client
	}{
		{"Mux", func(tree *taint.Tree) Client {
			c, err := DialSim(n, "tm:7", tree)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"Resilient", func(tree *taint.Tree) Client {
			return dialOne("tm:7", func(addr string) (io.ReadWriteCloser, error) { return n.Dial(addr) },
				tree, ResilientOptions{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := taint.NewTree()
			client := tc.dial(tree)
			defer client.Close()
			ts, total := build(tree)
			if total <= maxFrame {
				t.Fatalf("test batch encodes to %d bytes, need > %d", total, maxFrame)
			}
			ids, err := client.RegisterBatch(ts)
			if err != nil {
				t.Fatalf("oversized batch: %v", err)
			}
			seen := make(map[uint32]bool)
			for i, id := range ids {
				if id == 0 || seen[id] {
					t.Fatalf("id[%d] = %d (zero or duplicate)", i, id)
				}
				seen[id] = true
			}
			// Round-trip through a fresh client to prove the server got
			// every blob intact.
			checkTree := taint.NewTree()
			check, err := DialSim(n, "tm:7", checkTree)
			if err != nil {
				t.Fatal(err)
			}
			defer check.Close()
			got, err := check.LookupBatch(ids)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !taint.SameSet(got[i], ts[i]) {
					t.Fatalf("taint %d did not survive the chunked round trip", i)
				}
			}
		})
	}
}

// lookupServer answers every lookup batch written to it with the empty
// taint's blob per id — as many as fit the reply frame, the rest left to
// be asked again — and records the ids each request asked for.
type lookupServer struct {
	mu     sync.Mutex
	cond   sync.Cond
	out    []byte
	closed bool
	asked  [][]uint32
}

func (s *lookupServer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w := p; len(w) > 0; {
		tag, n := binary.BigEndian.Uint32(w[1:5]), binary.BigEndian.Uint32(w[5:9])
		ids, _ := parseIDListInto(nil, w[9:9+n])
		w = w[9+n:]
		s.asked = append(s.asked, ids)
		k := min(len(ids), (maxFrame-4)/6)
		reply := binary.BigEndian.AppendUint32(nil, uint32(k))
		for range k {
			reply = append(reply, 0, 0, 0, 2, 0, 0)
		}
		s.out = append(appendFrameHeader(s.out, statusTaggedOK, tag, len(reply)), reply...)
	}
	s.cond.Broadcast()
	return len(p), nil
}

func (s *lookupServer) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.out) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.out) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.out)
	s.out = s.out[n:]
	return n, nil
}

func (s *lookupServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
	return nil
}

// TestLookupChunksIDs covers the id side of chunking without paying for
// a quarter-million registrations: a lookup of more ids than a frame
// holds asks a frame's worth at a time, re-asks the tail a partial reply
// left, and misses none and repeats none.
func TestLookupChunksIDs(t *testing.T) {
	srv := &lookupServer{}
	srv.cond.L = &srv.mu
	c := newRemoteClientWith(srv, taint.NewTree(), &cache{}, 0, netsim.WallClock{})
	defer c.Close()
	ids := make([]uint32, maxIDsPerFrame*2+17)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	ts, err := c.lookupDeadline(ids, time.Time{})
	if err != nil || len(ts) != len(ids) {
		t.Fatalf("lookup of %d ids = %d taints, %v", len(ids), len(ts), err)
	}
	next := ids
	for i, asked := range srv.asked {
		if len(asked) > maxIDsPerFrame || len(asked) == 0 || asked[0] != next[0] {
			t.Fatalf("request %d asked %d ids from %d, want at most %d from %d", i, len(asked), asked[0], maxIDsPerFrame, next[0])
		}
		next = next[min(len(asked), (maxFrame-4)/6):]
	}
	if len(next) != 0 || len(srv.asked) < 3 {
		t.Fatalf("%d requests left %d ids unasked", len(srv.asked), len(next))
	}
}

// TestUntaggedFrameRejected sends each op byte of the removed untagged
// generation (op | len | payload, no tag) the way its client used to:
// the serving loop and the over-cap brownout loop must both fail the
// connection on that first byte — closed inside the read timeout, with a
// protocol error, and with nothing written back under any framing. So
// must 'l', the single lookup no client has sent since Lookup became the
// 'm' batch of one: a head byte like any other that is no op.
func TestUntaggedFrameRejected(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("tm:7")
	if err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	var logged []string
	srv := NewServer(NewStore(), simAcceptor{l: l, clk: n.Clock()}, func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}, WithReadTimeout(5*time.Second), WithMaxConns(1))
	srv.Start()
	defer srv.Close()

	// expectClosed writes one old-generation frame and requires EOF — no
	// reply bytes at all — well inside the server's read timeout.
	expectClosed := func(t *testing.T, op byte) {
		t.Helper()
		conn, err := n.Dial("tm:7")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(untaggedReq(op, []byte{0, 0, 0, 1})); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
			t.Fatalf("op %q: read % x, %v; want a bare close", op, got, err)
		}
	}

	// waitIdle waits until the server has released its one slot.
	waitIdle := func(t *testing.T) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for srv.Stats().ActiveConns != 0 {
			if time.Now().After(deadline) {
				t.Fatal("served connection never released")
			}
			time.Sleep(time.Millisecond)
		}
	}

	for _, op := range []byte("RLBMSGJPWl") {
		t.Run(string(op), func(t *testing.T) {
			// Within the cap: the serving loop.
			waitIdle(t)
			before := srv.Stats().Accepted
			expectClosed(t, op)
			waitIdle(t)
			if srv.Stats().Accepted != before+1 {
				t.Fatalf("frame did not reach the serving loop")
			}

			// Over the cap: a healthy client holds the only slot, so the
			// next arrival lands in shedConn.
			holder, err := DialSim(n, "tm:7", taint.NewTree())
			if err != nil {
				t.Fatal(err)
			}
			defer holder.Close()
			if _, err := holder.Stats(); err != nil {
				t.Fatal(err)
			}
			shedBefore := srv.Stats().ShedConns
			expectClosed(t, op)
			if srv.Stats().ShedConns != shedBefore+1 {
				t.Fatalf("frame did not reach the brownout loop")
			}
		})
	}

	logMu.Lock()
	defer logMu.Unlock()
	protoErrs := 0
	for _, line := range logged {
		if strings.Contains(line, errProtocol.Error()) {
			protoErrs++
		}
	}
	if protoErrs != 10 {
		t.Fatalf("server logged %d protocol errors for 10 rejected frames: %q", protoErrs, logged)
	}
}

// TestRegisterCoalescing floods one RemoteClient with concurrent
// single-taint Registers of distinct taints. Their 'r' frames share
// transport writes in whatever groups the scheduler produces (see
// RemoteClient.send), and every reply must still find the caller whose
// frame it answers. Distinct sources keep the singleflight table and
// the memo cache out of the way.
func TestRegisterCoalescing(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:9")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tree := taint.NewTree()
	client, err := DialSim(n, "tm:9", tree)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const goroutines = 16
	const perG = 50
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	ids := make([][]uint32, goroutines)
	taints := make([][]taint.Taint, goroutines)
	for g := 0; g < goroutines; g++ {
		taints[g] = make([]taint.Taint, perG)
		ids[g] = make([]uint32, perG)
		for i := range taints[g] {
			taints[g][i] = tree.NewSource(
				fmt.Sprintf("coalesce-%d-%d", g, i), "burst:1")
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i, tt := range taints[g] {
				id, err := client.Register(tt)
				if err != nil {
					errs <- err
					return
				}
				ids[g][i] = id
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	seen := make(map[uint32]bool)
	for g := range ids {
		for i, id := range ids[g] {
			if id == 0 {
				t.Fatalf("goroutine %d taint %d got id 0", g, i)
			}
			if seen[id] {
				t.Fatalf("id %d assigned to two distinct taints", id)
			}
			seen[id] = true
			got, err := client.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if !taint.SameSet(got, taints[g][i]) {
				t.Fatalf("lookup of id %d returned wrong taint", id)
			}
		}
	}
	if got := srv.Store().Stats().GlobalTaints; got != goroutines*perG {
		t.Fatalf("store allocated %d ids, want %d", got, goroutines*perG)
	}
}
