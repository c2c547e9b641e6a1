package instrument

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Chaos regression for the clean-path bypass and the adaptive tiering
// layer (run by `make chaos`): kill and restart the Taint Map under a
// stream mixing clean, uniform, sparse and dense messages over an
// adaptive endpoint pair, and assert neither the bypass nor a tier
// switch ever becomes an unsoundness hole. The invariant: every write
// succeeds and every tainted buffer arrives with exactly its labels —
// while the Taint Map is down its taints cross inline, under
// stream-scoped ids — never downgraded onto the passthrough or a
// wrong-label uniform frame, and clean traffic keeps flowing right
// through the outage. The dense messages densify their shadow store, so
// they reach the groups writer through its per-byte lane, which hands a
// taint without a Global ID to the run walk that scopes it.

// chaosAcceptor adapts a netsim.Listener to the taintmap.Acceptor
// interface (the package-internal adapter is not exported).
type chaosAcceptor struct{ l *netsim.Listener }

func (a chaosAcceptor) Accept() (io.ReadWriteCloser, error) { return a.l.Accept() }
func (a chaosAcceptor) Close() error                        { return a.l.Close() }

func TestChaosPassthroughNoCleanDowngrade(t *testing.T) {
	net := netsim.New()
	store := taintmap.NewStore() // survives server restarts

	startServer := func() *taintmap.Server {
		l, err := net.Listen("tm:chaos")
		if err != nil {
			t.Fatalf("chaos listen: %v", err)
		}
		srv := taintmap.NewServer(store, chaosAcceptor{l: l}, nil,
			taintmap.WithReadTimeout(200*time.Millisecond))
		srv.Start()
		return srv
	}
	srv := startServer()

	// Sender rides the outage on a one-address client's resilience
	// layer; the receiver
	// resolves against the shared store directly, so any Global ID that
	// made it onto the wire is resolvable.
	senderAgent := tracker.New("n1", tracker.ModeDista)
	dialed, err := taintmap.DialClusterAddrs([]string{"tm:chaos"},
		func(addr string) (io.ReadWriteCloser, error) { return net.DialFrom("n1", addr) },
		senderAgent.Tree(),
		taintmap.ClusterOptions{Resilient: taintmap.ResilientOptions{
			CallTimeout:      200 * time.Millisecond,
			BackoffBase:      time.Millisecond,
			BackoffMax:       10 * time.Millisecond,
			BreakerThreshold: 2,
		}})
	if err != nil {
		t.Fatal(err)
	}
	client := dialed.(*taintmap.ClusterClient)
	defer client.Close()
	senderAgent = tracker.New("n1", tracker.ModeDista,
		tracker.WithTaintMap(client), tracker.WithLocalID(senderAgent.LocalID()))

	recvAgent := tracker.New("n2", tracker.ModeDista)
	recvAgent = tracker.New("n2", tracker.ModeDista,
		tracker.WithTaintMap(taintmap.NewLocalClient(store, recvAgent.Tree())),
		tracker.WithLocalID(recvAgent.LocalID()))

	ca, cb := net.Pipe()
	sender, receiver := NewAdaptiveEndpoint(senderAgent, ca), NewAdaptiveEndpoint(recvAgent, cb)

	// Fixed-size app messages: first byte says what the receiver must
	// find — 'C' clean, 'U' uniformly tainted, 'S' two tainted islands
	// (bytes 8..16 and 24..32), 'D' densely tainted on even bytes. The
	// mix takes the sender through every tier while the Taint Map dies
	// and recovers underneath it.
	const msgLen = 32
	const rounds = 200
	type sent struct {
		kind byte
		tag  string
		src  taint.Taint
	}
	var mu sync.Mutex
	var delivered []sent

	recvErr := make(chan error, 1)
	go func() {
		recvErr <- func() error {
			buf := taint.MakeBytes(msgLen)
			for i := 0; ; i++ {
				for got := 0; got < msgLen; {
					sub := buf.Slice(got, msgLen)
					n, err := receiver.Read(&sub)
					if err == io.EOF && got == 0 && n == 0 {
						return nil
					}
					if err != nil {
						return fmt.Errorf("read: %w", err)
					}
					got += n
				}
				mu.Lock()
				if i >= len(delivered) {
					mu.Unlock()
					return fmt.Errorf("message %d arrived but only %d were sent", i, len(delivered))
				}
				want := delivered[i]
				mu.Unlock()
				if buf.Data[0] != want.kind {
					return fmt.Errorf("message %d is %q, want %q", i, buf.Data[0], want.kind)
				}
				for k := 0; k < msgLen; k++ {
					lbl := buf.LabelAt(k)
					if !chaosByteTainted(want.kind, k) {
						// Clean bytes — whole clean messages and the gaps of
						// sparse/dense ones — must never grow a label: a tier
						// switch that smeared a neighbor's uniform id over
						// them would show up here.
						if !lbl.Empty() {
							return fmt.Errorf("message %d (%q) byte %d grew taint %v",
								i, want.kind, k, lbl.Values())
						}
						continue
					}
					// THE invariant: every tainted byte carries exactly its
					// label. Anything else would mean an outage or a tier
					// transition downgraded tainted data onto the
					// passthrough (or a wrong-label uniform) frame.
					if !lbl.Has(want.tag) || !taint.SameSet(lbl, want.src) {
						return fmt.Errorf("message %d (%q) byte %d carries %v, want exactly %q",
							i, want.kind, k, lbl.Values(), want.tag)
					}
				}
			}
		}()
	}()

	var cleanSent int
	taintedSent, scopedKind := map[byte]int{}, map[byte]int{}
	kinds := []byte{'C', 'U', 'S', 'D'}
	for i := 0; i < rounds; i++ {
		switch i {
		case rounds / 4:
			srv.Close() // outage: the member degrades, taints cross inline
		case rounds / 2:
			srv = startServer() // reconnect
			// Wait out the backoff so the back half of the run exercises
			// the recovered path, not just the outage.
			deadline := time.Now().Add(10 * time.Second)
			for !client.Health().Members[0].Connected && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if !client.Health().Members[0].Connected {
				t.Fatal("client never reconnected after server restart")
			}
		}

		kind := kinds[i%len(kinds)]
		if kind == 'C' {
			// Record before writing: the receiver may see the bytes the
			// instant Write hands them to the pipe.
			mu.Lock()
			delivered = append(delivered, sent{kind: 'C'})
			mu.Unlock()
			msg := taint.WrapBytes(fill('C', msgLen))
			if err := sender.Write(msg); err != nil {
				t.Fatalf("round %d: clean write must survive the outage: %v", i, err)
			}
			cleanSent++
			continue
		}

		// Fresh source value every round forces a fresh registration, so
		// outages are actually exercised instead of served by the
		// GlobalID cache. The message goes twice: its first crossing
		// defines the taint inline and registers nothing, the second
		// registers it — or, with the Taint Map down, cannot, and crosses
		// inline again.
		tag := fmt.Sprintf("chaos%d", i)
		src := senderAgent.Source("v"+tag, tag)
		msg := taint.WrapBytes(fill(kind, msgLen))
		switch kind {
		case 'U':
			msg.SetRange(0, msgLen, src)
		case 'S':
			msg.SetRange(8, 16, src)
			msg.SetRange(24, 32, src)
		case 'D':
			for k := 0; k < msgLen; k += 2 {
				msg.SetLabel(k, src)
			}
			if msg.DenseLabels() == nil {
				t.Fatalf("round %d: the dense message kept a run-mode store; the per-byte lane goes untested", i)
			}
		}
		for range 2 {
			mu.Lock()
			delivered = append(delivered, sent{kind: kind, tag: tag, src: src})
			mu.Unlock()
			if err := sender.Write(msg); err != nil {
				t.Fatalf("round %d: tainted %q write refused: %v", i, kind, err)
			}
		}
		taintedSent[kind]++
		if src.GlobalID() == 0 {
			scopedKind[kind]++ // the Taint Map was down: the taint crossed inline
		}
	}
	ca.Close()

	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	srv.Close()

	for _, kind := range kinds[1:] {
		if scopedKind[kind] == 0 || scopedKind[kind] == taintedSent[kind] {
			t.Fatalf("%d of %d %q taints crossed inline twice; the outage must bite, and end, on every tier",
				scopedKind[kind], taintedSent[kind], kind)
		}
	}
	t.Logf("delivered %d uniform + %d sparse + %d dense messages twice and %d clean ones, %d/%d/%d of them inline twice during the outage",
		taintedSent['U'], taintedSent['S'], taintedSent['D'], cleanSent, scopedKind['U'], scopedKind['S'], scopedKind['D'])
}

// TestChaosStreamOutage kills the Taint Map under two sender nodes
// streaming concurrently to a third, each node's client riding the
// outage, and restarts it. Through the outage every write succeeds and
// every byte arrives with exactly its labels — fresh taints, and one
// taint both senders mint from the same tags, cross inline. After it,
// that shared taint registers from both senders to one Global ID, which
// a fresh client resolves to its bytes.
func TestChaosStreamOutage(t *testing.T) {
	net := netsim.New()
	store := taintmap.NewStore()
	start := func() *taintmap.Server {
		l, err := net.Listen("tm:outage")
		if err != nil {
			t.Fatal(err)
		}
		srv := taintmap.NewServer(store, chaosAcceptor{l: l}, nil, taintmap.WithReadTimeout(200*time.Millisecond))
		srv.Start()
		return srv
	}
	srv := start()
	node := func(name string) (*tracker.Agent, *taintmap.ClusterClient) {
		a := tracker.New(name, tracker.ModeDista)
		c, err := taintmap.DialClusterAddrs([]string{"tm:outage"},
			func(addr string) (io.ReadWriteCloser, error) { return net.DialFrom(name, addr) }, a.Tree(), outageOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(c), tracker.WithLocalID(a.LocalID())), c.(*taintmap.ClusterClient)
	}
	recv, _ := node("n0")
	senders := make([]*tracker.Agent, 2)
	clients := make([]*taintmap.ClusterClient, 2)
	shared := make([]taint.Taint, 2)
	for i := range senders {
		senders[i], clients[i] = node(fmt.Sprintf("n%d", i+1))
		shared[i] = senders[i].Tree().NewSource("shared", "origin:1") // the same tags on both nodes
	}

	// exchange sends rounds messages from every sender at once, each on
	// its own connection, and checks every byte the receiver reads.
	exchange := func(phase string, rounds int) {
		const n = 48
		errs := make(chan error, len(senders))
		for i, a := range senders {
			ca, cb := net.Pipe()
			w, rd := NewAdaptiveEndpoint(a, ca), NewAdaptiveEndpoint(recv, cb)
			go func() {
				errs <- func() error {
					for k := 0; k < rounds; k++ {
						fresh := a.Source("s", fmt.Sprintf("%s-%d-%d", phase, i, k))
						msg := taint.MakeBytes(n)
						msg.SetRange(0, n/2, shared[i])
						for j := n / 2; j < n; j += 2 {
							msg.SetLabel(j, fresh)
						}
						if err := w.Write(msg); err != nil {
							return fmt.Errorf("%s: sender %d write %d: %w", phase, i, k, err)
						}
						buf := taint.MakeBytes(n)
						for got := 0; got < n; {
							sub := buf.Slice(got, n)
							m, err := rd.Read(&sub)
							if err != nil {
								return fmt.Errorf("%s: read %d from sender %d: %w", phase, k, i, err)
							}
							got += m
						}
						for j := 0; j < n; j++ {
							if got, want := buf.LabelAt(j), msg.LabelAt(j); got.Empty() != want.Empty() || !taint.SameSet(got, want) {
								return fmt.Errorf("%s: sender %d message %d byte %d carries %v, want %v", phase, i, k, j, got.Values(), want.Values())
							}
						}
					}
					return nil
				}()
			}()
		}
		for range senders {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	srv.Close()
	exchange("outage", 20)
	for i, tt := range shared {
		if tt.GlobalID() != 0 {
			t.Fatalf("sender %d's shared taint got Global ID %#x with the Taint Map down", i, tt.GlobalID())
		}
	}

	srv = start()
	defer srv.Close()
	for i, c := range clients {
		deadline := time.Now().Add(10 * time.Second)
		for !c.Health().Members[0].Connected {
			if time.Now().After(deadline) {
				t.Fatalf("sender %d never reconnected", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	exchange("healed", 5)
	id := shared[0].GlobalID()
	if id == 0 || taintmap.IsStreamScoped(id) || shared[1].GlobalID() != id {
		t.Fatalf("the shared taint registered to %#x and %#x", id, shared[1].GlobalID())
	}
	got, err := taintmap.NewLocalClient(store, taint.NewTree()).Lookup(id)
	if err != nil || !taint.SameSet(got, shared[0]) {
		t.Fatalf("a fresh client resolves %#x to %v, %v", id, got.Values(), err)
	}
}

// chaosByteTainted says whether byte k of a kind-shaped chaos message
// was sent with a label.
func chaosByteTainted(kind byte, k int) bool {
	switch kind {
	case 'U':
		return true
	case 'S':
		return (k >= 8 && k < 16) || (k >= 24 && k < 32)
	case 'D':
		return k%2 == 0
	default:
		return false
	}
}

// fill returns an n-byte message starting with kind.
func fill(kind byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = kind
	}
	return b
}
