package instrument

import (
	"errors"
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
// switch ever becomes an unsoundness hole. The invariant: a tainted
// buffer is either transferred with its labels intact or refused
// loudly — reconnect/degraded mode must never downgrade it onto the
// passthrough or a wrong-label uniform frame, and clean traffic must
// keep flowing right through the outage. The dense messages densify
// their shadow store, so they reach the groups writer through its
// per-byte lane: a refusal there, too, is typed and puts nothing on the
// connection.

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
					// THE invariant: a tainted message that made it across
					// must still carry its label on every tainted byte.
					// Losing it would mean an outage or a tier transition
					// downgraded tainted data onto the passthrough (or a
					// wrong-label uniform) frame.
					if !lbl.Has(want.tag) {
						return fmt.Errorf("message %d (%q) byte %d lost label %q (labels %v)",
							i, want.kind, k, want.tag, lbl.Values())
					}
				}
			}
		}()
	}()

	var refused, cleanSent int
	taintedSent, refusedKind := map[byte]int{}, map[byte]int{}
	kinds := []byte{'C', 'U', 'S', 'D'}
	for i := 0; i < rounds; i++ {
		switch i {
		case rounds / 4:
			srv.Close() // outage: degraded local mode
		case rounds / 2:
			srv = startServer() // reconnect + journal drain
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
		// GlobalID cache.
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
		mu.Lock()
		delivered = append(delivered, sent{kind: kind, tag: tag})
		mu.Unlock()
		_, wireBefore := senderAgent.Traffic()
		err := sender.Write(msg)
		if err != nil {
			if _, wireAfter := senderAgent.Traffic(); wireAfter != wireBefore {
				t.Fatalf("round %d: refused %q write put %d bytes on the connection", i, kind, wireAfter-wireBefore)
			}
			refusedKind[kind]++
			// Refused loudly: nothing hit the wire, un-record it. No
			// later message exists yet (single sender), so the receiver
			// cannot have indexed this entry.
			mu.Lock()
			delivered = delivered[:len(delivered)-1]
			mu.Unlock()
			if !errors.Is(err, taintmap.ErrDegraded) && !errors.Is(err, taintmap.ErrGlobalIDPending) {
				t.Fatalf("round %d: tainted write failed untyped: %v", i, err)
			}
			refused++
			continue
		}
		taintedSent[kind]++
	}
	ca.Close()

	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if refused == 0 {
		t.Fatal("no tainted write was refused; the outage never bit and the test is vacuous")
	}
	if refusedKind['D'] == 0 {
		t.Fatal("no dense write was refused; the lane's hand-over to the registering walk went untested")
	}
	for _, kind := range kinds[1:] {
		if taintedSent[kind] == 0 {
			t.Fatalf("no %q write succeeded; cannot check label delivery for that tier", kind)
		}
	}
	t.Logf("delivered %d uniform + %d sparse + %d dense + %d clean messages, %d refused during outage",
		taintedSent['U'], taintedSent['S'], taintedSent['D'], cleanSent, refused)
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
