package instrument

import (
	"errors"
	"io"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/taintmap"
)

// Failure-injection tests: taint tracking must stay consistent (or
// fail loudly) when the substrate misbehaves.

// TestPacketLossKeepsDeliveredTaintsConsistent injects 50% datagram
// loss: delivered packets must arrive with data and taints aligned —
// loss must never scramble the (byte, GlobalID) pairing.
func TestPacketLossKeepsDeliveredTaintsConsistent(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	r.net.SetDatagramLoss(0.5)
	sa, err := r.net.ListenPacket("a:1")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.net.ListenPacket("b:1")
	if err != nil {
		t.Fatal(err)
	}

	const total = 40
	// Sender: one packet per tag, payload text encodes the tag index.
	go func() {
		for i := 0; i < total; i++ {
			tag := r.a.Tree().NewSource(string(rune('A'+i%26)), r.a.LocalID())
			payload := taint.FromString(string(rune('A'+i%26)), tag)
			if err := PacketSend(r.a, sa, payload, "b:1"); err != nil {
				t.Error(err)
				return
			}
		}
		// Terminator packets (untainted) so the receiver can stop.
		for i := 0; i < 4; i++ {
			PacketSend(r.a, sa, taint.WrapBytes([]byte{0}), "b:1")
		}
	}()

	received := 0
	for {
		buf := taint.MakeBytes(4)
		n, _, err := PacketReceive(r.b, sb, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 && buf.Data[0] == 0 {
			break
		}
		received++
		// Consistency: the payload letter and the taint's tag value must
		// match exactly.
		want := string(buf.Data[:n])
		got := buf.LabelAt(0)
		if got.Empty() || !got.Has(want) {
			t.Fatalf("packet %q carries taint %v; loss scrambled the pairing", want, got)
		}
	}
	stats := r.net.Stats()
	if stats.DatagramsLost == 0 {
		t.Fatal("loss injection did not drop anything; test is vacuous")
	}
	if received == 0 {
		t.Fatal("every packet lost; cannot check consistency")
	}
	t.Logf("received %d/%d packets with consistent taints (%d lost)", received, total, stats.DatagramsLost)
}

// TestTaintMapOutageFailsLoudly kills the Taint Map server mid-run: the
// next tainted send must return an error, never silently drop taints.
func TestTaintMapOutageFailsLoudly(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	srv, err := taintmap.StartSimServer(r.net, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	mkAgent := func(name string) *tracker.Agent {
		a := tracker.New(name, tracker.ModeDista)
		client, err := taintmap.DialSim(r.net, "tm:7", a.Tree())
		if err != nil {
			t.Fatal(err)
		}
		return tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(client))
	}
	agent := mkAgent("n1")
	ca, cb := r.net.Pipe()
	defer cb.Close()
	sender := NewAdaptiveEndpoint(agent, ca)

	// Healthy send first.
	if err := sender.Write(taint.FromString("x", agent.Tree().NewSource("t1", "n1:1"))); err != nil {
		t.Fatalf("healthy send failed: %v", err)
	}
	// Kill the Taint Map; a send with a *new* taint needs a fresh
	// registration and must fail.
	srv.Close()
	err = sender.Write(taint.FromString("y", agent.Tree().NewSource("t2", "n1:1")))
	if err == nil {
		t.Fatal("send after Taint Map outage must fail loudly")
	}
	// A send reusing the already-registered taint still works: its
	// Global ID is cached on the node (Fig. 9 step ②).
	if err := sender.Write(taint.FromString("z", agent.Tree().NewSource("t1", "n1:1"))); err != nil {
		t.Fatalf("cached-taint send should survive the outage: %v", err)
	}
}

// degradedAgent returns an agent whose Taint Map client cannot reach a
// server and so mints provisional ids, with the client's Close.
func degradedAgent(t *testing.T) (*tracker.Agent, func() error) {
	t.Helper()
	scratch := tracker.New("n1", tracker.ModeDista)
	client, err := taintmap.DialClusterAddrs([]string{"tm:1"},
		func(string) (io.ReadWriteCloser, error) { return nil, errors.New("no route to taint map") },
		scratch.Tree(),
		taintmap.ClusterOptions{Resilient: taintmap.ResilientOptions{BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, BreakerThreshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return tracker.New("n1", tracker.ModeDista, tracker.WithTaintMap(client)), client.Close
}

// TestDegradedTaintMapRefusesTransferKeepsTracking: with the Taint Map
// unreachable and the resilient client degraded, a cross-node send of a
// freshly tainted payload must fail with the typed ErrGlobalIDPending —
// the taint exists, its Global ID is provisional — while intra-node
// tracking of that same taint keeps working.
func TestDegradedTaintMapRefusesTransferKeepsTracking(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	agent, closeClient := degradedAgent(t)
	defer closeClient()
	client := agent.TaintMap()

	ca, cb := r.net.Pipe()
	defer cb.Close()
	sender := NewAdaptiveEndpoint(agent, ca)

	tag := agent.Tree().NewSource("secret", "n1:1")
	err := sender.Write(taint.FromString("x", tag))
	if !errors.Is(err, taintmap.ErrGlobalIDPending) {
		t.Fatalf("degraded-mode send = %v, want ErrGlobalIDPending", err)
	}
	// The taint is still live on this node: its provisional id resolves
	// locally, so sink checks keep seeing it.
	id, err := client.Register(agent.Tree().NewSource("secret", "n1:1"))
	if err != nil || !taintmap.IsProvisional(id) {
		t.Fatalf("degraded register = %d, %v, want provisional id", id, err)
	}
	got, err := client.Lookup(id)
	if err != nil || got.Empty() || !got.Has("secret") {
		t.Fatalf("local lookup of provisional id = %v, %v", got, err)
	}
	// Untainted traffic is unaffected.
	if err := sender.Write(taint.WrapBytes([]byte("plain"))); err != nil {
		t.Fatalf("untainted send while degraded: %v", err)
	}
}

// TestSpecRestrictedSourcesStayDormant: with a spec that lists no
// matching source, the same workload produces zero taints end to end —
// the spec mechanism gates the whole pipeline.
func TestSpecRestrictedSourcesStayDormant(t *testing.T) {
	store := taintmap.NewStore()
	spec := tracker.NewSpec([]string{"OnlyThis#source"}, nil)
	mk := func(name string) *tracker.Agent {
		a := tracker.New(name, tracker.ModeDista)
		return tracker.New(name, tracker.ModeDista,
			tracker.WithTaintMap(taintmap.NewLocalClient(store, a.Tree())),
			tracker.WithSpec(spec))
	}
	a, b := mk("n1"), mk("n2")
	net := newRig(t, tracker.ModeDista).net
	ca, cb := net.Pipe()
	sender, receiver := NewAdaptiveEndpoint(a, ca), NewAdaptiveEndpoint(b, cb)

	payload := taint.FromString("data", a.Source("Unlisted#source", "tag"))
	if err := sender.Write(payload); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(4)
	if _, err := receiver.Read(&buf); err != nil {
		t.Fatal(err)
	}
	if !buf.Union().Empty() {
		t.Fatalf("dormant source produced taint %v", buf.Union())
	}
	if store.Stats().GlobalTaints != 0 {
		t.Fatal("no global taints should have been registered")
	}
}
