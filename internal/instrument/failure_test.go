package instrument

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/jni"
	"dista/internal/netsim"
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

// checkOutageStreams writes messages labelled with taints sender's Taint
// Map cannot register — fresh ones, their combination, cached a taint
// that crossed before (or none), a clean gap, and a dense alternation
// for the groups lane — over an Endpoint, a gathering write and a
// custom-transport pair to receiver, each message twice. Every byte must
// arrive with exactly its labels, the fresh taints must stay without a
// Global ID (they crossed inline), and a repeat must cost fewer wire
// bytes: a stream defines a taint once. The gathering write first fails
// one call after it has scoped a taint: what it numbered must not leave
// a gap in what the stream defines.
func checkOutageStreams(t *testing.T, r *rig, sender, receiver *tracker.Agent, cached taint.Taint) {
	t.Helper()
	type writer interface{ Write(taint.Bytes) error }
	type reader interface {
		Read(*taint.Bytes) (int, error)
	}
	ca, cb := r.net.Pipe()
	va, vb := r.net.Pipe()
	ta, tb := newChanPair()
	gather := NewAdaptiveEndpoint(sender, va)
	failed := taint.FromString("never sent", sender.Source("s", "failed"))
	if _, err := gather.WritevBuffers([]*jni.DirectBuffer{{Data: failed.Data, B: failed}, {}}, []int{len(failed.Data), 1}); err == nil || vb.Buffered() != 0 {
		t.Fatalf("a gathering write past its buffer = %v, %d bytes sent", err, vb.Buffered())
	}
	for _, p := range []struct {
		name string
		w    writer
		rd   reader
	}{
		{"Endpoint", NewAdaptiveEndpoint(sender, ca), NewAdaptiveEndpoint(receiver, cb)},
		{"WritevBuffers", writerFunc(func(b taint.Bytes) error {
			_, err := gather.WritevBuffers([]*jni.DirectBuffer{{Data: b.Data, B: b}}, []int{len(b.Data)})
			return err
		}), NewAdaptiveEndpoint(receiver, vb)},
		{"CustomEndpoint", WrapCustom(sender, ta), WrapCustom(receiver, tb)},
	} {
		fresh, other := sender.Source("s", p.name+"-fresh"), sender.Source("s", p.name+"-other")
		mixed := taint.FromString("ffffccccgg++", taint.Taint{})
		mixed.SetRange(0, 4, fresh)
		mixed.SetRange(4, 8, cached)
		mixed.SetRange(10, 12, taint.Combine(fresh, other))
		dense := taint.MakeBytes(64)
		for i := range dense.Data {
			dense.SetLabel(i, [2]taint.Taint{fresh, other}[i&1])
		}
		if dense.DenseLabels() == nil {
			t.Fatal("the alternation did not densify its store")
		}
		for mi, msg := range []taint.Bytes{mixed, dense} {
			var wireBytes [2]int64
			for rep := range wireBytes {
				_, before := sender.Traffic()
				if err := p.w.Write(msg); err != nil {
					t.Fatalf("%s: write %d.%d during the outage: %v", p.name, mi, rep, err)
				}
				_, after := sender.Traffic()
				wireBytes[rep] = after - before
				buf := taint.MakeBytes(len(msg.Data))
				for got := 0; got < len(msg.Data); {
					sub := buf.Slice(got, len(msg.Data))
					n, err := p.rd.Read(&sub)
					if err != nil {
						t.Fatalf("%s: read %d.%d: %v", p.name, mi, rep, err)
					}
					got += n
				}
				for i := range msg.Data {
					if got, want := buf.LabelAt(i), msg.LabelAt(i); buf.Data[i] != msg.Data[i] || got.Empty() != want.Empty() || !taint.SameSet(got, want) {
						t.Fatalf("%s: message %d.%d byte %d is %q under %v, sent %q under %v",
							p.name, mi, rep, i, buf.Data[i], got.Values(), msg.Data[i], want.Values())
					}
				}
			}
			if wireBytes[1] >= wireBytes[0] {
				t.Fatalf("%s: message %d cost %d wire bytes, then %d: the repeat defined its taints again", p.name, mi, wireBytes[0], wireBytes[1])
			}
		}
		if fresh.GlobalID() != 0 || other.GlobalID() != 0 {
			t.Fatalf("%s: a fresh taint got a Global ID while the Taint Map was down", p.name)
		}
	}
}

// writerFunc adapts a function to checkOutageStreams' writer.
type writerFunc func(taint.Bytes) error

func (f writerFunc) Write(b taint.Bytes) error { return f(b) }

// checkDatagramRefused: a datagram has no room to define its taints, so
// a degraded send fails typed and puts nothing on the socket.
func checkDatagramRefused(t *testing.T, r *rig, sender *tracker.Agent) {
	t.Helper()
	sa, err := r.net.ListenPacket("outage-a:1")
	must(t, err)
	sb, err := r.net.ListenPacket("outage-b:1")
	must(t, err)
	sent := r.net.Stats().Datagrams
	err = PacketSend(sender, sa, taint.FromString("dgram", sender.Source("s", "dgram")), sb.Addr())
	if !errors.Is(err, taintmap.ErrDegraded) || r.net.Stats().Datagrams != sent || sb.Pending() != 0 {
		t.Fatalf("degraded datagram send = %v with %d datagrams sent; want ErrDegraded and none",
			err, r.net.Stats().Datagrams-sent)
	}
}

// outageOpts is the resilience tuning of the outage tests: the first
// failed reconnect trips the breaker.
var outageOpts = taintmap.ClusterOptions{Resilient: taintmap.ResilientOptions{
	CallTimeout: 250 * time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, BreakerThreshold: 1}}

// TestTaintMapOutageFailsLoudly kills the Taint Map server under both
// ends' clients. A stream send of fresh taints still delivers every byte
// with exactly its labels — the taints cross inline, under stream-scoped
// ids, beside one that crossed before by its Global ID — and neither
// end's map is asked; only a datagram, which cannot carry definitions,
// fails, loudly and typed.
func TestTaintMapOutageFailsLoudly(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	srv, err := taintmap.StartSimServer(r.net, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	mkAgent := func(name string) *tracker.Agent {
		a := tracker.New(name, tracker.ModeDista)
		client, err := taintmap.DialClusterAddrs([]string{"tm:7"},
			func(addr string) (io.ReadWriteCloser, error) { return r.net.DialFrom(name, addr) }, a.Tree(), outageOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(client), tracker.WithLocalID(a.LocalID()))
	}
	sender, receiver := mkAgent("n1"), mkAgent("n2")

	// Healthy send first: t1 gets its Global ID, and the receiver learns it.
	t1 := sender.Source("s", "t1")
	ca, cb := r.net.Pipe()
	must(t, NewAdaptiveEndpoint(sender, ca).Write(taint.FromString("x", t1)))
	buf := taint.MakeBytes(1)
	if _, err := NewAdaptiveEndpoint(receiver, cb).Read(&buf); err != nil || !buf.LabelAt(0).Has("t1") {
		t.Fatalf("healthy read = %v, %v", buf.LabelAt(0).Values(), err)
	}

	srv.Close()
	checkOutageStreams(t, r, sender, receiver, t1)
	checkDatagramRefused(t, r, sender)
}

// degradedAgent returns an agent whose Taint Map client cannot reach a
// server, so every register fails with ErrDegraded, with the client's
// Close.
func degradedAgent(t *testing.T) (*tracker.Agent, func() error) {
	t.Helper()
	scratch := tracker.New("n1", tracker.ModeDista)
	client, err := taintmap.DialClusterAddrs([]string{"tm:1"},
		func(string) (io.ReadWriteCloser, error) { return nil, errors.New("no route to taint map") },
		scratch.Tree(), outageOpts)
	if err != nil {
		t.Fatal(err)
	}
	return tracker.New("n1", tracker.ModeDista, tracker.WithTaintMap(client)), client.Close
}

// TestDegradedTaintMapRefusesTransferKeepsTracking: with only the
// sender's Taint Map unreachable, its streams keep tracking — every byte
// arrives with exactly its labels, defined inline, and neither the Taint
// Map nor the receiver's memo learns a thing — while a datagram transfer
// is refused with the typed ErrDegraded.
func TestDegradedTaintMapRefusesTransferKeepsTracking(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, closeClient := degradedAgent(t)
	defer closeClient()
	memo := r.b.TaintMap().(*taintmap.LocalClient)
	before := memo.MemoStats()

	checkOutageStreams(t, r, sender, r.b, taint.Taint{})
	checkDatagramRefused(t, r, sender)
	if after := memo.MemoStats(); after != before || r.store.Stats().GlobalTaints != 0 {
		t.Fatalf("the receiver's memo went from %+v to %+v, the Taint Map holds %d taints",
			before, after, r.store.Stats().GlobalTaints)
	}
}

// TestPartialWriteUnderOutageBreaksStream: a stream send that defines
// its taint inline, the sender's Taint Map being down, and whose native
// write then fails part-way leaves a stream no later write gets through.
// The stream numbered that taint, so a later write naming it would carry
// a stream-scoped id whose definition may never have left.
func TestPartialWriteUnderOutageBreaksStream(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, closeClient := degradedAgent(t)
	defer closeClient()
	ca, cb := r.net.Pipe()
	ep := NewAdaptiveEndpoint(sender, ca)
	scoped := sender.Source("s", "scoped")
	// More than the pipe holds (netsim's window is 256 KiB): with the
	// receiver not reading, the write parks part-way until the reset.
	done := make(chan error, 1)
	go func() { done <- ep.Write(taint.FromString(strings.Repeat("x", 300<<10), scoped)) }()
	for deadline := time.Now().Add(10 * time.Second); cb.Buffered() < 256<<10; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("the write put %d bytes on the pipe and stopped", cb.Buffered())
		}
	}
	ca.Reset()
	if err := <-done; !errors.Is(err, netsim.ErrReset) {
		t.Fatalf("the write reset part-way returned %v", err)
	}
	for _, later := range []struct {
		name string
		b    taint.Bytes
	}{
		{"the taint it scoped", taint.FromString("y", scoped)},
		{"a fresh taint", taint.FromString("z", sender.Source("s", "fresh"))},
		{"clean bytes", taint.WrapBytes([]byte("w"))},
	} {
		if err := ep.Write(later.b); err == nil {
			t.Fatalf("a write of %s went through after the stream failed part-way", later.name)
		}
	}
	buf := taint.MakeBytes(16)
	if n, err := NewAdaptiveEndpoint(r.b, cb).Read(&buf); err == nil {
		t.Fatalf("the receiver read %d bytes of a reset stream", n)
	}
}

// TestHeadWithoutBodyBreaksStream: a write whose frame head went out and
// whose payload was then refused — a partition falling between the two
// natives of one write — must not leave a live connection carrying a head
// without its body, or the receiver decodes the next write's bytes as that
// body. The connection is reset instead: the receiver's read fails rather
// than returning a byte the sender never wrote as payload, and every later
// write of the endpoint fails too. Held for every emit that puts a frame
// on a socket in more than one native write.
func TestHeadWithoutBodyBreaksStream(t *testing.T) {
	writes := map[string]func(ep *Endpoint, b taint.Bytes) error{
		"Write": (*Endpoint).Write,
		"WriteBuffer": func(ep *Endpoint, b taint.Bytes) error {
			_, err := ep.WriteBuffer(&jni.DirectBuffer{Data: b.Data, B: b}, 0, len(b.Data))
			return err
		},
		"WritevBuffers": func(ep *Endpoint, b taint.Bytes) error {
			_, err := ep.WritevBuffers([]*jni.DirectBuffer{{Data: b.Data, B: b}}, []int{len(b.Data)})
			return err
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, tracker.ModeDista)
			ca, cb := r.net.Pipe()
			ep := NewAdaptiveEndpoint(r.a, ca)
			var once sync.Once
			ca.SetCorruptor(func([]byte) { once.Do(func() { r.net.Partition("*", "*") }) })
			if err := write(ep, taint.WrapBytes(bytes.Repeat([]byte{'A'}, 100))); !errors.Is(err, netsim.ErrPartitioned) {
				t.Fatalf("the write cut by the partition returned %v", err)
			}
			r.net.HealAll()
			ca.SetCorruptor(nil)
			later := write(ep, taint.WrapBytes(bytes.Repeat([]byte{'B'}, 100)))
			rd := NewAdaptiveEndpoint(r.b, cb)
			for got := 0; ; {
				buf := taint.MakeBytes(16)
				n, err := rd.Read(&buf)
				if strings.Trim(string(buf.Data[:n]), "B") != "" {
					t.Fatalf("the receiver read %q as payload", buf.Data[:n])
				}
				if err != nil {
					break
				}
				if got += n; got > 100 {
					t.Fatalf("the receiver read %d bytes of a 100-byte write", got)
				}
			}
			if later == nil {
				t.Fatal("a write went through after a frame was cut between its head and its body")
			}
		})
	}
}

// TestRefusedWriteUnderOutageForgetsScope: a stream send that scopes its
// taint inline and whose native write is refused whole — a partition:
// nothing written, the connection alive — must not keep that numbering.
// Its definition never left, so after the heal the next write of the
// same taint defines it again and the receiver reads it with its label.
func TestRefusedWriteUnderOutageForgetsScope(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, closeClient := degradedAgent(t)
	defer closeClient()
	ca, cb := r.net.Pipe()
	ep := NewAdaptiveEndpoint(sender, ca)
	scoped := sender.Source("s", "scoped")

	r.net.Partition("*", "*")
	if err := ep.Write(taint.FromString("x", scoped)); !errors.Is(err, netsim.ErrPartitioned) {
		t.Fatalf("a write across the partition returned %v", err)
	}
	r.net.HealAll()
	must(t, ep.Write(taint.FromString("y", scoped)))
	buf := taint.MakeBytes(1)
	if n, err := NewAdaptiveEndpoint(r.b, cb).Read(&buf); err != nil || n != 1 || buf.Data[0] != 'y' || !buf.LabelAt(0).Has("scoped") {
		t.Fatalf("read %q labelled %v after the heal: %v", buf.Data[:n], buf.LabelAt(0).Values(), err)
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
