package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// pipeTransport is one direction of an in-memory stream whose native can
// refuse a send whole: what it accepts, its peer reads in order.
type pipeTransport struct {
	buf    []byte
	refuse bool // the next SendRaw fails and sends nothing
}

var errRefused = errors.New("the native refused the send")

func (p *pipeTransport) SendRaw(b []byte) error {
	if p.refuse {
		p.refuse = false
		return errRefused
	}
	p.buf = append(p.buf, b...)
	return nil
}

func (p *pipeTransport) RecvRaw(b []byte) (int, error) {
	if len(p.buf) == 0 {
		return 0, errors.New("a read past what was sent")
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

// FuzzDeferredRegistration is the seeded differential target of deferred
// registration (DESIGN.md §7): a stream send defines a taint without a
// Global ID inline under its stream-scoped id and queues it on its agent,
// which issues the queue's registration in one batch when it is full and
// collects it at the next flush point — a send that meets a queued or
// in-flight taint again, the next full queue, a drain. The agents reach a
// one-member Taint Map over connections on a virtual clock. Each pair of
// input bytes is one step over three streams of an agent pair — A to B
// twice, and B back to A:
//
//	0 A sends one to eight fresh taints, a range each, on a stream of its
//	  two — enough of them fill the queue
//	1 A sends a taint it sent before, over a few ranges
//	2 A sends a label change on every byte: a fresh taint, or one folded
//	  with an older one, against an older one
//	3 B relays what it last received — known to it by a scoped id, or by
//	  an id — as it is, or folded with a tag of its own
//	4, 5 A's or B's Taint Map sheds registrations, is degraded, or heals;
//	  or its connection resets while a batch is in flight (the agent sends
//	  fresh taints until one is, the member's answer held back); or the
//	  agent idles past the call timeout, which must cost no reconnect
//	6 a stream's native refuses the next send whole
//	7 both agents drain their queues
//
// and the second byte is the step's argument; the first byte's high bits
// set the receiver's read size. Every byte that crosses arrives with
// exactly the sender's tag set, every id a frame carries was defined on
// its stream or resolves — a read fails otherwise — and a blob's Global ID
// never changes. Once the Taint Map heals and both agents drain, the store
// holds exactly the distinct taints the sends met: a send whose native
// refused it queued them too, as it registered them before deferral.
func FuzzDeferredRegistration(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 8, 1})                                // fresh on both streams, reused across them
	f.Add([]byte{0, 0, 3, 0, 0, 1, 3, 1, 1, 0, 3, 0, 7, 0})              // relays of scoped and registered taints
	f.Add([]byte{4, 1, 0, 0, 1, 0, 0, 1, 1, 1, 4, 0, 1, 0, 7, 0})        // shedding: the reuse cannot register, then can
	f.Add([]byte{5, 2, 0, 0, 3, 1, 3, 0, 5, 0, 3, 1, 7, 0})              // B degraded while it relays
	f.Add([]byte{6, 0, 0, 0, 1, 0, 6, 2, 0, 0, 3, 0, 3, 0})              // refused natives, the second on the relay
	f.Add([]byte{2, 7, 2, 9, 0x12, 40, 1, 3, 0x33, 9, 7, 0, 2, 0, 1, 1}) // per-byte labels through small reads
	f.Add([]byte{4, 3, 1, 0, 3, 0, 5, 3, 3, 1, 7, 0})                    // resets with a batch in flight, then reuses that collect it
	f.Add([]byte{4, 3, 4, 4, 1, 1, 5, 4, 7, 0})                          // idle past the call timeout after a reset
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) > 128 {
			sched = sched[:128]
		}
		m := newMember(t)
		store := m.store
		node := func(name string) (*tracker.Agent, *outage) {
			o := &outage{Client: m.dial(t, name)}
			return tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(o)), o
		}
		a, oa := node("a")
		b, ob := node("b")
		type stream struct {
			to   *tracker.Agent
			pipe *pipeTransport
			w, r *CustomEndpoint
		}
		mk := func(from, to *tracker.Agent) *stream {
			p := &pipeTransport{}
			return &stream{to, p, WrapCustom(from, p), WrapCustom(to, p)}
		}
		streams := [3]*stream{mk(a, b), mk(a, b), mk(b, a)}

		var pool []taint.Taint         // A's taints sent so far
		var last taint.Bytes           // what B received last
		seen := map[taint.Taint]bool{} // every taint sent or received, on either node
		offered := map[string]bool{}   // the blobs of every taint a send met
		idOf := map[string]uint32{}    // the Global ID a blob got
		seq := 0
		fresh := func(ag *tracker.Agent) taint.Taint {
			seq++
			return ag.Source("fz", fmt.Sprint(ag.Node(), seq))
		}
		blobOf := func(l taint.Taint) string {
			blob, err := taint.MarshalTaint(l)
			if err != nil {
				t.Fatal(err)
			}
			return string(blob)
		}
		// ids checks that no blob's Global ID ever changes, on any node.
		ids := func() {
			for l := range seen {
				if id := l.GlobalID(); id != 0 {
					blob := blobOf(l)
					if was, ok := idOf[blob]; ok && was != id {
						t.Fatalf("a taint registered as %#x is now %#x", was, id)
					}
					idOf[blob] = id
				}
			}
		}
		send := func(s *stream, msg taint.Bytes, step int) {
			msg.ForEachRun(func(_, _ int, l taint.Taint) {
				if !l.Empty() {
					offered[blobOf(l)], seen[l] = true, true
				}
			})
			if err := s.w.Write(msg); errors.Is(err, errRefused) {
				if len(s.pipe.buf) != 0 {
					t.Fatal("a refused send left bytes on the stream")
				}
				return
			} else if err != nil {
				t.Fatalf("send: %v", err)
			}
			got := taint.MakeBytes(msg.Len())
			for pos := 0; pos < msg.Len(); {
				sub := got.Slice(pos, min(pos+step, msg.Len()))
				n, err := s.r.Read(&sub)
				if err != nil {
					t.Fatalf("read at %d of %d: %v", pos, msg.Len(), err)
				}
				pos += n
			}
			if len(s.pipe.buf) != 0 || !bytes.Equal(got.Data, msg.Data) {
				t.Fatalf("the stream delivered other bytes (%d left over)", len(s.pipe.buf))
			}
			for i := range got.Data {
				sent, have := msg.LabelAt(i), got.LabelAt(i)
				if sent.Empty() != have.Empty() || !taint.SameSet(sent, have) {
					t.Fatalf("byte %d sent under %v arrived under %v", i, sent.Values(), have.Values())
				}
				if !have.Empty() {
					seen[have] = true
				}
			}
			if s.to == b {
				last = got
			}
		}
		older := func(arg byte) taint.Taint {
			if len(pool) == 0 {
				pool = append(pool, fresh(a))
			}
			return pool[int(arg)%len(pool)]
		}
		errs := [3]error{nil, taintmap.ErrOverloaded, taintmap.ErrDegraded}
		for i := 0; i+1 < len(sched); i += 2 {
			op, arg := sched[i], sched[i+1]
			step := 1 + int(op>>3)%24
			n := 1 + int(arg)%48
			switch op % 8 {
			case 0:
				k := 1 + int(arg>>1)%8
				msg := taint.MakeBytes(n + k)
				for j := 0; j < k; j++ {
					l := fresh(a)
					pool = append(pool, l)
					msg.SetRange(j*msg.Len()/k, (j+1)*msg.Len()/k, l)
				}
				send(streams[arg&1], msg, step)
			case 1:
				msg := taint.MakeBytes(n)
				for k := 0; k < 3; k++ {
					from := (k * n) / 3
					msg.SetRange(from, from+1+(n-from-1)/2, older(arg+byte(k)))
				}
				send(streams[arg>>4&1], msg, step)
			case 2:
				l := fresh(a)
				if arg&2 != 0 {
					l = taint.Combine(l, older(arg>>2))
				}
				pool = append(pool, l)
				msg := taint.MakeBytes(n + 1)
				pair := [2]taint.Taint{l, older(arg >> 3)}
				for j := range msg.Data {
					msg.Data[j] = byte(j)
					msg.SetLabel(j, pair[j&1])
				}
				send(streams[arg&1], msg, step)
			case 3:
				if last.Len() == 0 {
					continue
				}
				msg := taint.MakeBytes(last.Len())
				last.CopyInto(&msg, 0)
				if arg&1 != 0 {
					own := fresh(b)
					msg.ForEachRun(func(from, to int, l taint.Taint) {
						msg.SetRange(from, to, taint.Combine(l, own))
					})
				}
				send(streams[2], msg, step)
			case 4, 5:
				ag, o, s := a, oa, streams[arg>>3&1]
				if op%8 == 5 {
					ag, o, s = b, ob, streams[2]
				}
				tm := o.Client.(*taintmap.ClusterClient)
				switch k := int(arg) % (len(errs) + 2); k {
				case len(errs):
					// The first taint sent crosses again once the
					// connection is reset: that send collects the batch.
					var first taint.Taint
					one := func(l taint.Taint) {
						msg := taint.MakeBytes(8)
						msg.SetRange(0, 8, l)
						send(s, msg, step)
					}
					if m.reset(t, ag.Node(), tm, func() {
						l := fresh(ag)
						if first.Empty() {
							first = l
						}
						if ag == a {
							pool = append(pool, l)
						}
						one(l)
					}) {
						one(first)
					}
				case len(errs) + 1:
					h := tm.Health().Members[0]
					waitFor(t, "the answers to be read", func() bool { return taintmap.SimPendingReplies(tm, 0) == 0 })
					m.vc.Advance(3 * time.Second) // past the 2 s default
					if now := tm.Health().Members[0]; now.Reconnects != h.Reconnects || now.Connected != h.Connected {
						t.Fatalf("%s idled past the call timeout: %+v, was %+v", ag.Node(), now, h)
					}
				default:
					o.err = errs[k]
				}
			case 6:
				streams[int(arg)%len(streams)].pipe.refuse = true
			case 7:
				for _, x := range []struct {
					ag *tracker.Agent
					o  *outage
				}{{a, oa}, {b, ob}} {
					if err := x.ag.Flush(); err != nil && (x.o.err == nil || !errors.Is(err, x.o.err)) {
						t.Fatalf("%s drained under %v: %v", x.ag.Node(), x.o.err, err)
					}
				}
			}
			ids()
		}

		oa.err, ob.err = nil, nil
		for _, ag := range []*tracker.Agent{a, b} {
			if err := ag.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		ids()
		if got := store.Stats().GlobalTaints; got != len(offered) {
			t.Fatalf("drained, the store holds %d taints; the sends met %d distinct ones", got, len(offered))
		}
		check := taintmap.NewLocalClient(store, taint.NewTree())
		for blob := range offered {
			id, ok := idOf[blob]
			if !ok {
				t.Fatalf("a taint the sends met has no Global ID after the drain")
			}
			l, err := check.Lookup(id)
			if err != nil || blobOf(l) != blob {
				t.Fatalf("Global ID %#x resolves to %v, %v", id, l.Values(), err)
			}
		}
	})
}

// TestDeferredRegistrationConcurrent: an agent's queue is shared by every
// endpoint of the node. Four streams of one agent, each on a goroutine of
// its own, send fresh taints and taints the others sent — so their
// registrations are deferred, flushed on reuse and when the queue fills —
// while a fifth goroutine drains the agent; every byte arrives under its
// sender's tag set, and once drained the store holds every taint once,
// under the id its sender holds.
func TestDeferredRegistrationConcurrent(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	const streams, msgs = 4, 3 * tracker.RegisterQueueLen / 2
	shared := make([]taint.Taint, 16)
	for i := range shared {
		shared[i] = r.a.Source("shared", fmt.Sprint(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, streams+1)
	sent := make([][]taint.Taint, streams)
	done := make(chan struct{})
	for s := 0; s < streams; s++ {
		ca, cb := r.net.Pipe()
		w, rd := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(r.b, cb)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				for k := 0; k < msgs; k++ {
					l := r.a.Source("fresh", fmt.Sprint(s, "-", k))
					msg := taint.MakeBytes(24)
					msg.SetRange(0, 12, l)
					msg.SetRange(12, 24, shared[(s+k)%len(shared)])
					sent[s] = append(sent[s], l)
					if err := w.Write(msg); err != nil {
						return fmt.Errorf("stream %d write %d: %w", s, k, err)
					}
					got := taint.MakeBytes(msg.Len())
					for pos := 0; pos < msg.Len(); {
						sub := got.Slice(pos, msg.Len())
						n, err := rd.Read(&sub)
						if err != nil {
							return fmt.Errorf("stream %d read %d: %w", s, k, err)
						}
						pos += n
					}
					for i := range got.Data {
						if !taint.SameSet(got.LabelAt(i), msg.LabelAt(i)) {
							return fmt.Errorf("stream %d message %d byte %d arrived under %v, sent under %v",
								s, k, i, got.LabelAt(i).Values(), msg.LabelAt(i).Values())
						}
					}
				}
				return nil
			}()
		}()
	}
	go func() {
		errs <- func() error {
			for {
				select {
				case <-done:
					return nil
				default:
				}
				if err := r.a.Flush(); err != nil {
					return err
				}
			}
		}()
	}()
	wg.Wait()
	close(done)
	for range streams + 1 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := r.a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.store.Stats().GlobalTaints, streams*msgs+len(shared); got != want {
		t.Fatalf("drained, the store holds %d taints, want %d", got, want)
	}
	check := taintmap.NewLocalClient(r.store, taint.NewTree())
	for _, ls := range append(sent, shared) {
		for _, l := range ls {
			got, err := check.Lookup(l.GlobalID())
			if err != nil || !taint.SameSet(got, l) {
				t.Fatalf("%v registered as %#x, which resolves to %v, %v", l.Values(), l.GlobalID(), got.Values(), err)
			}
		}
	}
}

// TestDeferredOutageBacklog: in a Taint Map outage a stream defines every
// fresh taint inline and its agent's queue grows, but a send's
// registration attempt does not: it carries at most a batch, the queue is
// retried once per RegisterQueueLen new taints, and a reuse retries the
// reused taint alone — the owner that sheds or is unreachable is not sent
// the backlog on every send. Thousands of taints are scoped on one stream
// meanwhile, the first thousand sends reusing one now and then. Once healed, each send registers at most a batch of the
// backlog, and a drain registers the rest.
func TestDeferredOutageBacklog(t *testing.T) {
	for _, down := range []error{taintmap.ErrDegraded, taintmap.ErrOverloaded} {
		t.Run(down.Error(), func(t *testing.T) {
			store := taintmap.NewStore()
			scratch := tracker.New("a", tracker.ModeDista)
			o := &outage{Client: taintmap.NewLocalClient(store, scratch.Tree()), err: down}
			a := tracker.New("a", tracker.ModeDista, tracker.WithTaintMap(o), tracker.WithLocalID(scratch.LocalID()))
			b := tracker.New("b", tracker.ModeDista, tracker.WithTaintMap(taintmap.NewLocalClient(store, taint.NewTree())))
			p := &pipeTransport{}
			w, r := WrapCustom(a, p), WrapCustom(b, p)
			var sent []taint.Taint
			reuses, most := 0, 0
			send := func(i int) {
				l := a.Source("outage", fmt.Sprint(i))
				sent = append(sent, l)
				msg := taint.MakeBytes(8)
				msg.SetRange(0, 4, l)
				if i%8 == 7 && i < 1000 { // a taint this stream sent before crosses again
					msg.SetRange(4, 8, sent[i-5])
					reuses++
				}
				carried := o.carried
				if err := w.Write(msg); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				most = max(most, o.carried-carried)
				got := taint.MakeBytes(msg.Len())
				for pos := 0; pos < msg.Len(); {
					sub := got.Slice(pos, msg.Len())
					n, err := r.Read(&sub)
					if err != nil {
						t.Fatalf("read %d: %v", i, err)
					}
					pos += n
				}
				for j := range got.Data {
					if !taint.SameSet(got.LabelAt(j), msg.LabelAt(j)) {
						t.Fatalf("send %d byte %d arrived under %v, sent under %v", i, j, got.LabelAt(j).Values(), msg.LabelAt(j).Values())
					}
				}
			}
			const fresh = 2000
			for i := range fresh {
				send(i)
			}
			if n := store.Stats().GlobalTaints; n != 0 {
				t.Fatalf("%d taints registered in the outage", n)
			}
			t.Logf("%d fresh taints, %d reuses: %d attempts carried %d taints, at most %d a send", fresh, reuses, o.calls, o.carried, most)
			batches := fresh/tracker.RegisterQueueLen + 1
			if o.calls > batches+reuses || o.carried > batches*tracker.RegisterQueueLen+reuses || most > tracker.RegisterQueueLen {
				t.Fatalf("the outage cost %d attempts carrying %d taints, at most %d a send; want at most %d, %d and %d",
					o.calls, o.carried, most, batches+reuses, batches*tracker.RegisterQueueLen+reuses, tracker.RegisterQueueLen)
			}
			o.err, most = nil, 0
			for i := fresh; i < fresh+tracker.RegisterQueueLen; i++ {
				send(i)
			}
			if most > tracker.RegisterQueueLen+1 {
				t.Fatalf("healed, a send carried %d taints of the backlog, want at most a batch", most)
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := store.Stats().GlobalTaints; got != len(sent) {
				t.Fatalf("drained, the store holds %d taints, want %d", got, len(sent))
			}
		})
	}
}

// tmMember is a one-member Taint Map cluster on a virtual clock, counting
// the register requests it serves; while hold is set, a lookup it serves
// waits for hold to close.
type tmMember struct {
	net       *netsim.Network
	vc        *netsim.VirtualClock
	ring      *taintmap.Ring
	store     *taintmap.Store
	srv       *taintmap.Server
	registers atomic.Int64
	hold      atomic.Pointer[chan struct{}]
}

func newMember(t *testing.T, opts ...taintmap.ServerOption) *tmMember {
	m := &tmMember{net: netsim.New()}
	m.vc = m.net.UseVirtualClock()
	var err error
	m.ring, err = taintmap.NewRing(1, 1, []taintmap.Member{{Part: 0, Addr: "tm0:1"}})
	if err == nil {
		m.store, err = taintmap.NewPartitionStore(0)
	}
	if err == nil {
		m.srv, _, err = taintmap.StartSimClusterMember(m.net, m.ring, 0, m.store, append(opts, taintmap.WithServiceModel(func(op byte, _ int) {
			if op == 'b' {
				m.registers.Add(1)
			}
			if hold := m.hold.Load(); op == 'm' && hold != nil {
				<-*hold
			}
		}))...)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.srv.Close() })
	return m
}

// dial connects a node's cluster client to the member, from host.
func (m *tmMember) dial(t *testing.T, host string) *taintmap.ClusterClient {
	c, err := taintmap.DialSimCluster(m.net, host+":1", m.ring, taint.NewTree(), taintmap.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// reset holds the member's answers back and makes sends (sendOne) until
// tm, host's client, has a batch in flight — a few queues' worth at most,
// or none while it sheds — then resets that connection before the answer
// leaves: the member's write fails across a partition, and it drops the
// connection. Healed, the client reconnects (refresh finds the connection
// dead), and the batch is left to be collected. It reports whether it
// reset one.
func (m *tmMember) reset(t *testing.T, host string, tm *taintmap.ClusterClient, sendOne func()) bool {
	waitFor(t, "the answers sent to be read", func() bool { return taintmap.SimPendingReplies(tm, 0) == 0 })
	m.net.SetHostStall("tm0", true)
	for i := 0; i < 4*tracker.RegisterQueueLen && taintmap.SimPendingReplies(tm, 0) == 0; i++ {
		sendOne()
	}
	if taintmap.SimPendingReplies(tm, 0) == 0 {
		m.net.SetHostStall("tm0", false)
		return false
	}
	waitFor(t, "the answer to stall", func() bool { return m.net.StalledWriters() == 1 })
	conns, reconnects := m.srv.Stats().ActiveConns, tm.Health().Members[0].Reconnects
	m.net.Partition(host, "tm0")
	m.net.SetHostStall("tm0", false)
	waitFor(t, "the member to drop the connection", func() bool { return m.srv.Stats().ActiveConns == conns-1 })
	m.net.Heal(host, "tm0")
	if _, err := tm.Refresh(); err == nil {
		t.Fatal("a ring fetch on the reset connection succeeded")
	}
	waitFor(t, "the client to reconnect", func() bool { return tm.Health().Members[0].Reconnects == reconnects+1 })
	return true
}

// inFlight is an agent pair over a tmMember, A's stream to B, and the
// taints A's sends carried: the rig of TestInFlightRegistration.
type inFlight struct {
	*tmMember
	tm   *taintmap.ClusterClient
	a    *tracker.Agent
	w, r *Endpoint
	sent []taint.Taint
}

func newInFlight(t *testing.T, opts ...taintmap.ServerOption) *inFlight {
	x := &inFlight{tmMember: newMember(t, opts...)}
	x.tm = x.dial(t, "a")
	x.a = tracker.New("a", tracker.ModeDista, tracker.WithTaintMap(x.tm))
	b := tracker.New("b", tracker.ModeDista, tracker.WithTaintMap(x.dial(t, "b")))
	ca, cb := x.net.Pipe()
	x.w, x.r = NewAdaptiveEndpoint(x.a, ca), NewAdaptiveEndpoint(b, cb)
	return x
}

// send crosses l, fresh or one sent before, from A to B, and checks that
// it arrived.
func (x *inFlight) send(t *testing.T, l taint.Taint) {
	t.Helper()
	msg, got := taint.MakeBytes(16), taint.MakeBytes(16)
	msg.SetRange(4, 12, l)
	exchange(t, x.w, x.r, msg, &got)
	if !taint.SameSet(got.LabelAt(4), l) || !got.LabelAt(12).Empty() {
		t.Fatalf("sent under %v, arrived under %v", l.Values(), got.LabelAt(4).Values())
	}
	if !slices.Contains(x.sent, l) {
		x.sent = append(x.sent, l)
	}
}

// fill sends fresh taints until a batch is in flight: the full queue's,
// issued by the send after it.
func (x *inFlight) fill(t *testing.T, last func()) {
	t.Helper()
	for i := range tracker.RegisterQueueLen + 1 {
		if i == tracker.RegisterQueueLen && last != nil {
			last()
		}
		x.send(t, x.a.SourceSeq("in-flight", "f"))
	}
	if x.sent[0].GlobalID() != 0 {
		t.Fatal("a taint of the batch in flight has a Global ID before the batch is collected")
	}
}

// drained flushes A and checks that the store holds exactly the taints
// that crossed, each under the Global ID A stamped.
func (x *inFlight) drained(t *testing.T) {
	t.Helper()
	if err := x.a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := x.store.Stats().GlobalTaints; got != len(x.sent) {
		t.Fatalf("drained, the store holds %d taints; %d crossed", got, len(x.sent))
	}
	check := taintmap.NewLocalClient(x.store, taint.NewTree())
	for _, l := range x.sent {
		if got, err := check.Lookup(l.GlobalID()); err != nil || !taint.SameSet(got, l) {
			t.Fatalf("%v is registered as %#x, which resolves to %v, %v", l.Values(), l.GlobalID(), got.Values(), err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestInFlightRegistration: a full queue's batch is issued, one request
// per owner, and its answers are collected at the next flush point, over
// a real connection to the Taint Map. A send that meets a taint of the
// batch in flight collects it and defines the taint under its Global ID,
// sending nothing more; Flush collects it and registers the rest; a
// connection reset before the answer re-registers the batch on the
// member's next connection; an owner that sheds answers the batch
// ErrOverloaded, which is the answer — the batch stays queued, is not
// sent again, and a reuse registers the reused taint alone; and an agent
// idle past the call timeout with a batch in flight trips no timer: its
// answer was read when it came. Each time the store ends up holding
// exactly the taints that crossed.
func TestInFlightRegistration(t *testing.T) {
	t.Run("reuse", func(t *testing.T) {
		x := newInFlight(t)
		x.fill(t, nil)
		waitFor(t, "the batch to register", func() bool { return x.registers.Load() == 1 })
		x.send(t, x.sent[0])
		if x.sent[0].GlobalID() == 0 || x.sent[1].GlobalID() == 0 || x.registers.Load() != 1 {
			t.Fatalf("a reuse of a taint in flight: Global IDs %#x and %#x, %d register requests",
				x.sent[0].GlobalID(), x.sent[1].GlobalID(), x.registers.Load())
		}
		x.drained(t)
	})
	t.Run("flush", func(t *testing.T) {
		x := newInFlight(t)
		x.fill(t, nil)
		x.drained(t)
		if n := x.registers.Load(); n != 2 {
			t.Fatalf("a flush with a batch in flight made %d register requests, want 2", n)
		}
	})
	t.Run("reset", func(t *testing.T) {
		x := newInFlight(t)
		x.reset(t, "a", x.tm, func() { x.send(t, x.a.SourceSeq("in-flight", "f")) })
		if len(x.sent) != tracker.RegisterQueueLen+1 || x.sent[0].GlobalID() != 0 {
			t.Fatalf("%d sends, the first one's Global ID %#x; want a batch in flight after %d", len(x.sent), x.sent[0].GlobalID(), tracker.RegisterQueueLen+1)
		}
		x.drained(t)
		if h := x.tm.Health().Members[0]; !h.Connected || h.Reconnects != 1 || x.registers.Load() != 3 {
			t.Fatalf("after the reset: %+v, %d register requests, want one reconnect and 3", h, x.registers.Load())
		}
	})
	t.Run("shed", func(t *testing.T) {
		x := newInFlight(t, taintmap.WithAdmission(1, 0))
		probe, err := taintmap.DialSim(x.net, "tm0:1", taint.NewTree())
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		hold, held := make(chan struct{}), make(chan error, 1)
		x.fill(t, func() {
			x.hold.Store(&hold)
			go func() {
				_, err := probe.Lookup(1)
				held <- err
			}()
			waitFor(t, "the probe to hold the member", func() bool { return x.srv.Stats().AdmittedReqs == 1 })
		})
		waitFor(t, "the batch to be shed", func() bool { return x.srv.Stats().ShedReqs == 1 })
		x.hold.Store(nil)
		close(hold)
		if err := <-held; !errors.Is(err, taintmap.ErrUnknownGlobalID) { // answered, so its admission is released
			t.Fatalf("the probe's lookup: %v", err)
		}
		x.send(t, x.sent[0])
		if x.sent[0].GlobalID() == 0 || x.sent[1].GlobalID() != 0 || x.registers.Load() != 1 || x.store.Stats().GlobalTaints != 1 {
			t.Fatalf("a reuse after the shed batch: Global IDs %#x and %#x, %d register requests, %d taints stored; want the reused one alone",
				x.sent[0].GlobalID(), x.sent[1].GlobalID(), x.registers.Load(), x.store.Stats().GlobalTaints)
		}
		x.drained(t)
	})
	t.Run("idle past the call timeout", func(t *testing.T) {
		x := newInFlight(t)
		x.fill(t, nil)
		waitFor(t, "the answer to be read", func() bool { return taintmap.SimPendingReplies(x.tm, 0) == 0 && x.registers.Load() == 1 })
		x.vc.Advance(3 * time.Second) // past the 2 s default
		x.drained(t)
		if h := x.tm.Health().Members[0]; !h.Connected || h.Reconnects != 0 || x.registers.Load() != 2 {
			t.Fatalf("idle past the call timeout: %+v, %d register requests; want no reconnect and 2", h, x.registers.Load())
		}
	})
}
