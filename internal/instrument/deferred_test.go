package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
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
// which registers the queue in one batch when a send meets a queued taint
// again, when it is full, or when drained. Each pair of input bytes is one
// step over three streams of an agent pair — A to B twice, and B back to A:
//
//	0 A sends one to eight fresh taints, a range each, on a stream of its
//	  two — enough of them fill the queue
//	1 A sends a taint it sent before, over a few ranges
//	2 A sends a label change on every byte: a fresh taint, or one folded
//	  with an older one, against an older one
//	3 B relays what it last received — known to it by a scoped id, or by
//	  an id — as it is, or folded with a tag of its own
//	4, 5 A's or B's Taint Map sheds registrations, is degraded, or heals
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
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) > 128 {
			sched = sched[:128]
		}
		store := taintmap.NewStore()
		node := func(name string) (*tracker.Agent, *outage) {
			scratch := tracker.New(name, tracker.ModeDista)
			o := &outage{Client: taintmap.NewLocalClient(store, scratch.Tree())}
			return tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(o), tracker.WithLocalID(scratch.LocalID())), o
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
			case 4:
				oa.err = errs[int(arg)%len(errs)]
			case 5:
				ob.err = errs[int(arg)%len(errs)]
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
