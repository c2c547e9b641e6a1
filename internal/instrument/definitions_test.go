package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/taintmap"
)

// dropsDefinitions is a Taint Map client that learns nothing from a
// peer: behind it every received id is looked up, as before definitions
// crossed the wire.
type dropsDefinitions struct{ taintmap.Client }

func (dropsDefinitions) Learn([]uint32, [][]byte) error { return nil }

// diffNode is one node of the differential program: its agent, the
// outage switch of its Taint Map client, and the model of its id ->
// taint memo — the ids it has registered, learned or looked up.
type diffNode struct {
	agent *tracker.Agent
	flaky *flakyLookups
	local taint.Taint
	known map[uint32]bool
}

// registrations records in known every id a client registers: those a
// node's deferred batches register are in its memo too.
type registrations struct {
	taintmap.Client
	known map[uint32]bool
}

func (r registrations) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	ids, err := r.Client.RegisterBatch(ts)
	for _, t := range ts {
		r.known[t.GlobalID()] = true
	}
	return ids, err
}

// Issue records a deferred batch's ids: a local client registers at issue.
func (r registrations) Issue(reg *taintmap.Registration, ts []taint.Taint, blobs [][]byte) {
	r.Client.Issue(reg, ts, blobs)
	for _, t := range ts {
		r.known[t.GlobalID()] = true
	}
}

func newDiffNode(name string, store *taintmap.Store, learn bool) *diffNode {
	scratch := tracker.New(name, tracker.ModeDista)
	known := map[uint32]bool{}
	var c taintmap.Client = registrations{taintmap.NewLocalClient(store, scratch.Tree()), known}
	if !learn {
		c = dropsDefinitions{c}
	}
	n := &diffNode{flaky: &flakyLookups{Client: c}, known: known}
	n.agent = tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(n.flaky), tracker.WithLocalID(scratch.LocalID()))
	n.local = n.agent.Source("local", name)
	return n
}

// diffConn is one connection of the program, usable in both directions.
type diffConn struct {
	node [2]*diffNode
	ep   [2]*Endpoint
}

// freshIn returns the distinct taints of the messages that have no
// Global ID yet: what the write about to carry them must register, and
// so define.
func freshIn(msgs ...taint.Bytes) []taint.Taint {
	var fresh []taint.Taint
	for _, m := range msgs {
		m.ForEachRun(func(_, _ int, l taint.Taint) {
			if !l.Empty() && l.GlobalID() == 0 && !slices.Contains(fresh, l) {
				fresh = append(fresh, l)
			}
		})
	}
	return fresh
}

// diffRun is one run of the seeded program; learn says whether receivers
// take definitions. Its trace records every read — count, error, bytes,
// per-byte tag set and Global ID, the representation the buffer ended in
// — and must not depend on learn; what may is the number of lookups that
// reach the store, which the run checks message by message against the
// model: with learn, no id the sending write registered is ever looked
// up by that write's receiver; without, each is, once.
type diffRun struct {
	t     *testing.T
	rng   *rand.Rand
	learn bool
	store *taintmap.Store
	trace []string

	savedLookups, fallbackLookups int64
}

func (d *diffRun) logf(format string, args ...any) {
	d.trace = append(d.trace, fmt.Sprintf(format, args...))
}

// send writes msg from c.node[from] in one of three ways and has the
// peer read it back whole, checking bytes, tags, ids and the store's
// lookup count. It returns what the peer received, labelled.
func (d *diffRun) send(c *diffConn, from int, msg taint.Bytes) taint.Bytes {
	t := d.t
	dst := c.node[1-from]
	// Cut the message into pieces: one write, chunked writes, or one
	// gathering write.
	var pieces []taint.Bytes
	mode := d.rng.Intn(3)
	for pos := 0; pos < msg.Len(); {
		end := msg.Len()
		if mode > 0 && end-pos > 1 {
			end = pos + 1 + d.rng.Intn(end-pos)
		}
		pieces = append(pieces, msg.Slice(pos, end))
		pos = end
	}
	// The model: a label without a Global ID before the send that carries
	// it crosses under a stream-scoped id, defined ahead of the frame and
	// never looked up, until a send that meets it again registers it and
	// defines it under its Global ID. A learning receiver takes those ids
	// from the definitions, any other looks them up, as every receiver
	// does an id that crossed without one: registered by an earlier send,
	// on another connection or towards another node. The sender memoises
	// all it registers (registrations).
	var saved, fallback int64
	used := map[uint32]bool{}
	crossed := make([]uint32, 0, msg.Len()) // each byte's id on the wire, 0 where scoped
	sent := func(ps ...taint.Bytes) {
		fresh := freshIn(ps...)
		if mode == 2 {
			bufs, lens := make([]*jni.DirectBuffer, len(ps)), make([]int, len(ps))
			for i, p := range ps {
				bufs[i], lens[i] = &jni.DirectBuffer{Data: p.Data, B: p}, p.Len()
			}
			if n, err := c.ep[from].WritevBuffers(bufs, lens); err != nil || int(n) != msg.Len() {
				t.Fatalf("writev = %d, %v", n, err)
			}
		} else if err := c.ep[from].Write(ps[0]); err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			p.ForEachRun(func(from, to int, l taint.Taint) {
				id := l.GlobalID()
				for range to - from {
					crossed = append(crossed, id)
				}
				if id == 0 || used[id] || dst.known[id] {
					return
				}
				if used[id] = true; slices.Contains(fresh, l) {
					saved++
				} else {
					fallback++
				}
			})
		}
	}
	if mode == 2 {
		sent(pieces...)
	} else {
		for _, p := range pieces {
			sent(p)
		}
	}
	for id := range used {
		dst.known[id] = true
	}
	want := fallback
	if !d.learn {
		want += saved
	}
	d.savedLookups += saved
	d.fallbackLookups += fallback

	// Read it back through buffers of random size and representation,
	// once in a while across a Taint Map outage.
	before := d.store.Stats().Lookups
	got := taint.MakeBytes(msg.Len())
	stale := [2]taint.Taint{dst.agent.Source("stale", "0"), dst.agent.Source("stale", "1")}
	if d.rng.Intn(5) == 0 {
		dst.flaky.fail = 1
	}
	for pos := 0; pos < msg.Len(); {
		buf := taint.MakeBytes(1 + d.rng.Intn(msg.Len()-pos+8))
		switch d.rng.Intn(3) {
		case 0: // a dense receiver
			for i := range buf.Data {
				buf.SetLabel(i, stale[i&1])
			}
		case 1:
			buf.SetRange(0, buf.Len(), stale[0])
		}
		var n int
		var err error
		if d.rng.Intn(2) == 0 {
			n, err = c.ep[1-from].Read(&buf)
		} else {
			db := &jni.DirectBuffer{Data: buf.Data, B: buf}
			n, err = c.ep[1-from].ReadBuffer(db, 0, buf.Len())
			buf = db.B
		}
		if err != nil && !errors.Is(err, errLookupDown) {
			t.Fatalf("read at %d/%d: %v", pos, msg.Len(), err)
		}
		d.logf("read %d/%d n=%d err=%v dense=%v %x", pos, msg.Len(), n, err, buf.DenseLabels() != nil, buf.Data[:n])
		for i := 0; i < n; i++ {
			// A byte that crossed under a stream-scoped id has a taint
			// whose Global ID the node may learn from a later unit the
			// decoder has already read, or look up once a later frame uses
			// it: at this read, only the wire's id is the program's.
			l, id := buf.LabelAt(i), crossed[pos+i]
			if id != 0 && l.GlobalID() != id {
				t.Fatalf("byte %d crossed under id %d, read under %d", pos+i, id, l.GlobalID())
			}
			d.logf("  %d %d %s", pos+i, id, strings.Join(l.Values(), ","))
		}
		buf.Slice(0, n).CopyInto(&got, pos)
		pos += n
	}
	if !bytes.Equal(got.Data, msg.Data) {
		t.Fatal("the message arrived with other bytes")
	}
	// A byte that crossed under a Global ID arrives under it; one that
	// crossed under a scoped id arrives under its taint, which has the
	// sender's Global ID only if its node learned that elsewhere.
	for i := range got.Data {
		sent, have := msg.LabelAt(i), got.LabelAt(i)
		if id := have.GlobalID(); !sameKeys(sent, have) || id != crossed[i] && (crossed[i] != 0 || id != sent.GlobalID()) {
			t.Fatalf("byte %d sent under %v (id %d on the wire), arrived under %v (id %d)",
				i, sent.Values(), crossed[i], have.Values(), have.GlobalID())
		}
	}
	if n := d.store.Stats().Lookups - before; n != want {
		t.Fatalf("learn=%v: a message with %d ids its write registered and %d it did not cost %d lookups at the store, want %d",
			d.learn, saved, fallback, n, want)
	}
	return got
}

func (d *diffRun) run(seed int64) {
	d.rng = rand.New(rand.NewSource(seed))
	d.store = taintmap.NewStore()
	a, b, c := newDiffNode("a", d.store, d.learn), newDiffNode("b", d.store, d.learn), newDiffNode("c", d.store, d.learn)
	net := newRig(d.t, tracker.ModeOff).net
	// Two connections share node b's memo; node c meets a's ids on a
	// third, most of them registered by writes it never saw.
	var conns []*diffConn
	for _, peer := range []*diffNode{b, b, c} {
		ca, cb := net.Pipe()
		conns = append(conns, &diffConn{
			node: [2]*diffNode{a, peer},
			ep:   [2]*Endpoint{NewAdaptiveEndpoint(a.agent, ca), NewAdaptiveEndpoint(peer.agent, cb)},
		})
	}
	pool := []taint.Taint{{}, a.agent.Source("src", "0")}
	for op := 0; op < 60; op++ {
		switch k := d.rng.Intn(8); {
		case k == 0:
			pool = append(pool, a.agent.Source("src", fmt.Sprint(len(pool))))
		case k <= 2:
			pool = append(pool, taint.Combine(pool[d.rng.Intn(len(pool))], pool[d.rng.Intn(len(pool))]))
		default:
			conn := conns[d.rng.Intn(len(conns))]
			d.logf("op %d", op)
			got := d.send(conn, 0, randomLayout(d.rng, pool))
			if d.rng.Intn(2) == 0 {
				// The peer folds its own taint into what it received and
				// sends it back: ids registered by the other end.
				var dirty []struct{ from, to int }
				got.ForEachDirtyRun(func(from, to int, _ taint.Taint) {
					dirty = append(dirty, struct{ from, to int }{from, to})
				})
				for _, r := range dirty {
					got.SetRange(r.from, r.to, taint.Combine(got.LabelAt(r.from), conn.node[1].local))
				}
				d.send(conn, 1, got)
			}
		}
	}
	st := d.store.Stats()
	d.logf("store: %d taints, %d registrations", st.GlobalTaints, st.Registrations)
}

// TestDefinitionsDifferential runs one seeded program — taint, combine,
// slice, whole, chunked and gathering writes, echoes, three connections
// of which two end in one node, Taint Map outages mid-stream — twice
// over endpoint pairs: with receivers that learn definitions and with
// receivers that drop them. Every read of the two runs must agree in
// bytes, tag sets, Global IDs and representation; the runs differ only
// in the lookups that reach the store, by exactly the ids that crossed
// with their definitions.
func TestDefinitionsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		learning, dropping := &diffRun{t: t, learn: true}, &diffRun{t: t}
		learning.run(seed)
		dropping.run(seed)
		if !slices.Equal(learning.trace, dropping.trace) {
			for i := range learning.trace {
				if i >= len(dropping.trace) || learning.trace[i] != dropping.trace[i] {
					t.Fatalf("seed %d: the runs part at trace line %d:\n  learning: %s\n  dropping: %s",
						seed, i, learning.trace[i], dropping.trace[min(i, len(dropping.trace)-1)])
				}
			}
			t.Fatalf("seed %d: the dropping run read on after the learning run's %d trace lines", seed, len(learning.trace))
		}
		outages := 0
		for _, line := range learning.trace {
			if strings.Contains(line, errLookupDown.Error()) {
				outages++
			}
		}
		if learning.savedLookups == 0 || learning.fallbackLookups == 0 || outages == 0 {
			t.Fatalf("seed %d: %d lookups saved, %d fallen back to, %d reads failed by an outage: the program left a path out",
				seed, learning.savedLookups, learning.fallbackLookups, outages)
		}
	}
}

// TestDefinitionsRejected: what must never be learned is stream
// corruption, on every stream read — the untainted id, a stream-scoped
// id that skips a number or is defined twice, a blob that is no taint,
// an entry that overruns its unit, a unit past the decoder's bound — and
// a frame must not use a scoped id the stream never defined. The read
// fails before it adopts a label, fails again when retried, and the
// sound definition that shared the unit is not memoised either.
func TestDefinitionsRejected(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	good := r.a.Source("s", "good")
	goodID, err := r.a.TaintMap().Register(good)
	must(t, err)
	goodBlob, err := taint.MarshalTaint(good)
	must(t, err)
	other, err := taint.MarshalTaint(r.a.Source("s", "other"))
	must(t, err)
	payload := []byte("never-adopted")
	frame := wire.AppendFrame(nil, wire.TierUniform, payload, []wire.Run{{N: len(payload), ID: goodID}})
	unit := func(id uint32, blob []byte) []byte {
		return wire.AppendDefinitions(nil, []uint32{goodID, id}, [][]byte{goodBlob, blob})
	}
	overrun := unit(77, other)
	overrun[len(overrun)-len(other)-1]++ // the last blob claims a byte past the unit
	scoped := taintmap.StreamScopedID
	cases := map[string][]byte{
		"untainted id":          unit(0, other),
		"scoped id skips k":     unit(scoped(2), other),
		"scoped id redefined":   wire.AppendDefinitions(nil, []uint32{goodID, scoped(1), scoped(1)}, [][]byte{goodBlob, other, goodBlob}),
		"scoped id not defined": slices.Concat(wire.AppendDefinitions(nil, []uint32{scoped(1)}, [][]byte{other}), wire.AppendFrame(nil, wire.TierUniform, payload, []wire.Run{{N: len(payload), ID: scoped(2)}})),
		"blob is no taint":      unit(77, other[:len(other)-1]),
		"entry overruns":        overrun,
		"oversize unit":         append(wire.AppendFrameHeader(nil, wire.FrameDefinitions, wire.MaxDefinitionsLen+1), make([]byte, wire.MaxDefinitionsLen+1)...),
	}
	type reader func(*taint.Bytes) (int, error)
	reads := map[string]func(b *tracker.Agent, raw []byte) reader{
		"Endpoint.Read": func(b *tracker.Agent, raw []byte) reader {
			ca, cb := r.net.Pipe()
			must(t, jni.SocketWrite0(ca, raw))
			return NewAdaptiveEndpoint(b, cb).Read
		},
		"Endpoint.ReadBuffer": func(b *tracker.Agent, raw []byte) reader {
			ca, cb := r.net.Pipe()
			must(t, jni.SocketWrite0(ca, raw))
			ep := NewAdaptiveEndpoint(b, cb)
			return func(buf *taint.Bytes) (int, error) {
				return ep.ReadBuffer(&jni.DirectBuffer{Data: buf.Data, B: *buf}, 0, len(buf.Data))
			}
		},
		"CustomEndpoint.Read": func(b *tracker.Agent, raw []byte) reader {
			return WrapCustom(b, &chunkTransport{stream: raw, rng: rand.New(rand.NewSource(3)), max: 40}).Read
		},
	}
	for via, setup := range reads {
		for name, bad := range cases {
			t.Run(via+"/"+name, func(t *testing.T) {
				b := agentFor("node2", tracker.ModeDista, r.store)
				read := setup(b, slices.Concat(wire.AppendAdaptiveStreamMagic(nil), bad, frame))
				stale := b.Source("s", "stale")
				buf := taint.FromString(strings.Repeat(".", len(payload)), stale)
				for attempt := 0; attempt < 2; attempt++ {
					n, err := read(&buf)
					if n != 0 || err == nil {
						t.Fatalf("attempt %d: read = %d, %v; want a corrupt stream", attempt, n, err)
					}
					if u, ok := buf.Uniform(); !ok || u != stale || strings.Trim(string(buf.Data), ".") != "" {
						t.Fatalf("attempt %d: the failed read left %q under %v", attempt, buf.Data, buf.LabelAt(0))
					}
				}
				before := r.store.Stats().Lookups
				if l, err := b.TaintMap().Lookup(goodID); err != nil || !l.Has("good") {
					t.Fatalf("lookup of the sound id = %v, %v", l, err)
				}
				if r.store.Stats().Lookups != before+1 {
					t.Fatal("the sound definition of a refused unit was memoised")
				}
			})
		}
	}
}

// TestScopedDefinitionsAccepted: a unit interleaving stream-scoped
// definitions with a Global ID's is learned in one read — the frame after
// it carries its labels exactly — and the scoped taints stay in the
// stream: the node's memo does not move, and its client refuses to look
// a scoped id up.
func TestScopedDefinitionsAccepted(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	scoped := taintmap.StreamScopedID
	good := r.a.Source("s", "good")
	goodID, err := r.a.TaintMap().Register(good)
	must(t, err)
	x, y := r.a.Source("s", "inline-x"), r.a.Source("s", "inline-y")
	var blobs [][]byte
	for _, l := range []taint.Taint{x, good, y} {
		blob, err := taint.MarshalTaint(l)
		must(t, err)
		blobs = append(blobs, blob)
	}
	runs := []wire.Run{{N: 3, ID: scoped(1)}, {N: 3, ID: goodID}, {N: 3}, {N: 3, ID: scoped(2)}}
	payload := []byte("xxxgggcccyyy")
	raw := slices.Concat(wire.AppendAdaptiveStreamMagic(nil),
		wire.AppendDefinitions(nil, []uint32{scoped(1), goodID, scoped(2)}, blobs),
		wire.AppendFrame(nil, wire.PickTier(runShape(runs)), payload, runs))

	for _, learned := range []bool{false, true} {
		b := agentFor("node2", tracker.ModeDista, r.store)
		tm := b.TaintMap().(*taintmap.LocalClient)
		if learned {
			_, err := tm.Lookup(goodID) // the Global ID's definition is then no news
			must(t, err)
		}
		before := tm.MemoStats()
		ca, cb := r.net.Pipe()
		must(t, jni.SocketWrite0(ca, raw))
		buf := taint.MakeBytes(len(payload))
		ep := NewAdaptiveEndpoint(b, cb)
		for got := 0; got < len(payload); {
			sub := buf.Slice(got, len(payload))
			n, err := ep.Read(&sub)
			must(t, err)
			got += n
		}
		if string(buf.Data) != string(payload) {
			t.Fatalf("read %q, sent %q", buf.Data, payload)
		}
		for i, want := range []taint.Taint{x, good, {}, y} {
			for k := 3 * i; k < 3*i+3; k++ {
				if got := buf.LabelAt(k); got.Empty() != want.Empty() || !taint.SameSet(got, want) {
					t.Fatalf("byte %d carries %v, want %v", k, got.Values(), want.Values())
				}
			}
		}
		after := tm.MemoStats()
		if grew := after.IDs - before.IDs; learned && grew != 0 || !learned && grew != 1 {
			t.Fatalf("learned %v: the memo went from %+v to %+v", learned, before, after)
		}
		if l, err := tm.Lookup(scoped(1)); err == nil {
			t.Fatalf("the node's client resolved a stream-scoped id to %v", l.Values())
		}
	}
}

// labelsDiffer reports whether some byte of got carries another tag set
// than the same byte of want.
func labelsDiffer(got, want taint.Bytes) bool {
	for i := range want.Data {
		if !sameKeys(got.LabelAt(i), want.LabelAt(i)) {
			return true
		}
	}
	return false
}

// deafClient is a caching client that ignores the definitions a stream
// carries, so every id it receives costs its first lookup.
type deafClient struct{ taintmap.Client }

func (deafClient) Learn([]uint32, [][]byte) error { return nil }

// TestDefinitionsFallbacks: the paths that cannot learn deliver as ever.
// A datagram is one frame and defines nothing; a client that ignores
// definitions pays the lookup they would have saved once its taint has a
// Global ID; and definitions past the decoder's bound for one unit cross
// in several, so that neither a first crossing nor the one that
// registers them leaves an id to look up.
func TestDefinitionsFallbacks(t *testing.T) {
	t.Run("datagram", func(t *testing.T) {
		r := newRig(t, tracker.ModeDista)
		sa, _ := r.net.ListenPacket("a:1")
		sb, _ := r.net.ListenPacket("b:1")
		x, y := r.a.Source("s", "dgram-x"), r.a.Source("s", "dgram-y")
		uniform := taint.FromString("one frame, one label", r.a.Source("s", "dgram-z"))
		sparse := taint.FromString("one frame, two islands", taint.Taint{})
		sparse.SetRange(2, 5, x)
		sparse.SetRange(9, 11, taint.Combine(x, y))
		dense := taint.FromString("one frame, a label change on every byte", taint.Taint{})
		for i := range dense.Data {
			dense.SetLabel(i, [2]taint.Taint{y, taint.Combine(y, x)}[i&1])
		}
		lookups := int64(0)
		for tier, msg := range map[int]taint.Bytes{wire.TierUniform: uniform, wire.TierSparse: sparse, wire.TierGroups: dense} {
			// Every payload brings a taint the send has to register; the
			// datagram is its tier's frame all the same, first byte to last.
			fresh := len(freshIn(msg))
			must(t, PacketSend(r.a, sa, msg, "b:1"))
			raw := make([]byte, wire.GroupsFrameLen(msg.Len()))
			n, _, err := jni.DatagramPeekData(sb, raw)
			must(t, err)
			var runs []wire.Run
			msg.ForEachRun(func(from, to int, l taint.Taint) { runs = append(runs, wire.Run{N: to - from, ID: l.GlobalID()}) })
			if want := wire.AppendFrame(nil, tier, msg.Data, runs); fresh == 0 || !bytes.Equal(raw[:n], want) {
				t.Fatalf("tier %d, %d taints to register: datagram = %q, want the frame alone", tier, fresh, raw[:n])
			}
			buf := taint.MakeBytes(msg.Len())
			if k, _, err := PacketReceive(r.b, sb, &buf); err != nil || k != msg.Len() || labelsDiffer(buf, msg) {
				t.Fatalf("tier %d: receive = %d, %v", tier, k, err)
			}
			if lookups += int64(fresh); r.store.Stats().Lookups != lookups {
				t.Fatalf("tier %d: %d lookups at the store, want one per id the datagrams registered (%d)", tier, r.store.Stats().Lookups, lookups)
			}
		}
	})
	t.Run("uncached client", func(t *testing.T) {
		r := newRig(t, tracker.ModeDista)
		b := tracker.New("node2", tracker.ModeDista, tracker.WithTaintMap(deafClient{taintmap.NewLocalClient(r.store, taint.NewTree())}))
		ca, cb := r.net.Pipe()
		sender, receiver := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(b, cb)
		msg := taint.FromString("ablation", r.a.Source("s", "a1"))
		buf := taint.MakeBytes(msg.Len())
		for i := int64(1); i <= 4; i++ {
			exchange(t, sender, receiver, msg, &buf)
			// The first exchange crosses under a stream-scoped id, which the
			// stream defines itself; the second, which registers the taint,
			// pays the lookup; the memo answers the rest.
			if st := r.store.Stats(); st.Lookups != min(i-1, 1) || !buf.LabelAt(0).Has("a1") {
				t.Fatalf("exchange %d: %d lookups under %v", i, st.Lookups, buf.LabelAt(0))
			}
		}
	})
	t.Run("unit past the bound", func(t *testing.T) {
		r := newRig(t, tracker.ModeDista)
		sender, receiver := r.endpoints(t)
		// 400 taints of ~200 tag bytes each: more than one unit may hold.
		msg := taint.MakeBytes(400)
		for i := range msg.Data {
			msg.SetLabel(i, r.a.Source("s", strings.Repeat("v", 200)+fmt.Sprint(i)))
		}
		buf := taint.MakeBytes(msg.Len())
		for _, registered := range []int64{0, int64(msg.Len())} {
			if exchange(t, sender, receiver, msg, &buf); labelsDiffer(buf, msg) {
				t.Fatal("the message arrived under other labels")
			}
			if st := r.store.Stats(); st.Lookups != 0 || st.Registrations != registered {
				t.Fatalf("%+v after %d taints crossed, %d registered", st, msg.Len(), registered)
			}
		}
	})
}

// TestScopedIDsRunOut: a stream numbers the taints it defines inline up
// to the last scoped id bit 31 leaves room for. Once it has handed that
// out, a send registers the taints it meets without a Global ID, as it
// does one too large for a definitions unit, and they cross bare: a
// scoped id past the last would wrap, and the receiver would fail the
// stream as a corrupt definitions unit.
func TestScopedIDsRunOut(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	p := &pipeTransport{}
	w := WrapCustom(r.a, p)
	w.wr.scope.k = lastScoped - 1
	w.wr.wroteMagic = true
	for round, n := range []int{3, 1} {
		p.buf = p.buf[:0]
		ls := make([]taint.Taint, n)
		msg := taint.MakeBytes(4 * n)
		for i := range ls {
			ls[i] = r.a.Source("s", fmt.Sprint("last-", round, "-", i))
			msg.SetRange(4*i, 4*i+4, ls[i])
		}
		if err := w.Write(msg); err != nil {
			t.Fatal(err)
		}
		var want []byte
		runs := make([]wire.Run, n)
		for i, l := range ls {
			runs[i] = wire.Run{N: 4, ID: l.GlobalID()}
			if round == 0 && i == 0 {
				blob, _ := taint.MarshalTaint(l)
				runs[i].ID = taintmap.StreamScopedID(lastScoped)
				want = wire.AppendDefinitions(want, []uint32{runs[i].ID}, [][]byte{blob})
			} else if runs[i].ID == 0 {
				t.Fatalf("round %d: taint %d crossed with neither a scoped id nor a Global ID", round, i)
			}
		}
		tier, _ := pickTier(msg)
		if want = append(want, wire.AppendFrame(nil, tier, msg.Data, runs)...); !bytes.Equal(p.buf, want) {
			t.Fatalf("round %d: the stream carried %x, want %x", round, p.buf, want)
		}
	}
	if k := w.wr.scope.k; k != lastScoped {
		t.Fatalf("the stream's last k is %#x, want %#x", k, lastScoped)
	}
	if st := r.store.Stats(); st.GlobalTaints != 3 {
		t.Fatalf("the store holds %d taints, want the 3 that crossed past the last scoped id", st.GlobalTaints)
	}
	// The agent queued the scoped one alone: the drain registers it, and
	// none of those its send registered again.
	if err := r.a.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := r.store.Stats(); st.GlobalTaints != 4 || st.Registrations != 4 {
		t.Fatalf("drained, the store holds %d taints from %d registrations; want 4 from 4", st.GlobalTaints, st.Registrations)
	}
}
