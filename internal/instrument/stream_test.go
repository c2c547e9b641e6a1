package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/taintmap"
)

// Tests of the streamed groups tier: the groups writer (appendGroups)
// and the adopt primitive (adoptRuns) against the per-byte reference
// codec, their allocation shape, and the resolve-before-pop contract of
// the stream reads.

// chunkTransport is a receive-only custom transport over a fixed byte
// stream, delivering it in seeded random fragments — or, given units,
// the lengths of its units in order, one unit a read: a frame arrives
// whole where the read has room for it.
type chunkTransport struct {
	stream []byte
	rng    *rand.Rand
	max    int
	units  []int
}

func (c *chunkTransport) SendRaw([]byte) error { return errors.New("receive-only transport") }

func (c *chunkTransport) RecvRaw(b []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	var n int
	if len(c.units) > 0 {
		n = c.units[0]
	} else {
		n = 1 + c.rng.Intn(c.max)
	}
	n = copy(b[:min(n, len(b))], c.stream)
	c.stream = c.stream[n:]
	if len(c.units) > 0 {
		if c.units[0] -= n; c.units[0] == 0 {
			c.units = c.units[1:]
		}
	}
	return n, nil
}

// randomLayout labels a random window of a fresh buffer from pool (the
// zero Taint among it stands for clean gaps) and returns the window: a
// run-mode or densified store, viewed whole or at an offset.
func randomLayout(rng *rand.Rand, pool []taint.Taint) taint.Bytes {
	return randomLayoutOf(rng, pool, 3)
}

// randomLayoutOf draws from the first kinds layout kinds only: 1 keeps
// to a few ranges, the shapes the cheap tiers are for, and 0 to one
// label over the whole buffer.
func randomLayoutOf(rng *rand.Rand, pool []taint.Taint, kinds int) taint.Bytes {
	n := 1 + rng.Intn(600)
	base := taint.MakeBytes(n)
	rng.Read(base.Data)
	if kinds == 0 {
		base.SetRange(0, n, pool[1+rng.Intn(len(pool)-1)])
		return base
	}
	switch rng.Intn(kinds) {
	case 0: // a few ranges: stays in run mode
		for k := rng.Intn(6); k > 0; k-- {
			from := rng.Intn(n)
			base.SetRange(from, from+1+rng.Intn(n-from), pool[rng.Intn(len(pool))])
		}
	case 1: // a label drawn per byte: densifies
		for i := 0; i < n; i++ {
			base.SetLabel(i, pool[rng.Intn(len(pool))])
		}
	default: // strict alternation, the worst case of the format
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		for i := 0; i < n; i++ {
			base.SetLabel(i, [2]taint.Taint{a, b}[i&1])
		}
	}
	if rng.Intn(2) == 0 {
		return base
	}
	from := rng.Intn(n)
	return base.Slice(from, from+1+rng.Intn(n-from))
}

// definitionsOf returns the definitions unit of ts, registered taints,
// in that order — the reference of what a stream send puts ahead of the
// frame that registered them.
func definitionsOf(t testing.TB, ts []taint.Taint) []byte {
	ids, blobs := make([]uint32, len(ts)), make([][]byte, len(ts))
	for i, l := range ts {
		var err error
		if blobs[i], err = taint.MarshalTaint(l); err != nil {
			t.Fatal(err)
		}
		if ids[i] = l.GlobalID(); ids[i] == 0 {
			t.Fatalf("%v has no Global ID after the write that carried it", l)
		}
	}
	return wire.AppendDefinitions(nil, ids, blobs)
}

// sendModel predicts from outside what one stream's sends define and
// which id each puts beside a label (DESIGN.md §7): a taint without a
// Global ID crosses under the stream's next scoped id, defined ahead of
// the frame, and once more under its Global ID in the send that
// registers it, because an earlier send queued it; a taint that had its
// id before the send crosses bare.
type sendModel struct {
	k      int
	scoped map[taint.Taint]uint32
}

// sent returns the definitions unit a send must have put ahead of its
// frame, given fresh, its labels without a Global ID before it, in the
// order met; it is called after the send.
func (m *sendModel) sent(t testing.TB, fresh []taint.Taint) []byte {
	if m.scoped == nil {
		m.scoped = map[taint.Taint]uint32{}
	}
	var ids []uint32
	var blobs [][]byte
	for _, l := range fresh {
		id := l.GlobalID()
		if id == 0 {
			if _, ok := m.scoped[l]; ok {
				continue
			}
			m.k++
			id = taintmap.StreamScopedID(m.k)
			m.scoped[l] = id
		}
		blob, err := taint.MarshalTaint(l)
		if err != nil {
			t.Fatal(err)
		}
		ids, blobs = append(ids, id), append(blobs, blob)
	}
	return wire.AppendDefinitions(nil, ids, blobs)
}

// id is the id the stream's last send put beside l.
func (m *sendModel) id(l taint.Taint) uint32 {
	if id := l.GlobalID(); id != 0 || l.Empty() {
		return id
	}
	return m.scoped[l]
}

// runs folds the ids of b's labels, read a byte at a time, into a run
// cover: the reference of what a send of b put on the wire.
func (m *sendModel) runs(b taint.Bytes) []wire.Run {
	var runs []wire.Run
	for i := range b.Data {
		id := m.id(b.LabelAt(i))
		if k := len(runs); k > 0 && runs[k-1].ID == id {
			runs[k-1].N++
		} else {
			runs = append(runs, wire.Run{N: 1, ID: id})
		}
	}
	return runs
}

// TestStreamedTierMatchesReference is the seeded differential test of
// the send ladder and both streamed primitives against the per-byte
// reference. Writer: for random label layouts, the endpoint chooses each
// layout's sound-minimum tier and the frame it puts on the wire is
// byte-identical to that tier's frame built from one id per byte — the
// Global ID, or the stream-scoped id of a taint not yet registered
// (sendModel), folded to runs; a groups body also equals the per-byte
// EncodeGroups. Reader: the concatenated frames, delivered in random
// fragments and read through random buffer sizes, leave exactly the
// labels Lookup, or the definition of a scoped id, + SetLabel leave per
// byte — and nothing outside the
// bytes a read returned. So do they delivered a unit a read, where every
// raw-body frame that no definitions unit precedes and the read has room
// for arrives whole, in one read of its own, between groups frames and
// definitions units that do not: a whole passthrough frame is copied out
// of the read buffer, every other unit is decoded.
func TestStreamedTierMatchesReference(t *testing.T) {
	seen := map[byte]int{}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, tracker.ModeDista)
		ca, cb := r.net.Pipe()
		sender := NewAdaptiveEndpoint(r.a, ca)

		// Five sources, two of them registered up front; the rest meet
		// the Taint Map inside the writer.
		pool := []taint.Taint{{}}
		for i := 0; i < 5; i++ {
			src := r.a.Source("diff", string(rune('a'+i)))
			if i < 2 {
				if _, err := r.a.TaintMap().Register(src); err != nil {
					t.Fatal(err)
				}
			}
			pool = append(pool, src, taint.Combine(src, pool[len(pool)-1]))
		}
		// Some seeds keep to a few ranges per message, some to one label
		// per message: the shapes the cheap tiers are for.
		kinds := [4]int{3, 1, 3, 0}[seed%4]

		var stream []byte
		var units []int     // the lengths of the stream's units: magic, definitions, frames
		var ref taint.Bytes // what the receiving node must end up with
		var model sendModel
		for m := 0; m < 12; m++ {
			msg := randomLayoutOf(rng, pool, kinds)
			// What this write meets without a Global ID, in the order it
			// meets them: those it scopes or registers cross as one
			// definitions unit ahead of its frame.
			fresh := freshIn(msg)
			if err := sender.Write(msg); err != nil {
				t.Fatalf("seed %d msg %d: %v", seed, m, err)
			}
			wantDefs := model.sent(t, fresh)
			// The reference: one id per byte, then its run list.
			runs := model.runs(msg)
			ids := make([]uint32, len(msg.Data))
			part := taint.WrapBytes(msg.Data)
			for i := range ids {
				l := msg.LabelAt(i)
				ids[i] = model.id(l)
				var lbl taint.Taint
				var err error
				if taintmap.IsStreamScoped(ids[i]) {
					blob, _ := taint.MarshalTaint(l)
					lbl, err = r.b.Tree().UnmarshalTaint(blob)
				} else {
					lbl, err = r.b.TaintMap().Lookup(ids[i])
				}
				if err != nil {
					t.Fatal(err)
				}
				part.SetLabel(i, lbl)
			}
			ref = ref.Append(part)

			// Read the tag the endpoint chose; build that tier's frame.
			head := make([]byte, len(wantDefs)+wire.FrameHeaderLen)
			if m == 0 {
				head = make([]byte, wire.StreamMagicLen+len(wantDefs)+wire.FrameHeaderLen)
			}
			if _, err := io.ReadFull(cb, head); err != nil {
				t.Fatal(err)
			}
			tag := head[len(head)-wire.FrameHeaderLen]
			if len(fresh) > 0 {
				seen[wire.FrameDefinitions]++
			}
			tier := -1
			for i := range wire.Tiers {
				if wire.Tiers[i].Tag == tag {
					tier = i
				}
			}
			if shape := runShape(runs); tier != wire.PickTier(shape) {
				t.Fatalf("seed %d msg %d: endpoint chose tag %q for %+v", seed, m, tag, shape)
			}
			seen[tag]++
			want := head[:0:0]
			if m == 0 {
				want = wire.AppendAdaptiveStreamMagic(want)
			}
			want = wire.AppendFrame(append(want, wantDefs...), tier, msg.Data, runs)
			if wire.Tiers[tier].Groups && !bytes.HasSuffix(want, wire.EncodeGroups(nil, msg.Data, ids)) {
				t.Fatalf("seed %d msg %d: run and per-byte reference encodings disagree", seed, m)
			}
			got := append(head, make([]byte, len(want)-len(head))...)
			if _, err := io.ReadFull(cb, got[len(head):]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d msg %d (%d bytes, %d runs, tag %q): the endpoint's frame differs from the reference",
					seed, m, len(msg.Data), len(runs), tag)
			}
			if cb.Buffered() != 0 {
				t.Fatalf("seed %d msg %d: %d bytes follow the frame", seed, m, cb.Buffered())
			}
			stream = append(stream, got...)
			frame := len(want) - len(wantDefs)
			if m == 0 {
				units = append(units, wire.StreamMagicLen)
				frame -= wire.StreamMagicLen
			}
			if len(wantDefs) > 0 {
				units = append(units, len(wantDefs))
			}
			units = append(units, frame)
		}

		stale := r.b.Source("diff", "stale")
		for k, pass := range []struct {
			rt     *chunkTransport
			window int // the largest read
		}{
			{&chunkTransport{stream: stream, rng: rng, max: 1 + rng.Intn(300)}, 200},
			{&chunkTransport{stream: stream, units: units}, 700},
		} {
			receiver := WrapCustom(r.b, pass.rt)
			pos := 0
			for {
				buf := taint.MakeBytes(1 + rng.Intn(pass.window))
				buf.SetRange(0, len(buf.Data), stale)
				n, err := receiver.Read(&buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("seed %d pass %d: read at %d: %v", seed, k, pos, err)
				}
				if !bytes.Equal(buf.Data[:n], ref.Data[pos:pos+n]) {
					t.Fatalf("seed %d pass %d: data mismatch at %d", seed, k, pos)
				}
				for i := 0; i < len(buf.Data); i++ {
					want := stale
					if i < n {
						want = ref.LabelAt(pos + i)
					}
					if got := buf.LabelAt(i); got != want {
						t.Fatalf("seed %d pass %d: stream byte %d (read offset %d of %d): label %v, want %v",
							seed, k, pos+i, i, n, got, want)
					}
				}
				pos += n
			}
			if pos != len(ref.Data) {
				t.Fatalf("seed %d pass %d: read %d of %d bytes", seed, k, pos, len(ref.Data))
			}
		}
	}
	for _, row := range wire.Tiers {
		if seen[row.Tag] == 0 {
			t.Errorf("no message of any seed travelled on the %s tier", row.Name)
		}
	}
}

// eofTransport is a receive-only custom transport that hands out its
// units one a read, the last together with io.EOF, and fails a read after
// that: a reader that has to ask again to learn of the end lost it.
type eofTransport struct{ units [][]byte }

func (c *eofTransport) SendRaw([]byte) error { return errors.New("receive-only transport") }

func (c *eofTransport) RecvRaw(b []byte) (int, error) {
	if len(c.units) == 0 {
		return 0, errors.New("read past io.EOF")
	}
	n := copy(b, c.units[0])
	if c.units = c.units[1:]; len(c.units) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// TestWholeFrameWithEOF: a last frame that arrives whole in the read that
// also reports the end of the stream is delivered with its labels, on
// every raw-body tier, and the end is reported by the next read without
// asking the source again.
func TestWholeFrameWithEOF(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	known := r.a.Source("s", "known")
	id, err := r.a.TaintMap().Register(known)
	must(t, err)
	data := []byte("the last")
	for _, c := range []struct {
		tier  int
		runs  []wire.Run
		dirty [2]int // the bytes under known
	}{
		{wire.TierPassthrough, nil, [2]int{}},
		{wire.TierUniform, []wire.Run{{N: 8, ID: id}}, [2]int{0, 8}},
		{wire.TierSparse, []wire.Run{{N: 4}, {N: 3, ID: id}, {N: 1}}, [2]int{4, 7}},
	} {
		name := wire.Tiers[c.tier].Name
		frame := wire.AppendFrame(nil, c.tier, data, c.runs)
		rd := WrapCustom(r.b, &eofTransport{units: [][]byte{wire.AppendAdaptiveStreamMagic(nil), frame}})
		buf := taint.MakeBytes(16)
		n, err := rd.Read(&buf)
		if err != nil || !bytes.Equal(buf.Data[:n], data) {
			t.Fatalf("%s: the last read = %q, %v; want %q", name, buf.Data[:n], err, data)
		}
		for i := range data {
			lbl := buf.LabelAt(i)
			if tainted := i >= c.dirty[0] && i < c.dirty[1]; lbl.Has("known") != tainted || !tainted && !lbl.Empty() {
				t.Fatalf("%s: byte %d carries %v", name, i, lbl.Values())
			}
		}
		if n, err := rd.Read(&buf); n != 0 || err != io.EOF {
			t.Fatalf("%s: the read after the last frame = %d, %v; want 0, EOF", name, n, err)
		}
	}
}

// exchange writes msg through sender and reads it back whole through
// receiver, on the calling goroutine: the pipe buffers the frame.
func exchange(t testing.TB, sender, receiver *Endpoint, msg taint.Bytes, into *taint.Bytes) {
	if err := sender.Write(msg); err != nil {
		t.Fatal(err)
	}
	for got := 0; got < len(msg.Data); {
		sub := into.Slice(got, len(into.Data))
		n, err := receiver.Read(&sub)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
}

// TestStreamedPathAllocs pins the allocation shape of the streamed
// groups tier: a warm write+read of a label change on every byte costs
// none — the reader's id scratch is its own, and the Taint Map client
// answers the delivery's lookup into its label scratch (one allocation
// while the answer was a slice of the client's) — and nothing
// proportional to its 8192 runs. A comb of one taint on every other
// byte, one id read whole into the dense buffer, costs none: its frame
// is adopted out of the read buffer and its id resolved by Lookup. A
// uniform delivery adopted by runs —
// its one id resolved by Lookup, no slice — a sparse one, eight islands
// under that id, and a warm clean exchange cost none at the endpoint:
// the clean one is copied out of the read buffer, the other two are
// decoded into the decoder's persistent buffers.
func TestStreamedPathAllocs(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender, receiver := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(r.b, cb)

	dense := taint.MakeBytes(8192)
	pair := [2]taint.Taint{r.a.Source("s", "x"), r.a.Source("s", "y")}
	for i := range dense.Data {
		dense.SetLabel(i, pair[i&1])
	}
	into := taint.MakeBytes(8192)
	for i := 0; i < 4; i++ {
		exchange(t, sender, receiver, dense, &into)
	}
	if got := testing.AllocsPerRun(50, func() { exchange(t, sender, receiver, dense, &into) }); got != 0 {
		t.Errorf("dense 8 KiB exchange: %v allocs, want 0", got)
	}
	for i := range into.Data {
		if !into.LabelAt(i).Has([2]string{"x", "y"}[i&1]) {
			t.Fatalf("byte %d carries %v", i, into.LabelAt(i))
		}
	}

	comb := taint.MakeBytes(8192)
	for i := 0; i < len(comb.Data); i += 2 {
		comb.SetLabel(i, pair[0])
	}
	for i := 0; i < 4; i++ {
		exchange(t, sender, receiver, comb, &into)
	}
	if got := testing.AllocsPerRun(50, func() { exchange(t, sender, receiver, comb, &into) }); got != 0 {
		t.Errorf("comb 8 KiB exchange: %v allocs, want 0", got)
	}
	for i := range into.Data {
		if l := into.LabelAt(i); l.Has("x") != (i&1 == 0) || i&1 == 1 && !l.Empty() || into.DenseLabels() == nil {
			t.Fatalf("comb byte %d carries %v (per-byte view %v)", i, l.Values(), into.DenseLabels() != nil)
		}
	}

	uniform := taint.FromString(strings.Repeat("u", 4096), pair[0])
	whole := taint.MakeBytes(4096)
	for i := 0; i < 4; i++ {
		exchange(t, sender, receiver, uniform, &whole)
	}
	if got := testing.AllocsPerRun(50, func() { exchange(t, sender, receiver, uniform, &whole) }); got != 0 {
		t.Errorf("uniform 4 KiB exchange: %v allocs, want 0", got)
	}

	sparse := taint.WrapBytes(make([]byte, 4096))
	for i := 0; i < 8; i++ {
		sparse.SetRange(i*512, i*512+64, pair[0])
	}
	for i := 0; i < 4; i++ {
		exchange(t, sender, receiver, sparse, &whole)
	}
	if got := testing.AllocsPerRun(50, func() { exchange(t, sender, receiver, sparse, &whole) }); got != 0 {
		t.Errorf("sparse 4 KiB exchange: %v allocs, want 0", got)
	}
	for i := range whole.Data {
		if want := i%512 < 64; whole.LabelAt(i).Has("x") != want {
			t.Fatalf("sparse byte %d carries %v", i, whole.LabelAt(i).Values())
		}
	}

	clean := taint.WrapBytes(make([]byte, 512))
	small := taint.WrapBytes(make([]byte, 512))
	for i := 0; i < 4; i++ {
		exchange(t, sender, receiver, clean, &small)
	}
	if got := testing.AllocsPerRun(50, func() { exchange(t, sender, receiver, clean, &small) }); got != 0 {
		t.Errorf("clean 512 B exchange: %v allocs, want 0", got)
	}
}

// TestLargeReadBorrowsScratch: a read whose raw scratch would pass
// borrowAbove borrows it for that read alone, 256 KiB at most. A 4 MiB
// transfer, uniform and then a label change on every byte (the groups
// tier), arrives with exact bytes and labels through 4 MiB reads and
// leaves the endpoint no scratch past borrowAbove: one such read used to
// leave more than 20 MiB on it for its life. A warm 64 KiB uniform
// exchange, whose every read borrows, allocates nothing.
func TestLargeReadBorrowsScratch(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender, receiver := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(r.b, cb)
	tags := [2]string{"x", "y"}
	pair := [2]taint.Taint{r.a.Source("s", tags[0]), r.a.Source("s", tags[1])}

	const size = 4 << 20
	uniform, groups := taint.MakeBytes(size), taint.MakeBytes(size)
	for i := range groups.Data {
		uniform.Data[i], groups.Data[i] = byte(i*7), byte(i*13)
		groups.SetLabel(i, pair[i&1])
	}
	uniform.SetRange(0, size, pair[0])
	into := taint.MakeBytes(size)
	for _, tc := range []struct {
		name  string
		msg   taint.Bytes
		label func(i int) string
	}{
		{"uniform", uniform, func(int) string { return "x" }},
		{"groups", groups, func(i int) string { return tags[i&1] }},
	} {
		sent := make(chan error, 1)
		go func() { sent <- sender.Write(tc.msg) }()
		for got := 0; got < size; {
			sub := into.Slice(got, size)
			n, err := receiver.Read(&sub)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got += n
		}
		if err := <-sent; err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkDelivery(t, tc.name, into, tc.msg.Data, tc.label)
		if c := cap(receiver.rd.rbuf); c > borrowAbove {
			t.Fatalf("%s: the endpoint keeps %d bytes of read scratch, want at most %d", tc.name, c, borrowAbove)
		}
	}

	msg := taint.FromString(strings.Repeat("u", 64<<10), pair[0])
	whole := taint.MakeBytes(64 << 10)
	for i := 0; i < 4; i++ {
		exchange(t, sender, receiver, msg, &whole)
	}
	checkDelivery(t, "64 KiB uniform", whole, msg.Data, func(int) string { return "x" })
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(50, func() { exchange(t, sender, receiver, msg, &whole) }); got != 0 {
		t.Errorf("uniform 64 KiB exchange: %v allocs, want 0", got)
	}
}

// TestBorrowedScratchAcrossConnections: four endpoint pairs exchange
// 64 KiB uniform, sparse and groups frames at once, every read of them
// borrowing its scratch from the one pool. A scratch given back while a
// view of it lived would show here as another connection's bytes or
// labels; each pair's bytes and tags are its own. `make race` runs it
// five more times (RACE_AGAIN).
func TestBorrowedScratchAcrossConnections(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	const size, rounds = 64 << 10, 4
	errs := make(chan error, 4)
	for p := 0; p < 4; p++ {
		ca, cb := r.net.Pipe()
		sender, receiver := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(r.b, cb)
		tags := [2]string{fmt.Sprintf("p%d.x", p), fmt.Sprintf("p%d.y", p)}
		pair := [2]taint.Taint{r.a.Source("s", tags[0]), r.a.Source("s", tags[1])}
		uniform, sparse, groups := taint.MakeBytes(size), taint.MakeBytes(size), taint.MakeBytes(size)
		for i := range groups.Data {
			b := byte(i*7 + p)
			uniform.Data[i], sparse.Data[i], groups.Data[i] = b, b, b
			groups.SetLabel(i, pair[i&1])
		}
		uniform.SetRange(0, size, pair[0])
		for off := 0; off < size; off += size / 8 {
			sparse.SetRange(off, off+64, pair[1])
		}
		kinds := []struct {
			msg   taint.Bytes
			label func(i int) string
		}{
			{uniform, func(int) string { return tags[0] }},
			{sparse, func(i int) string {
				if i%(size/8) < 64 {
					return tags[1]
				}
				return ""
			}},
			{groups, func(i int) string { return tags[i&1] }},
		}
		go func() {
			errs <- func() error {
				into := taint.MakeBytes(size)
				for k := 0; k < rounds*len(kinds); k++ {
					kind := kinds[k%len(kinds)]
					sent := make(chan error, 1)
					go func() { sent <- sender.Write(kind.msg) }()
					for got := 0; got < size; {
						sub := into.Slice(got, size)
						n, err := receiver.Read(&sub)
						if err != nil {
							return err
						}
						got += n
					}
					if err := <-sent; err != nil {
						return err
					}
					if at := deliveryMismatch(into, kind.msg.Data, kind.label); at >= 0 {
						return fmt.Errorf("pair %s, round %d: byte %d came back as %#x under %v", tags[0], k, at, into.Data[at], into.LabelAt(at).Values())
					}
				}
				return nil
			}()
		}()
	}
	for p := 0; p < 4; p++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// checkDelivery fails t unless got holds data, byte i under the one tag
// label(i), or none where that is "".
func checkDelivery(t *testing.T, name string, got taint.Bytes, data []byte, label func(i int) string) {
	t.Helper()
	if at := deliveryMismatch(got, data, label); at >= 0 {
		t.Fatalf("%s: byte %d came back as %#x under %v, sent as %#x under %q", name, at, got.Data[at], got.LabelAt(at).Values(), data[at], label(at))
	}
}

// deliveryMismatch returns the first byte of got that is not data's or
// not under the one tag label(i) ("" for none), or -1. The last two
// labels it checked are remembered, so a byte under one of them costs a
// compare.
func deliveryMismatch(got taint.Bytes, data []byte, label func(i int) string) int {
	var ok [2]struct {
		want string
		l    taint.Taint
	}
	for i := range data {
		l, want := got.LabelAt(i), label(i)
		if got.Data[i] != data[i] {
			return i
		}
		if ok[0].l == l && ok[0].want == want || ok[1].l == l && ok[1].want == want {
			continue
		}
		if (want == "") != l.Empty() || want != "" && (l.Len() != 1 || !l.Has(want)) {
			return i
		}
		ok[1], ok[0] = ok[0], ok[1]
		ok[0].want, ok[0].l = want, l
	}
	return -1
}

// flakyLookups fails the first lookups of a client — LookupInto,
// LookupBatch or, for a delivery of one id, Lookup — as a Taint Map
// outage on the receiving node would.
type flakyLookups struct {
	taintmap.Client
	fail int
	seen func() // called at every lookup, if set
}

var errLookupDown = errors.New("taint map unreachable")

func (c *flakyLookups) LookupInto(ts []taint.Taint, ids []uint32) ([]taint.Taint, error) {
	if c.seen != nil {
		c.seen()
	}
	if c.fail > 0 {
		c.fail--
		return nil, errLookupDown
	}
	return c.Client.LookupInto(ts, ids)
}

func (c *flakyLookups) LookupBatch(ids []uint32) ([]taint.Taint, error) {
	return c.LookupInto(nil, ids)
}

func (c *flakyLookups) Lookup(id uint32) (taint.Taint, error) {
	if c.seen != nil {
		c.seen()
	}
	if c.fail > 0 {
		c.fail--
		return taint.Taint{}, errLookupDown
	}
	return c.Client.Lookup(id)
}

// TestReadResolvesBeforePopping: a lookup that fails must leave the
// caller's bytes, the caller's labels and the decoder untouched, so the
// read retried once the Taint Map answers returns the very bytes the
// failed one would have, under the right labels — not the bytes after
// them. Every receive is held to it on each of its paths: a uniform
// frame into a run-mode buffer, adopted by runs; a groups frame with a
// label change on every byte into a dense buffer, read per byte — on a
// stream under taints registered before, as a fresh taint would cross
// under a stream-scoped id, which no lookup resolves; and, on
// a stream already open, a uniform and a sparse frame whose ids were
// registered before, which no definitions unit precedes: each arrives as
// a read of its own, whole, so a reader that took such a frame out of the
// read buffer, as it takes a whole passthrough frame, would have to keep
// it for the retry rather than deliver its bytes unlabelled. A whole
// groups frame into a dense buffer on such a stream is adopted straight
// out of the read buffer, its ids resolved while the decoder holds
// nothing; a failed lookup hands the read to the decoder, and the retry
// finds it there. No other delivery resolves before the decoder holds it.
// A datagram has no decoder to retry from — the one a failed receive took
// off the socket is lost, as on any other receive error — so its retry
// is the next datagram.
func TestReadResolvesBeforePopping(t *testing.T) {
	type reader func(*taint.Bytes) (int, error)
	type link struct {
		write func(taint.Bytes)
		read  reader
		rd    *streamReader // the stream's receive half; nil for a datagram
	}
	links := map[string]func(t *testing.T, r *rig, b *tracker.Agent) link{
		"Endpoint.Read": func(t *testing.T, r *rig, b *tracker.Agent) link {
			ca, cb := r.net.Pipe()
			w, ep := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(b, cb)
			return link{func(m taint.Bytes) { must(t, w.Write(m)) }, ep.Read, &ep.rd}
		},
		"Endpoint.ReadBuffer": func(t *testing.T, r *rig, b *tracker.Agent) link {
			ca, cb := r.net.Pipe()
			w, ep := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(b, cb)
			return link{func(m taint.Bytes) { must(t, w.Write(m)) }, func(buf *taint.Bytes) (int, error) {
				db := &jni.DirectBuffer{Data: buf.Data, B: *buf}
				return ep.ReadBuffer(db, 0, len(buf.Data))
			}, &ep.rd}
		},
		"CustomEndpoint.Read": func(t *testing.T, r *rig, b *tracker.Agent) link {
			ta, tb := newChanPair()
			w, ce := WrapCustom(r.a, ta), WrapCustom(b, tb)
			return link{func(m taint.Bytes) { must(t, w.Write(m)) }, ce.Read, &ce.rd}
		},
		"PacketReceive": func(t *testing.T, r *rig, b *tracker.Agent) link {
			sa, _ := r.net.ListenPacket("a:1")
			sb, _ := r.net.ListenPacket("b:1")
			return link{func(m taint.Bytes) {
				must(t, PacketSend(r.a, sa, m, "b:1"))
				must(t, PacketSend(r.a, sa, m, "b:1"))
			}, func(buf *taint.Bytes) (int, error) {
				n, _, err := PacketReceive(b, sb, buf)
				return n, err
			}, nil}
		},
	}
	// check runs one outage-then-retry over msg, whose byte i must arrive
	// under tag(i) ("" for untainted), into a buffer holding filler under
	// stale labels; opened first opens the stream with a clean message. A
	// stream takes its whole-frame lane for a dense buffer on an open
	// stream, and only there.
	check := func(t *testing.T, setup func(*testing.T, *rig, *tracker.Agent) link,
		msg func(a *tracker.Agent) taint.Bytes, tag func(i int) string, dense, opened bool) {
		r := newRig(t, tracker.ModeDista)
		flaky := &flakyLookups{Client: r.b.TaintMap(), fail: 1}
		b := tracker.New("node2", tracker.ModeDista, tracker.WithTaintMap(flaky))
		sent := msg(r.a)
		l := setup(t, r, b)
		if opened {
			l.write(taint.WrapBytes([]byte("open")))
			opener := taint.MakeBytes(4)
			if n, err := l.read(&opener); n != 4 || err != nil {
				t.Fatalf("the opening read = %d, %v", n, err)
			}
		}
		l.write(sent)

		old := [2]taint.Taint{b.Source("s", "stale0"), b.Source("s", "stale1")}
		filler := bytes.Repeat([]byte{'.'}, len(sent.Data))
		buf := taint.WrapBytes(append([]byte(nil), filler...))
		for i := range buf.Data {
			if dense {
				buf.SetLabel(i, old[i&1])
			} else {
				buf.SetLabel(i, old[0])
			}
		}
		if (buf.DenseLabels() != nil) != dense {
			t.Fatalf("receive buffer has a per-byte view = %v, want %v", !dense, dense)
		}
		lane := false // the failed lookup came with nothing in the decoder
		flaky.seen = func() { lane = lane || l.rd != nil && l.rd.dec.Buffered() == 0 }
		if n, err := l.read(&buf); n != 0 || !errors.Is(err, errLookupDown) {
			t.Fatalf("read during the outage = %d, %v; want 0, %v", n, err, errLookupDown)
		}
		if want := l.rd != nil && dense && opened; lane != want {
			t.Fatalf("the read resolved with nothing in the decoder = %v, want %v", lane, want)
		}
		flaky.seen = nil
		if !bytes.Equal(buf.Data, filler) {
			t.Fatalf("failed read wrote %q into the caller's buffer", buf.Data)
		}
		for i := range buf.Data {
			want := old[0]
			if dense {
				want = old[i&1]
			}
			if buf.LabelAt(i) != want {
				t.Fatalf("failed read relabelled byte %d to %v", i, buf.LabelAt(i))
			}
		}
		// The retry returns the head of the message — all of it, unless the
		// definitions ahead of the frame pushed its tail past the wire read.
		n, err := l.read(&buf)
		if err != nil || n == 0 || !bytes.Equal(buf.Data[:n], sent.Data[:n]) {
			t.Fatalf("retried read = %q, %v; want %q", buf.Data[:n], err, sent.Data)
		}
		for i := 0; i < n; i++ {
			lbl := buf.LabelAt(i)
			if want := tag(i); want == "" && !lbl.Empty() || want != "" && (!lbl.Has(want) || len(lbl.Values()) != 1) {
				t.Fatalf("byte %d carries %v after the retry, want %q alone", i, lbl.Values(), want)
			}
		}
	}
	// known is a taint whose Global ID the sender holds before it writes.
	known := func(a *tracker.Agent, value string) taint.Taint {
		src := a.Source("s", value)
		if _, err := a.TaintMap().Register(src); err != nil {
			t.Fatal(err)
		}
		return src
	}
	for name, setup := range links {
		// first labels the opening message: a datagram registers a fresh
		// taint as it sends it.
		first := known
		if name == "PacketReceive" {
			first = func(a *tracker.Agent, value string) taint.Taint { return a.Source("s", value) }
		}
		t.Run(name, func(t *testing.T) {
			check(t, setup, func(a *tracker.Agent) taint.Bytes {
				return taint.FromString("resolve-then-pop", first(a, "fresh"))
			}, func(int) string { return "fresh" }, false, false)
			t.Run("groups into dense", func(t *testing.T) {
				check(t, setup, func(a *tracker.Agent) taint.Bytes {
					msg := taint.FromString(strings.Repeat("resolve-then-pop", 12), taint.Taint{})
					pair := [2]taint.Taint{first(a, "fresh0"), first(a, "fresh1")}
					for i := range msg.Data {
						msg.SetLabel(i, pair[i&1])
					}
					return msg
				}, func(i int) string { return [2]string{"fresh0", "fresh1"}[i&1] }, true, false)
			})
			if name == "PacketReceive" {
				return
			}
			t.Run("whole uniform frame", func(t *testing.T) {
				check(t, setup, func(a *tracker.Agent) taint.Bytes {
					return taint.FromString("resolve-then-pop", known(a, "known"))
				}, func(int) string { return "known" }, false, true)
			})
			t.Run("whole groups frame into dense", func(t *testing.T) {
				check(t, setup, func(a *tracker.Agent) taint.Bytes {
					msg := taint.FromString(strings.Repeat("resolve-then-pop", 12), taint.Taint{})
					pair := [2]taint.Taint{known(a, "known0"), known(a, "known1")}
					for i := range msg.Data {
						msg.SetLabel(i, pair[i&1])
					}
					return msg
				}, func(i int) string { return [2]string{"known0", "known1"}[i&1] }, true, true)
			})
			t.Run("whole sparse frame", func(t *testing.T) {
				check(t, setup, func(a *tracker.Agent) taint.Bytes {
					msg := taint.FromString(strings.Repeat("resolve-then-pop", 4), taint.Taint{})
					msg.SetRange(16, 32, known(a, "island"))
					return msg
				}, func(i int) string {
					if i >= 16 && i < 32 {
						return "island"
					}
					return ""
				}, false, true)
			})
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestBorrowedWholeFrame: a read large enough to borrow its scratch
// (over borrowAbove) that receives exactly one whole frame takes the
// whole-frame lane out of the borrowed buffer — a clean frame and a
// groups frame alike — and delivers it.
func TestBorrowedWholeFrame(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)
	pair := [2]taint.Taint{r.a.Source("s", "x"), r.a.Source("s", "y")}
	opener := taint.WrapBytes([]byte("open"))
	must(t, sender.Write(opener))
	if n, err := receiver.Read(&taint.Bytes{Data: make([]byte, 4)}); n != 4 || err != nil {
		t.Fatalf("the opening read = %d, %v", n, err)
	}
	const size = 32 << 10
	clean, dense := taint.MakeBytes(size), taint.MakeBytes(size)
	for i := range dense.Data {
		clean.Data[i], dense.Data[i] = byte(i), byte(i*7)
		dense.SetLabel(i, pair[i&1])
	}
	for name, msg := range map[string]taint.Bytes{"clean": clean, "groups": dense} {
		must(t, sender.Write(msg)) // the whole frame waits on the connection
		if rawLen(size) <= borrowAbove {
			t.Fatalf("a %d-byte read does not borrow", size)
		}
		into := taint.MakeBytes(size)
		if n, err := receiver.Read(&into); n != size || err != nil || !bytes.Equal(into.Data, msg.Data) {
			t.Fatalf("%s: read = %d, %v (bytes equal %v)", name, n, err, bytes.Equal(into.Data, msg.Data))
		}
		for i := range into.Data {
			if into.LabelAt(i).Empty() != msg.LabelAt(i).Empty() {
				t.Fatalf("%s: byte %d arrived under %v", name, i, into.LabelAt(i).Values())
			}
		}
	}
}
