package instrument

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// idRuns folds the Global IDs b's labels carry, read a byte at a time,
// into a run cover: the reference of what a send has to put on the wire.
// Every taint of b has crossed, or been registered, before.
func idRuns(b taint.Bytes) []wire.Run {
	var runs []wire.Run
	for i := range b.Data {
		id := b.LabelAt(i).GlobalID()
		if k := len(runs); k > 0 && runs[k-1].ID == id {
			runs[k-1].N++
		} else {
			runs = append(runs, wire.Run{N: 1, ID: id})
		}
	}
	return runs
}

// runShape is the exact shape of the payload runs cover.
func runShape(runs []wire.Run) wire.Shape {
	s := wire.Shape{Exact: true}
	for _, r := range runs {
		s.N += r.N
		if r.ID != 0 {
			s.DirtyBytes += r.N
			s.DirtyRuns++
		}
	}
	return s
}

// referenceFrame is the frame of b on its sound-minimum tier, built from
// its per-byte ids and every one of its runs counted — no scan limit, no
// memo, no connection.
func referenceFrame(b taint.Bytes) []byte {
	runs := idRuns(b)
	return wire.AppendFrame(nil, wire.PickTier(runShape(runs)), b.Data, runs)
}

// TestStreamFrameIsItsDatagram is the property a connection without
// history has: over seeded random schedules of clean, uniform, k-range
// and per-byte buffers in any order, sent down one connection by any of
// its stream verbs and down a custom transport, what a write puts on the
// wire — behind the magic on a connection's first and the definitions of
// what it scopes or registers — is the PacketSend datagram of the same
// buffer, byte for byte, but for each stream-scoped id where the
// datagram, which registers the taint, has its Global ID; and that is
// the reference frame of its sound minimum.
func TestStreamFrameIsItsDatagram(t *testing.T) {
	tags, verbs := map[byte]int{}, map[string]int{}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, tracker.ModeDista)
		ca, cb := r.net.Pipe()
		stream := NewAdaptiveEndpoint(r.a, ca)
		ta, tb := newChanPair()
		custom := WrapCustom(r.a, ta)
		sa, _ := r.net.ListenPacket("a:1")
		sb, _ := r.net.ListenPacket("b:1")
		pool := []taint.Taint{{}}
		for i := 0; i < 4; i++ {
			src := r.a.Source("prop", fmt.Sprint("p", i))
			pool = append(pool, src, taint.Combine(src, pool[len(pool)-1]))
		}
		raw := make([]byte, wire.StreamMagicLen+wire.MaxDefinitionsLen+wire.GroupsFrameLen(600))
		var model sendModel

		for m := 0; m < 48; m++ {
			var msg taint.Bytes
			switch rng.Intn(5) {
			case 0: // clean
				msg = taint.MakeBytes(1 + rng.Intn(600))
				rng.Read(msg.Data)
			case 1: // uniform
				msg = randomLayoutOf(rng, pool, 0)
			case 2: // k short islands, to either side of what a range table holds
				msg = taint.MakeBytes(64 + rng.Intn(536))
				rng.Read(msg.Data)
				for k := 1 + rng.Intn(24); k > 0; k-- {
					from := rng.Intn(len(msg.Data))
					msg.SetRange(from, min(from+1+rng.Intn(8), len(msg.Data)), pool[1+rng.Intn(len(pool)-1)])
				}
			default: // a few ranges, a label per byte, strict alternation
				msg = randomLayoutOf(rng, pool, 3)
			}
			n := len(msg.Data)
			direct := &jni.DirectBuffer{Data: msg.Data, B: msg}
			fresh := freshIn(msg)

			var err error
			verb := [3]string{"Write", "WriteBuffer", "WritevBuffers"}[rng.Intn(3)]
			switch verb {
			case "Write":
				err = stream.Write(msg)
			case "WriteBuffer":
				_, err = stream.WriteBuffer(direct, 0, n)
			case "WritevBuffers":
				_, err = stream.WritevBuffers([]*jni.DirectBuffer{direct}, []int{n})
			}
			if err != nil {
				t.Fatalf("seed %d msg %d: %s: %v", seed, m, verb, err)
			}
			sent := raw[:cb.Buffered()]
			if _, err := io.ReadFull(cb, sent); err != nil {
				t.Fatal(err)
			}
			var magic []byte // a connection's first write opens with it
			if m == 0 {
				magic = wire.AppendAdaptiveStreamMagic(nil)
			}
			frame, ok := bytes.CutPrefix(sent, slices.Concat(magic, model.sent(t, fresh)))
			if !ok {
				t.Fatalf("seed %d msg %d: %s of %d bytes meeting %d taints without an id does not open with the magic and their definitions",
					seed, m, verb, n, len(fresh))
			}
			runs := model.runs(msg)
			if scoped := wire.AppendFrame(nil, wire.PickTier(runShape(runs)), msg.Data, runs); !bytes.Equal(frame, scoped) {
				t.Fatalf("seed %d msg %d: %s of %d bytes is not the frame of its ids", seed, m, verb, n)
			}

			if err := PacketSend(r.a, sa, msg, "b:1"); err != nil {
				t.Fatal(err)
			}
			datagram := make([]byte, wire.GroupsFrameLen(n)+1)
			k, _, err := jni.DatagramReceive0(sb, datagram)
			if err != nil {
				t.Fatal(err)
			}
			datagram = datagram[:k]
			want := referenceFrame(msg)
			if !bytes.Equal(datagram, want) {
				t.Fatalf("seed %d msg %d: the datagram of %d bytes (tag %q) is not their sound-minimum frame (tag %q)",
					seed, m, n, datagram[0], want[0])
			}
			if len(frame) != len(datagram) || frame[0] != datagram[0] || len(fresh) == 0 && !bytes.Equal(frame, datagram) {
				t.Fatalf("seed %d msg %d: %s of %d bytes in %d runs travels as %d bytes under %q, its datagram as %d under %q",
					seed, m, verb, n, msg.RunCount(), len(frame), frame[0], len(datagram), datagram[0])
			}

			// The custom transport: every taint has its id by now.
			if err := custom.Write(msg); err != nil {
				t.Fatal(err)
			}
			k, err = tb.RecvRaw(raw)
			if err != nil {
				t.Fatal(err)
			}
			if frame, ok := bytes.CutPrefix(raw[:k], magic); !ok || !bytes.Equal(frame, datagram) {
				t.Fatalf("seed %d msg %d: the custom transport sends %d bytes under %q, the datagram is %d under %q",
					seed, m, k, raw[len(magic)], len(datagram), datagram[0])
			}
			tags[datagram[0]]++
			verbs[verb]++
		}
	}
	for _, row := range wire.Tiers[:wire.TierGroups+1] {
		if tags[row.Tag] < 20 {
			t.Errorf("%d messages travelled on the %s tier", tags[row.Tag], row.Name)
		}
	}
	if len(verbs) != 3 {
		t.Errorf("verbs exercised: %v", verbs)
	}
}

// rawFrame is one parsed frame of a sniffed wire capture.
type rawFrame struct {
	tag byte
	n   int // body length as declared by the header
}

// readAllRaw drains the raw wire bytes from c until EOF.
func readAllRaw(t *testing.T, c *netsim.Conn) []byte {
	t.Helper()
	var all []byte
	buf := make([]byte, 4096)
	for {
		n, err := jni.SocketRead0(c, buf)
		all = append(all, buf[:n]...)
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatalf("raw read: %v", err)
		}
	}
}

// parseFrames splits a framed capture into frames, checking the magic.
func parseFrames(t *testing.T, raw, magic []byte) []rawFrame {
	t.Helper()
	if len(raw) < len(magic) || !bytes.Equal(raw[:len(magic)], magic) {
		t.Fatalf("stream opens %q, want magic %q", raw[:min(len(raw), len(magic))], magic)
	}
	raw = raw[len(magic):]
	var frames []rawFrame
	for len(raw) > 0 {
		if len(raw) < wire.FrameHeaderLen {
			t.Fatalf("truncated frame header (%d bytes left)", len(raw))
		}
		f := rawFrame{tag: raw[0], n: int(binary.BigEndian.Uint32(raw[1:wire.FrameHeaderLen]))}
		if len(raw) < wire.FrameHeaderLen+f.n {
			t.Fatalf("frame %q declares %d body bytes, capture has %d", f.tag, f.n, len(raw)-wire.FrameHeaderLen)
		}
		frames = append(frames, f)
		raw = raw[wire.FrameHeaderLen+f.n:]
	}
	return frames
}

// payloadFrames returns the frames of a capture without its definitions
// units, which must be exactly the units at the given positions: one at
// a taint's first crossing, under its stream-scoped id, one at the send
// that crosses it again, under the Global ID it is registered under then,
// none after.
func payloadFrames(t *testing.T, units []rawFrame, at ...int) []rawFrame {
	t.Helper()
	var frames []rawFrame
	for i, u := range units {
		if defines := u.tag == wire.FrameDefinitions; defines != slices.Contains(at, i) {
			t.Fatalf("unit %d of the capture is %q; definitions are due at %v only", i, u.tag, at)
		} else if !defines {
			frames = append(frames, u)
		}
	}
	return frames
}

// TestAdaptiveWireTags sniffs the raw stream of a sender through phases
// of uniform, sparse, dense and clean writes and checks the magic and the
// tier of every frame: each is its own buffer's, from the first write of
// a phase to the last, whatever the phase before it was.
func TestAdaptiveWireTags(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender := NewAdaptiveEndpoint(r.a, ca)

	const n = 256
	tu := r.a.Source("s", "uni")
	uniform := taint.MakeBytes(n)
	uniform.SetRange(0, n, tu)

	sparse := taint.MakeBytes(n)
	sparse.SetRange(8, 16, tu)
	sparse.SetRange(64, 72, tu)

	dense := taint.MakeBytes(n)
	for i := 0; i < n; i += 2 {
		dense.SetLabel(i, tu)
	}

	done := make(chan []byte, 1)
	go func() { done <- readAllRaw(t, cb) }()

	const each = 3
	phases := []struct {
		msg  taint.Bytes
		want rawFrame
	}{
		{dense, rawFrame{wire.FrameGroups, wire.WireLen(n)}},
		{uniform, rawFrame{wire.FrameUniform, wire.GlobalIDLen + n}},
		{sparse, rawFrame{wire.FrameSparse, wire.SparseCountLen + 2*wire.SparseRangeLen + n}},
		{dense, rawFrame{wire.FrameGroups, wire.WireLen(n)}},
		{taint.MakeBytes(n), rawFrame{wire.FramePassthrough, n}},
		{uniform, rawFrame{wire.FrameUniform, wire.GlobalIDLen + n}},
	}
	for _, p := range phases {
		for i := 0; i < each; i++ {
			if err := sender.Write(p.msg); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	}
	ca.Close()

	// The one taint of the test is defined ahead of the first frame, and
	// again ahead of the second, which registers it.
	frames := payloadFrames(t, parseFrames(t, <-done, wire.AppendAdaptiveStreamMagic(nil)), 0, 2)
	if len(frames) != each*len(phases) {
		t.Fatalf("got %d frames, want %d", len(frames), each*len(phases))
	}
	for i, f := range frames {
		if want := phases[i/each].want; f != want {
			t.Fatalf("write %d of phase %d travels as {%q %d}, want {%q %d}", i%each, i/each, f.tag, f.n, want.tag, want.n)
		}
	}
}

// TestAdaptiveEndToEndMixed drives one adaptive connection through
// clean, uniform, sparse and dense phases and verifies every delivered
// byte carries exactly the label it was sent with.
func TestAdaptiveEndToEndMixed(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender, receiver := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(r.b, cb)

	const msgLen = 64
	const rounds = 48
	tags := map[byte]string{'U': "uni", 'S': "spr", 'D': "dns"}
	srcs := map[byte]taint.Taint{}
	for k, tag := range tags {
		srcs[k] = r.a.Source("s"+tag, tag)
	}

	// wantTag[i] is the label tag byte i of the whole stream must carry
	// ("" = must be clean).
	var wantTag []string
	mkMsg := func(kind byte) taint.Bytes {
		b := taint.MakeBytes(msgLen)
		for i := range b.Data {
			b.Data[i] = kind
		}
		switch kind {
		case 'C':
			for i := 0; i < msgLen; i++ {
				wantTag = append(wantTag, "")
			}
		case 'U':
			b.SetRange(0, msgLen, srcs[kind])
			for i := 0; i < msgLen; i++ {
				wantTag = append(wantTag, tags[kind])
			}
		case 'S':
			b.SetRange(4, 12, srcs[kind])
			b.SetRange(40, 44, srcs[kind])
			for i := 0; i < msgLen; i++ {
				if (i >= 4 && i < 12) || (i >= 40 && i < 44) {
					wantTag = append(wantTag, tags[kind])
				} else {
					wantTag = append(wantTag, "")
				}
			}
		case 'D':
			for i := 0; i < msgLen; i += 2 {
				b.SetLabel(i, srcs[kind])
			}
			for i := 0; i < msgLen; i++ {
				if i%2 == 0 {
					wantTag = append(wantTag, tags[kind])
				} else {
					wantTag = append(wantTag, "")
				}
			}
		}
		return b
	}

	recvErr := make(chan error, 1)
	got := taint.MakeBytes(rounds * msgLen)
	go func() {
		recvErr <- func() error {
			for pos := 0; pos < rounds*msgLen; {
				sub := got.Slice(pos, rounds*msgLen)
				n, err := receiver.Read(&sub)
				if err != nil {
					return fmt.Errorf("read at %d: %w", pos, err)
				}
				pos += n
			}
			return nil
		}()
	}()

	// Phased schedule so every tier gets a steady state, with kind
	// changes inside each phase to cross tier boundaries mid-stream.
	kinds := []byte{}
	for _, phase := range []byte{'U', 'S', 'C', 'D'} {
		for i := 0; i < rounds/4; i++ {
			kinds = append(kinds, phase)
		}
	}
	for _, kind := range kinds {
		if err := sender.Write(mkMsg(kind)); err != nil {
			t.Fatalf("write %q: %v", kind, err)
		}
	}
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}

	for i, want := range wantTag {
		lbl := got.LabelAt(i)
		if want == "" {
			if !lbl.Empty() {
				t.Fatalf("byte %d (%q) grew taint %v", i, got.Data[i], lbl.Values())
			}
			continue
		}
		if !lbl.Has(want) {
			t.Fatalf("byte %d (%q) lost label %q (has %v)", i, got.Data[i], want, lbl.Values())
		}
	}
}

// TestAdaptiveReceivesFromOlderPeers: what an endpoint does with the
// stream of a peer of an earlier format — "DTF1"-framed or a headerless
// group stream. It used to sniff and decode them; there is one dialect
// now, so every read fails with the decoder's sticky wrong-opening error
// and never delivers a byte or a label.
func TestAdaptiveReceivesFromOlderPeers(t *testing.T) {
	groups := wire.EncodeGroups(nil, []byte("old"), []uint32{1, 1, 1})
	for name, stream := range map[string][]byte{
		"framed": append(wire.AppendFrameHeader([]byte("DTF1"), wire.FrameGroups, len(groups)), groups...),
		"legacy": groups,
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, tracker.ModeDista)
			ca, cb := r.net.Pipe()
			if err := jni.SocketWrite0(ca, stream); err != nil {
				t.Fatal(err)
			}
			receiver := NewAdaptiveEndpoint(r.b, cb)
			stale := r.b.Source("s", "stale")
			buf := taint.FromString("......", stale)
			for i := 0; i < 2; i++ {
				n, err := receiver.Read(&buf)
				if n != 0 || err == nil || !strings.Contains(err.Error(), "magic") {
					t.Fatalf("read %d = %d, %v; want the wrong-opening error", i, n, err)
				}
			}
			if string(buf.Data) != "......" || buf.LabelAt(0) != stale {
				t.Fatalf("a refused stream touched the caller's buffer: %q %v", buf.Data, buf.LabelAt(0))
			}
		})
	}
}

// TestWriteUniformDelivers checks the WriteUniform fast-path API: the
// label rides a uniform frame on a fresh stream and, just the same, on
// one that has carried nothing but a label change per byte — a dense
// history holds no later record to the groups tier — and an empty taint
// degrades to the passthrough path.
func TestWriteUniformDelivers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history int // alternating-label writes before the records
	}{
		{"uniform_frame", 0},
		{"after_dense_history", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tracker.ModeDista)
			ca, cb := r.net.Pipe()
			sender := NewAdaptiveEndpoint(r.a, ca)
			tt := r.a.Source("s", "rec")
			dense := taint.MakeBytes(64)
			for i := range dense.Data {
				dense.SetLabel(i, [2]taint.Taint{tt, r.a.Source("s", "other")}[i&1])
			}
			for i := 0; i < tc.history; i++ {
				if err := sender.Write(dense); err != nil {
					t.Fatal(err)
				}
			}
			const rounds = 4
			payload := []byte("record-payload")
			for i := 0; i < rounds; i++ {
				if err := sender.WriteUniform(payload, tt); err != nil {
					t.Fatal(err)
				}
			}
			if err := sender.WriteUniform([]byte("trailer"), taint.Taint{}); err != nil {
				t.Fatal(err)
			}
			ca.Close()
			raw := readAllRaw(t, cb)
			// Whichever write comes first defines every taint it carries,
			// and the second, which registers them, again.
			frames := payloadFrames(t, parseFrames(t, raw, wire.AppendAdaptiveStreamMagic(nil)), 0, 2)
			if len(frames) != tc.history+rounds+1 {
				t.Fatalf("%d frames on the wire, want %d", len(frames), tc.history+rounds+1)
			}
			for i, f := range frames[tc.history:] {
				if want := [2]byte{wire.FrameUniform, wire.FramePassthrough}[i/rounds]; f.tag != want {
					t.Fatalf("frame %d after the history travels as %q, want %q", i, f.tag, want)
				}
			}

			skip := tc.history * len(dense.Data)
			total := rounds*len(payload) + len("trailer")
			got := taint.MakeBytes(skip + total)
			in := WrapCustom(r.b, &chunkTransport{stream: raw, rng: rand.New(rand.NewSource(1)), max: 64})
			for pos := 0; pos < len(got.Data); {
				sub := got.Slice(pos, len(got.Data))
				n, err := in.Read(&sub)
				if err != nil {
					t.Fatal(err)
				}
				pos += n
			}
			got = got.Slice(skip, skip+total)
			for i := 0; i < rounds*len(payload); i++ {
				if !got.LabelAt(i).Has("rec") {
					t.Fatalf("byte %d lost the record label", i)
				}
			}
			for i := rounds * len(payload); i < total; i++ {
				if !got.LabelAt(i).Empty() {
					t.Fatalf("trailer byte %d grew taint", i)
				}
			}
		})
	}
}

// TestWritevAdaptiveUniformCoalescing sniffs a gathering write, the first
// thing its connection sends: adjacent same-label sources must share one
// uniform frame, split by the clean stretch between them.
func TestWritevAdaptiveUniformCoalescing(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender := NewAdaptiveEndpoint(r.a, ca)

	done := make(chan []byte, 1)
	go func() { done <- readAllRaw(t, cb) }()

	tt := r.a.Source("s", "vec")
	mk := func(n int, lbl taint.Taint) *jni.DirectBuffer {
		b := jni.NewDirectBuffer(n)
		if !lbl.Empty() {
			b.B.SetRange(0, n, lbl)
		}
		return b
	}
	srcs := []*jni.DirectBuffer{mk(10, tt), mk(20, tt), mk(30, taint.Taint{}), mk(40, tt)}
	lens := []int{10, 20, 30, 40}
	n, err := sender.WritevBuffers(srcs, lens)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("writev consumed %d, want 100", n)
	}
	ca.Close()

	// The definitions of the one taint lead the vector.
	frames := payloadFrames(t, parseFrames(t, <-done, wire.AppendAdaptiveStreamMagic(nil)), 0)
	want := []rawFrame{
		{wire.FrameUniform, wire.GlobalIDLen + 30}, // sources 0+1 coalesced
		{wire.FramePassthrough, 30},
		{wire.FrameUniform, wire.GlobalIDLen + 40},
	}
	if !slices.Equal(frames, want) {
		t.Fatalf("writev frames = %v, want %v", frames, want)
	}
}

// TestWritevAdaptiveLabelsDeliver verifies the coalesced vectored write
// end to end: every byte lands with its source's label.
func TestWritevAdaptiveLabelsDeliver(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender, receiver := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(r.b, cb)

	tt := r.a.Source("s", "gather")
	mk := func(fillByte byte, n int, lbl taint.Taint) *jni.DirectBuffer {
		b := jni.NewDirectBuffer(n)
		for i := range b.Data {
			b.Data[i] = fillByte
		}
		if !lbl.Empty() {
			b.B.SetRange(0, n, lbl)
		}
		return b
	}
	srcs := []*jni.DirectBuffer{
		mk('a', 8, tt), mk('b', 8, tt), mk('c', 8, taint.Taint{}), mk('d', 8, tt),
	}
	lens := []int{8, 8, 8, 8}
	if _, err := sender.WritevBuffers(srcs, lens); err != nil {
		t.Fatal(err)
	}
	got := taint.MakeBytes(32)
	for pos := 0; pos < 32; {
		sub := got.Slice(pos, 32)
		n, err := receiver.Read(&sub)
		if err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	for i := 0; i < 32; i++ {
		wantClean := i >= 16 && i < 24
		if wantClean != got.LabelAt(i).Empty() || (!wantClean && !got.LabelAt(i).Has("gather")) {
			t.Fatalf("byte %d (%q): labels %v", i, got.Data[i], got.LabelAt(i).Values())
		}
	}
}

// TestPacketSendAdaptiveForms drives every per-datagram tier through
// the UDP wrappers and checks the received labels and wire sizes, into a
// buffer that fits the payload and into one UDP truncates it to.
func TestPacketSendAdaptiveForms(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	tt := r.a.Source("s", "pkt")
	const n = 64

	check := func(name string, payload taint.Bytes, wantDirty func(int) bool, tag byte, wantWire int) {
		t.Helper()
		for _, room := range []int{n, n / 2, 8} {
			if err := PacketSend(r.a, sa, payload, "b:1"); err != nil {
				t.Fatalf("%s: send: %v", name, err)
			}
			raw := make([]byte, wire.GroupsFrameLen(n))
			rn, _, err := jni.DatagramPeekData(sb, raw)
			if err != nil {
				t.Fatalf("%s: peek raw: %v", name, err)
			}
			if rn != wantWire || raw[0] != tag {
				t.Fatalf("%s: datagram is %d wire bytes under tag %q, want %d under %q", name, rn, raw[0], wantWire, tag)
			}
			stale := r.b.Source("s", "stale")
			buf := taint.MakeBytes(room)
			buf.SetRange(0, room, stale)
			got, _, err := PacketReceive(r.b, sb, &buf)
			if err != nil || got != room {
				t.Fatalf("%s into %d bytes: receive = %d, %v", name, room, got, err)
			}
			if !bytes.Equal(buf.Data, payload.Data[:room]) {
				t.Fatalf("%s into %d bytes: data = %q", name, room, buf.Data)
			}
			for i := 0; i < room; i++ {
				if lbl := buf.LabelAt(i); wantDirty(i) != lbl.Has("pkt") || lbl.Has("stale") {
					t.Fatalf("%s into %d bytes: byte %d carries %v, want dirty=%v", name, room, i, lbl.Values(), wantDirty(i))
				}
			}
		}
	}
	fillData := func(b taint.Bytes) taint.Bytes {
		for i := range b.Data {
			b.Data[i] = byte('A' + i%26)
		}
		return b
	}

	uniform := fillData(taint.MakeBytes(n))
	uniform.SetRange(0, n, tt)
	check("uniform", uniform, func(int) bool { return true },
		wire.FrameUniform, wire.FrameHeaderLen+wire.GlobalIDLen+n)

	sparse := fillData(taint.MakeBytes(n))
	sparse.SetRange(8, 16, tt)
	sparse.SetRange(32, 36, tt)
	check("sparse", sparse, func(i int) bool { return (i >= 8 && i < 16) || (i >= 32 && i < 36) },
		wire.FrameSparse, wire.FrameHeaderLen+wire.SparseCountLen+2*wire.SparseRangeLen+n)

	dense := fillData(taint.MakeBytes(n))
	for i := 0; i < n; i += 2 {
		dense.SetLabel(i, tt)
	}
	check("dense", dense, func(i int) bool { return i%2 == 0 },
		wire.FrameGroups, wire.GroupsFrameLen(n))

	check("clean", fillData(taint.MakeBytes(n)), func(int) bool { return false },
		wire.FramePassthrough, wire.FrameHeaderLen+n)

	// A buffer so short that UDP cuts the datagram inside its label
	// metadata gets nothing: the range table must arrive whole.
	if err := PacketSend(r.a, sa, sparse, "b:1"); err != nil {
		t.Fatal(err)
	}
	tiny := taint.MakeBytes(3)
	if got, _, err := PacketReceive(r.b, sb, &tiny); got != 0 || !errors.Is(err, wire.ErrTruncatedPacket) {
		t.Fatalf("sparse into 3 bytes: receive = %d, %v; want ErrTruncatedPacket", got, err)
	}
}

// TestDatagramFitsReceiveBuffer pins what makes receiveInto's enlarged
// buffer right for every tier: for every label shape, the datagram
// PacketSend emits for n payload bytes is at most FrameHeaderLen +
// WireLen(n) long, so a receiver with room for the payload always gets
// the whole frame, metadata included. The first case is the regression:
// 20 bytes tainted on every other byte (10 dirty runs) went out as a
// 150-byte sparse datagram where groups take 105, and the receiver's
// 105-byte buffer cut the range table.
func TestDatagramFitsReceiveBuffer(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	pool := []taint.Taint{{}}
	for i := 0; i < 4; i++ {
		pool = append(pool, r.a.Source("s", fmt.Sprintf("dg%d", i)))
	}
	comb := taint.MakeBytes(20)
	for i := 0; i < 20; i += 2 {
		comb.SetLabel(i, pool[1])
	}
	msgs := []taint.Bytes{comb}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		msgs = append(msgs, randomLayout(rng, pool))
	}
	for mi, msg := range msgs {
		n := len(msg.Data)
		if err := PacketSend(r.a, sa, msg, "b:1"); err != nil {
			t.Fatalf("msg %d: send: %v", mi, err)
		}
		raw := make([]byte, 2*wire.GroupsFrameLen(n))
		rn, _, err := jni.DatagramPeekData(sb, raw)
		if err != nil {
			t.Fatal(err)
		}
		if rn > wire.GroupsFrameLen(n) {
			t.Fatalf("msg %d: %d payload bytes (%d runs) travel as %d wire bytes under tag %q, past the %d a receiver makes room for",
				mi, n, msg.RunCount(), rn, raw[0], wire.GroupsFrameLen(n))
		}
		buf := taint.MakeBytes(n)
		got, _, err := PacketReceive(r.b, sb, &buf)
		if err != nil || got != n || !bytes.Equal(buf.Data, msg.Data) {
			t.Fatalf("msg %d (tag %q): receive = %d, %v", mi, raw[0], got, err)
		}
		for i := 0; i < n; i++ {
			if want, have := msg.LabelAt(i), buf.LabelAt(i); want.Empty() != have.Empty() || !sameKeys(want, have) {
				t.Fatalf("msg %d (tag %q) byte %d: label %v, sent %v", mi, raw[0], i, have.Values(), want.Values())
			}
		}
	}
}

// sameKeys compares labels across nodes by their tag values.
func sameKeys(a, b taint.Taint) bool {
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return false
	}
	for _, v := range av {
		if !b.Has(v) {
			return false
		}
	}
	return true
}

// TestRefusalsOnEveryTier: a send whose labels cannot be given Global
// IDs is refused on every tier, with nothing written to the connection:
// without a Taint Map client at all, through every envelope (stream,
// direct buffer, gathering write, custom transport, datagram); with a
// degraded one, as a datagram, which has no room to define its taints
// inline as a stream does.
func TestRefusalsOnEveryTier(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	bare := tracker.New("n", tracker.ModeDista)
	degraded, closeDegraded := degradedAgent(t)
	defer closeDegraded()
	for name, tc := range map[string]struct {
		agent *tracker.Agent
		want  error
		only  string // the one verb refused; "" is every verb
	}{
		"nil Taint Map":      {bare, ErrNoTaintMap, ""},
		"degraded Taint Map": {degraded, taintmap.ErrDegraded, "PacketSend"},
	} {
		a := tc.agent
		x, y := a.Source("s", "x"), a.Source("s", "y")
		const n = 64
		payloads := map[int]taint.Bytes{}
		uniform := taint.MakeBytes(n)
		uniform.SetRange(0, n, x)
		payloads[wire.TierUniform] = uniform
		sparse := taint.MakeBytes(n)
		sparse.SetRange(8, 12, x)
		sparse.SetRange(40, 44, y)
		payloads[wire.TierSparse] = sparse
		dense := taint.MakeBytes(n)
		for i := range dense.Data {
			dense.SetLabel(i, [2]taint.Taint{x, y}[i&1])
		}
		payloads[wire.TierGroups] = dense
		for tier, msg := range payloads {
			if got, _ := pickTier(msg); got != tier {
				t.Fatalf("payload meant for tier %d picks %d", tier, got)
			}
			direct := &jni.DirectBuffer{Data: msg.Data, B: msg}
			ta, _ := newChanPair()
			sock, _ := r.net.ListenPacket(fmt.Sprintf("%s/%d:1", name, tier))
			peer, _ := r.net.ListenPacket(fmt.Sprintf("%s/%d:2", name, tier))
			ca, cb := r.net.Pipe()
			sends := map[string]func() error{
				"Write":       func() error { return NewAdaptiveEndpoint(a, ca).Write(msg) },
				"WriteBuffer": func() error { _, err := NewAdaptiveEndpoint(a, ca).WriteBuffer(direct, 0, n); return err },
				"WritevBuffers": func() error {
					_, err := NewAdaptiveEndpoint(a, ca).WritevBuffers([]*jni.DirectBuffer{direct}, []int{n})
					return err
				},
				"CustomEndpoint.Write": func() error { return WrapCustom(a, ta).Write(msg) },
				"PacketSend":           func() error { return PacketSend(a, sock, msg, peer.Addr()) },
			}
			for via, send := range sends {
				if tc.only != "" && via != tc.only {
					continue
				}
				if err := send(); !errors.Is(err, tc.want) {
					t.Fatalf("%s: %s of a %s payload = %v, want %v", name, via, wire.Tiers[tier].Name, err, tc.want)
				}
			}
			if _, wireBytes := a.Traffic(); wireBytes != 0 || cb.Buffered() != 0 || len(ta.out) != 0 || peer.Pending() != 0 {
				t.Fatalf("%s: refused %s sends put %d bytes on the wire (%d buffered on the connection)",
					name, wire.Tiers[tier].Name, wireBytes, cb.Buffered())
			}
		}
	}
}

// TestTableRowReachesEndpoints adds a throwaway row to wire.Tiers — 'B',
// the uniform row under another tag, ahead of it in the table — and
// shows the senders and the receivers pick it up with no other edit: a
// uniform stream write, a datagram and a gathering write all emit 'B'
// frames, and every byte arrives under its label.
func TestTableRowReachesEndpoints(t *testing.T) {
	table := wire.Tiers
	defer func() { wire.Tiers = table }()
	blanket := table[wire.TierUniform]
	blanket.Tag, blanket.Name = 'B', "blanket"
	wire.Tiers = append(append(append([]wire.Tier(nil), table[:wire.TierUniform]...), blanket), table[wire.TierUniform:]...)

	r := newRig(t, tracker.ModeDista)
	tt := r.a.Source("s", "row")
	const n = 48
	msg := taint.MakeBytes(n)
	msg.SetRange(0, n, tt)
	labelled := func(via string, got taint.Bytes) {
		t.Helper()
		for i := range got.Data {
			if !got.LabelAt(i).Has("row") {
				t.Fatalf("%s: byte %d arrived under %v", via, i, got.LabelAt(i).Values())
			}
		}
	}

	// Stream and gathering write: capture the wire, then decode it.
	ca, cb := r.net.Pipe()
	sender := NewAdaptiveEndpoint(r.a, ca)
	const writes = 2
	for i := 0; i < writes; i++ {
		if err := sender.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	direct := &jni.DirectBuffer{Data: msg.Data, B: msg}
	if _, err := sender.WritevBuffers([]*jni.DirectBuffer{direct, direct}, []int{n, n}); err != nil {
		t.Fatal(err)
	}
	ca.Close()
	raw := readAllRaw(t, cb)
	frames := payloadFrames(t, parseFrames(t, raw, wire.AppendAdaptiveStreamMagic(nil)), 0, 2)
	if last := frames[len(frames)-1]; last.tag != 'B' || last.n != wire.GlobalIDLen+2*n {
		t.Fatalf("gathering write left as {%q %d}, want one 'B' frame for both sources", last.tag, last.n)
	}
	for i, f := range frames[:writes] {
		if f.tag != 'B' {
			t.Fatalf("uniform stream write %d travels as %q", i, f.tag)
		}
	}
	got := taint.MakeBytes((writes + 2) * n)
	in := WrapCustom(r.b, &chunkTransport{stream: raw, rng: rand.New(rand.NewSource(5)), max: 100})
	for pos := 0; pos < len(got.Data); {
		sub := got.Slice(pos, len(got.Data))
		k, err := in.Read(&sub)
		if err != nil {
			t.Fatal(err)
		}
		pos += k
	}
	labelled("stream", got)

	// Datagram.
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	if err := PacketSend(r.a, sa, msg, "b:1"); err != nil {
		t.Fatal(err)
	}
	peek := make([]byte, wire.GroupsFrameLen(n))
	if _, _, err := jni.DatagramPeekData(sb, peek); err != nil || peek[0] != 'B' {
		t.Fatalf("datagram opens with %q (%v)", peek[0], err)
	}
	buf := taint.MakeBytes(n)
	if k, _, err := PacketReceive(r.b, sb, &buf); err != nil || k != n {
		t.Fatalf("receive = %d, %v", k, err)
	}
	labelled("datagram", buf)
}
