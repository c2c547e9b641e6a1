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

// uniformShape is the shape of an n-byte wholly single-labelled buffer.
func uniformShape(n int) wire.Shape {
	return wire.Shape{N: n, DirtyBytes: n, DirtyRuns: 1, Exact: true}
}

func TestDensityTrackerConvergesUniform(t *testing.T) {
	var d densityTracker
	if d.tier != tierPassthrough {
		t.Fatalf("fresh tracker tier = %d, want passthrough", d.tier)
	}
	converged := -1
	for i := 0; i < 64; i++ {
		if d.observe(uniformShape(1024)) == tierUniform {
			converged = i
			break
		}
	}
	if converged < 0 {
		t.Fatalf("64 uniform writes never reached the uniform tier (tier %d)", d.tier)
	}
	// Once there, uniform buffers ride the uniform tier.
	if got := wire.PickTier(uniformShape(1024), d.tier); got != tierUniform {
		t.Fatalf("frame tier = %d, want uniform", got)
	}
	t.Logf("uniform tier reached after %d writes", converged+1)
}

func TestDensityTrackerConvergesSparseAndClean(t *testing.T) {
	var d densityTracker
	// Two islands totalling 1/8 of 64 KiB: inside the sparse bands.
	s := wire.Shape{N: 64 << 10, DirtyBytes: 8 << 10, DirtyRuns: 2, Exact: true}
	for i := 0; i < 16; i++ {
		d.observe(s)
	}
	if d.tier != tierSparse {
		t.Fatalf("sparse workload settled on tier %d, want sparse", d.tier)
	}
	if got := wire.PickTier(s, d.tier); got != tierSparse {
		t.Fatalf("frame tier = %d, want sparse", got)
	}
	// A fragmented burst densifies immediately...
	if d.observe(wire.Shape{N: 64 << 10, DirtyBytes: 32 << 10, DirtyRuns: 33}) != tierGroups {
		t.Fatalf("fragmented burst left tier %d, want immediate groups", d.tier)
	}
	// ...and the way back down must wait out the dwell even once the
	// EWMAs have recovered.
	drop := -1
	for i := 0; i < 64; i++ {
		if d.observe(s) == tierSparse {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatalf("64 sparse writes never returned to the sparse tier (tier %d)", d.tier)
	}
	if drop+1 < tierMinDwell {
		t.Fatalf("tier dropped after %d writes, inside the %d-write dwell", drop+1, tierMinDwell)
	}
	// Clean writes never disturb the tainted-traffic classification.
	for i := 0; i < 64; i++ {
		d.observe(wire.Shape{N: 64 << 10, Exact: true})
	}
	if d.tier != tierSparse {
		t.Fatalf("clean phase moved the tier to %d", d.tier)
	}
}

// TestDensityTrackerFlappingHoldsGroups is the hysteresis check: an
// adversary alternating uniform and fragmented writes must not move the
// stream's tier per write.
func TestDensityTrackerFlappingHoldsGroups(t *testing.T) {
	var d densityTracker
	uni := uniformShape(4096)
	dense := wire.Shape{N: 4096, DirtyBytes: 4096, DirtyRuns: 32, Exact: true}
	for i := 0; i < 16; i++ { // warm up the adversary
		d.observe([2]wire.Shape{uni, dense}[i%2])
	}
	for i := 0; i < 64; i++ {
		if d.observe([2]wire.Shape{uni, dense}[i%2]) != tierGroups {
			t.Fatalf("alternating workload flapped to tier %d at write %d", d.tier, i)
		}
		// Even the uniform halves must ride the groups floor: per-frame
		// downgrades are exactly what the tracker exists to prevent.
		if got := wire.PickTier(uni, d.tier); got != tierGroups {
			t.Fatalf("uniform write under groups floor got tier %d", got)
		}
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
// a taint's first crossing, none after.
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

// TestAdaptiveWireTags sniffs the raw stream of an adaptive sender and
// checks the negotiated magic and the tier each phase settles on.
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

	var idx []int // frame index where each phase starts
	done := make(chan []byte, 1)
	go func() { done <- readAllRaw(t, cb) }()

	writeN := func(b taint.Bytes, k int) {
		for i := 0; i < k; i++ {
			if err := sender.Write(b); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	}
	writeN(uniform, 24)
	idx = append(idx, 24)
	writeN(sparse, 24)
	idx = append(idx, 48)
	writeN(dense, 8)
	idx = append(idx, 56)
	// Clean after a dense history must still be passthrough.
	writeN(taint.MakeBytes(n), 4)
	ca.Close()

	// The one taint of the test is defined ahead of the frame that
	// registers it, the first.
	frames := payloadFrames(t, parseFrames(t, <-done, wire.AppendAdaptiveStreamMagic(nil)), 0)
	if len(frames) != 60 {
		t.Fatalf("got %d frames, want 60", len(frames))
	}
	// Each phase must converge: its last frame carries the phase's tier.
	if got := frames[idx[0]-1].tag; got != wire.FrameUniform {
		t.Fatalf("uniform phase ended on tag %q, want %q", got, wire.FrameUniform)
	}
	if got := frames[idx[1]-1].tag; got != wire.FrameSparse {
		t.Fatalf("sparse phase ended on tag %q, want %q", got, wire.FrameSparse)
	}
	if got := frames[idx[2]-1].tag; got != wire.FrameGroups {
		t.Fatalf("dense phase ended on tag %q, want %q", got, wire.FrameGroups)
	}
	for i := idx[2]; i < len(frames); i++ {
		if frames[i].tag != wire.FramePassthrough {
			t.Fatalf("clean write %d carried tag %q, want passthrough", i, frames[i].tag)
		}
	}
	// Sanity on declared lengths: a uniform body is id+data, sparse
	// carries its table, passthrough is bare.
	if frames[idx[0]-1].n != wire.GlobalIDLen+n {
		t.Fatalf("uniform body = %d, want %d", frames[idx[0]-1].n, wire.GlobalIDLen+n)
	}
	if frames[idx[1]-1].n != wire.SparseCountLen+2*wire.SparseRangeLen+n {
		t.Fatalf("sparse body = %d, want %d", frames[idx[1]-1].n, wire.SparseCountLen+2*wire.SparseRangeLen+n)
	}
	if frames[len(frames)-1].n != n {
		t.Fatalf("passthrough body = %d, want %d", frames[len(frames)-1].n, n)
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

// TestWriteUniformDelivers checks the WriteUniform fast-path API on both
// frames it can leave in: the uniform frame of a stream settled there,
// and the groups frame a dense history holds the stream to. The label
// rides either, and an empty taint degrades to the passthrough path.
func TestWriteUniformDelivers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history int // alternating-label writes before the records
		rounds  int // records; the last travels under want
		want    byte
	}{
		{"uniform_frame", 0, 24, wire.FrameUniform}, // enough for the stream to settle on 'U'
		{"groups_fallback", 4, 4, wire.FrameGroups}, // inside the dwell a dense history imposes
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
			rounds := tc.rounds
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
			// Whichever write comes first registers every taint it carries.
			frames := payloadFrames(t, parseFrames(t, raw, wire.AppendAdaptiveStreamMagic(nil)), 0)
			if len(frames) != tc.history+rounds+1 {
				t.Fatalf("%d frames on the wire, want %d", len(frames), tc.history+rounds+1)
			}
			if last, trailer := frames[len(frames)-2].tag, frames[len(frames)-1].tag; last != tc.want || trailer != wire.FramePassthrough {
				t.Fatalf("last record travels as %q and the trailer as %q, want %q and passthrough", last, trailer, tc.want)
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

// TestWritevAdaptiveUniformCoalescing sniffs a gathering write on a
// warmed-up adaptive connection: adjacent same-label sources must share
// one uniform frame, split by the clean stretch between them.
func TestWritevAdaptiveUniformCoalescing(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender := NewAdaptiveEndpoint(r.a, ca)

	done := make(chan []byte, 1)
	go func() { done <- readAllRaw(t, cb) }()

	tt := r.a.Source("s", "vec")
	warm := taint.MakeBytes(256)
	warm.SetRange(0, 256, tt)
	const warmups = 24
	for i := 0; i < warmups; i++ {
		if err := sender.Write(warm); err != nil {
			t.Fatal(err)
		}
	}

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

	frames := parseFrames(t, <-done, wire.AppendAdaptiveStreamMagic(nil))
	tail := frames[len(frames)-3:]
	want := []rawFrame{
		{wire.FrameUniform, wire.GlobalIDLen + 30}, // sources 0+1 coalesced
		{wire.FramePassthrough, 30},
		{wire.FrameUniform, wire.GlobalIDLen + 40},
	}
	for i, w := range want {
		if tail[i] != w {
			t.Fatalf("writev frame %d = {%q %d}, want {%q %d}", i, tail[i].tag, tail[i].n, w.tag, w.n)
		}
	}
	for i, f := range frames[:len(frames)-3] {
		if i >= warmups/2 && f.tag != wire.FrameUniform {
			t.Fatalf("warmup frame %d still %q", i, f.tag)
		}
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
// IDs — no Taint Map client at all, or a degraded one handing out
// provisional ids — is refused on every tier and through every envelope
// (stream, direct buffer, gathering write, custom transport, datagram),
// with nothing written to the connection.
func TestRefusalsOnEveryTier(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	bare := tracker.New("n", tracker.ModeDista)
	degraded, closeDegraded := degradedAgent(t)
	defer closeDegraded()
	for name, tc := range map[string]struct {
		agent *tracker.Agent
		want  error
	}{
		"nil Taint Map":  {bare, ErrNoTaintMap},
		"provisional id": {degraded, taintmap.ErrGlobalIDPending},
	} {
		a := tc.agent
		x, y := a.Source("s", "x"), a.Source("s", "y")
		const n = 64
		payloads := map[int]taint.Bytes{}
		uniform := taint.MakeBytes(n)
		uniform.SetRange(0, n, x)
		payloads[tierUniform] = uniform
		sparse := taint.MakeBytes(n)
		sparse.SetRange(8, 12, x)
		sparse.SetRange(40, 44, y)
		payloads[tierSparse] = sparse
		dense := taint.MakeBytes(n)
		for i := range dense.Data {
			dense.SetLabel(i, [2]taint.Taint{x, y}[i&1])
		}
		payloads[tierGroups] = dense
		for tier, msg := range payloads {
			if got, _ := pickTier(nil, msg); got != tier {
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
// settled uniform stream, a datagram and a gathering write all emit 'B'
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
	const writes = 24
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
	frames := parseFrames(t, raw, wire.AppendAdaptiveStreamMagic(nil))
	if last := frames[len(frames)-1]; last.tag != 'B' || last.n != wire.GlobalIDLen+2*n {
		t.Fatalf("gathering write left as {%q %d}, want one 'B' frame for both sources", last.tag, last.n)
	}
	if f := frames[writes-1]; f.tag != 'B' {
		t.Fatalf("settled uniform stream writes %q frames", f.tag)
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
