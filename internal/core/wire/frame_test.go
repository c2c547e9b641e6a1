package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// feedFragmented feeds raw to d in chunks of at most frag bytes,
// failing the test on a Feed error.
func feedFragmented(t *testing.T, d *FrameDecoder, raw []byte, frag int) {
	t.Helper()
	for off := 0; off < len(raw); {
		n := frag
		if off+n > len(raw) {
			n = len(raw) - off
		}
		if err := d.Feed(raw[off : off+n]); err != nil {
			t.Fatalf("Feed at offset %d: %v", off, err)
		}
		off += n
	}
}

// drainIDs pops everything buffered as per-byte ids.
func drainIDs(d *FrameDecoder) ([]byte, []uint32) {
	var data []byte
	var gotIDs []uint32
	for d.Buffered() > 0 {
		b, is := d.Next(d.Buffered())
		data = append(data, b...)
		gotIDs = append(gotIDs, is...)
	}
	return data, gotIDs
}

// TestFrameLens pins the framed sizes: a passthrough frame is its header
// plus the payload, a groups frame what GroupsFrameLen says, and a
// definitions unit of one taint a header, the id and blob length, and the
// blob — all a stream pays for a taint's blob, once, at its first
// crossing (§III-D-2 prices the blob beside every byte instead).
func TestFrameLens(t *testing.T) {
	data := []byte("some clean payload")
	if got := len(passthroughFrame(nil, data)); got != FrameHeaderLen+len(data) {
		t.Fatalf("passthrough frame = %d bytes, want header + payload = %d", got, FrameHeaderLen+len(data))
	}
	if got := len(AppendGroupsFrame(nil, data, nil)); got != GroupsFrameLen(len(data)) {
		t.Fatalf("groups frame = %d bytes, GroupsFrameLen says %d", got, GroupsFrameLen(len(data)))
	}
	blob := bytes.Repeat([]byte{0xa5}, 97)
	if got := len(AppendDefinitions(nil, []uint32{1}, [][]byte{blob})); got != FrameHeaderLen+DefinitionHeadLen+len(blob) {
		t.Fatalf("one definition of a %d-byte blob = %d bytes, want header + id + length + blob = %d",
			len(blob), got, FrameHeaderLen+DefinitionHeadLen+len(blob))
	}
}

// TestFrameMixedRoundTrip interleaves passthrough and groups frames on
// one stream at every fragmentation size and checks the decoded bytes
// and ids, with passthrough bodies surfacing as id-0 runs.
func TestFrameMixedRoundTrip(t *testing.T) {
	var raw []byte
	raw = AppendAdaptiveStreamMagic(raw)
	raw = passthroughFrame(raw, []byte("clean-one"))
	raw = AppendGroupsFrame(raw, []byte("taint"), []Run{{N: 5, ID: 7}})
	raw = passthroughFrame(raw, nil) // empty frame is legal
	raw = passthroughFrame(raw, []byte("clean-two"))
	raw = AppendGroupsFrame(raw, []byte("mix"), []Run{{N: 1, ID: 0}, {N: 2, ID: 9}})

	wantData := []byte("clean-one" + "taint" + "clean-two" + "mix")
	wantIDs := append(append(append(
		make([]uint32, 9), // clean-one
		7, 7, 7, 7, 7),    // taint
		make([]uint32, 9)...), // clean-two
		0, 9, 9) // mix

	for frag := 1; frag <= len(raw); frag++ {
		var d FrameDecoder
		feedFragmented(t, &d, raw, frag)
		if d.PendingPartial() {
			t.Fatalf("frag %d: whole stream left a partial", frag)
		}
		data, gotIDs := drainIDs(&d)
		if !bytes.Equal(data, wantData) {
			t.Fatalf("frag %d: data = %q, want %q", frag, data, wantData)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("frag %d: %d ids, want %d", frag, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("frag %d: id %d = %d, want %d", frag, i, gotIDs[i], wantIDs[i])
			}
		}
	}
}

// TestFrameNextRunsInto checks the allocation-free pop path, and that a
// passthrough body pops as a single untainted run.
func TestFrameNextRunsInto(t *testing.T) {
	var raw []byte
	raw = AppendAdaptiveStreamMagic(raw)
	raw = passthroughFrame(raw, []byte("hello"))
	var d FrameDecoder
	if err := d.Feed(raw); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 16)
	n, runs := d.NextRunsInto(dst)
	if n != 5 || string(dst[:5]) != "hello" {
		t.Fatalf("popped %d %q", n, dst[:n])
	}
	if len(runs) != 1 || runs[0].ID != 0 || runs[0].N != 5 {
		t.Fatalf("runs = %+v, want one untainted run of 5", runs)
	}
	if !RunsAllUntainted(runs) {
		t.Fatal("passthrough pop must be RunsAllUntainted")
	}
}

// TestWrongOpeningIsStickyError: a stream that does not open with the
// magic — the headerless group stream and the "DTF1" framing of earlier
// formats, a bare frame, a datagram's packet magic, anything else — is
// an error at its first wrong byte, under every fragmentation: sticky,
// never a panic, and never data.
func TestWrongOpeningIsStickyError(t *testing.T) {
	groups := func(text string) []byte {
		ids := make([]uint32, len(text))
		for i := range ids {
			ids[i] = uint32(i % 3)
		}
		return EncodeGroups(nil, []byte(text), ids)
	}
	cases := map[string][]byte{
		"headerless groups":          groups("plain old data"),
		"groups sharing one byte":    groups("DX-shares-one-magic-byte"),
		"groups sharing three bytes": append([]byte("DTF"), groups("X")...),
		"DTF1 passthrough":           passthroughFrame([]byte("DTF1"), []byte("abc")),
		"DTF1 uniform":               uniformFrame([]byte("DTF1"), []byte("abc"), 2),
		"bare frame":                 passthroughFrame(nil, []byte("no magic")),
		"packet magic":               []byte("DT\x00\x00\x00\x02a\x00\x00\x00\x01b\x00\x00\x00\x01"),
		"magic then garbage magic":   append(AppendAdaptiveStreamMagic(nil)[:3], '3', 'P', 0, 0, 0, 0),
	}
	for name, raw := range cases {
		bad := 0 // offset of the first byte that is not the magic's
		for raw[bad] == streamMagic[bad] {
			bad++
		}
		for frag := 1; frag <= len(raw); frag++ {
			var d FrameDecoder
			var first error
			for off := 0; off < len(raw); off += frag {
				err := d.Feed(raw[off:min(off+frag, len(raw))])
				if fed := min(off+frag, len(raw)); (err != nil) != (fed > bad) {
					t.Fatalf("%s frag %d: Feed through byte %d = %v, first wrong byte at %d", name, frag, fed, err, bad)
				}
				if first == nil {
					first = err
				} else if !errors.Is(err, first) {
					t.Fatalf("%s frag %d: error changed from %v to %v", name, frag, first, err)
				}
				if d.Buffered() != 0 {
					t.Fatalf("%s frag %d: %d bytes decoded from a stream without the magic", name, frag, d.Buffered())
				}
			}
			if first == nil || !strings.Contains(first.Error(), "magic") {
				t.Fatalf("%s frag %d: err = %v", name, frag, first)
			}
		}
	}
	// A lone "D" is still ambiguous: not an error, and a partial at EOF.
	var d FrameDecoder
	if err := d.Feed([]byte("D")); err != nil || !d.PendingPartial() {
		t.Fatalf("one magic byte: err %v, partial %v", err, d.PendingPartial())
	}
}

// TestFrameStickyErrors checks the three corruption classes are
// rejected and that the error sticks across further Feeds.
func TestFrameStickyErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"unknown tag", AppendFrameHeader(AppendAdaptiveStreamMagic(nil), 'Z', 10), "unknown frame tag"},
		{"oversized length", AppendFrameHeader(AppendAdaptiveStreamMagic(nil), FramePassthrough, MaxFrameLen+1), "exceeds limit"},
		{"ragged groups length", AppendFrameHeader(AppendAdaptiveStreamMagic(nil), FrameGroups, GroupLen+1), "whole number of groups"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d FrameDecoder
			err := d.Feed(tc.raw)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Feed = %v, want %q", err, tc.want)
			}
			if again := d.Feed([]byte("more")); !errors.Is(again, err) {
				t.Fatalf("error not sticky: %v then %v", err, again)
			}
		})
	}
}

// TestFramePendingPartial walks every truncation point of a two-frame
// stream: any cut that is not a frame boundary must report a partial.
func TestFramePendingPartial(t *testing.T) {
	var raw []byte
	raw = AppendAdaptiveStreamMagic(raw)
	raw = passthroughFrame(raw, []byte("abc"))
	raw = AppendGroupsFrame(raw, []byte("xy"), []Run{{N: 2, ID: 4}})

	boundaries := map[int]bool{
		0:                                   true, // nothing arrived: a clean (empty) close
		StreamMagicLen:                      true, // magic only, zero frames: clean close
		len(raw):                            true, // complete stream
		StreamMagicLen + FrameHeaderLen + 3: true, // between frames
		StreamMagicLen + FrameHeaderLen + 3 + GroupsFrameLen(2): true,
	}
	for cut := 0; cut <= len(raw); cut++ {
		var d FrameDecoder
		if err := d.Feed(raw[:cut]); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got, want := d.PendingPartial(), !boundaries[cut]; got != want {
			t.Fatalf("cut %d: PendingPartial = %v, want %v", cut, got, want)
		}
	}
}

// TestRunsAllUntainted pins the clean gate.
func TestRunsAllUntainted(t *testing.T) {
	if !RunsAllUntainted(nil) || !RunsAllUntainted([]Run{{N: 3, ID: 0}}) {
		t.Fatal("untainted runs misclassified")
	}
	if RunsAllUntainted([]Run{{N: 3, ID: 0}, {N: 1, ID: 2}}) {
		t.Fatal("tainted run slipped the gate")
	}
}

// TestFrameDecoderAgainstStream cross-checks: a stream of only groups
// frames must decode exactly as the group decoder does on the bare
// group bytes.
func TestFrameDecoderAgainstStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	payload := make([]byte, 301)
	ids := make([]uint32, len(payload))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
		ids[i] = uint32(rng.Intn(4))
	}
	groups := EncodeGroups(nil, payload, ids)

	framed := AppendAdaptiveStreamMagic(nil)
	framed = AppendFrameHeader(framed, FrameGroups, len(groups))
	framed = append(framed, groups...)

	var fd FrameDecoder
	if err := fd.Feed(framed); err != nil {
		t.Fatal(err)
	}
	var sd StreamDecoder
	sd.Feed(groups)
	for fd.Buffered() > 0 {
		n := rng.Intn(37) + 1
		fb, fids := fd.Next(n)
		sb, sids := sd.Next(n)
		if !bytes.Equal(fb, sb) {
			t.Fatalf("data diverged: %x vs %x", fb, sb)
		}
		for i := range fids {
			if fids[i] != sids[i] {
				t.Fatalf("ids diverged at %d: %d vs %d", i, fids[i], sids[i])
			}
		}
	}
	if sd.Buffered() != 0 {
		t.Fatal("group decoder has leftovers")
	}
}

// TestWholeTakesOnePassthroughFrame: FrameDecoder.Whole takes a read that
// is exactly one passthrough frame that fits the window, from a decoder
// between frames with nothing pending, and refuses every other read —
// uniform and sparse frames included — and every decoder holding
// anything, leaving it as it was, so that Feed decodes the refused read,
// errors included, as always.
func TestWholeTakesOnePassthroughFrame(t *testing.T) {
	data := []byte("one whole frame")
	frame := passthroughFrame(nil, data)
	var d FrameDecoder
	if err := d.Feed(streamMagic[:]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // taken, the frame left nothing behind: the next one is whole too
		if p := d.Whole(frame, len(data)); !bytes.Equal(p, data) || d.PendingPartial() || d.Buffered() != 0 {
			t.Fatalf("Whole = %q; the decoder holds %d bytes", p, d.Buffered())
		}
	}

	defs := AppendDefinitions(nil, []uint32{7}, [][]byte{[]byte("blob")})
	refused := []struct {
		name    string
		opening []byte // fed first
		read    []byte
		max     int
		err     bool // Feed then fails on read
	}{
		{"the stream magic", nil, append(AppendAdaptiveStreamMagic(nil), frame...), 64, false},
		{"a payload past the window", streamMagic[:], frame, len(data) - 1, false},
		{"a uniform frame", streamMagic[:], AppendFrame(nil, TierUniform, data, []Run{{N: len(data), ID: 7}}), 64, false},
		{"a sparse frame", streamMagic[:], AppendFrame(nil, TierSparse, data, []Run{{N: 3}, {N: 4, ID: 9}, {N: 8}}), 64, false},
		{"a partial frame", streamMagic[:], frame[:10], 64, false},
		{"a length past the read", streamMagic[:], append([]byte{FramePassthrough, 0, 0, 0, 99}, data...), 64, false},
		{"two frames", streamMagic[:], append(passthroughFrame(nil, data), frame...), 64, false},
		{"a groups frame", streamMagic[:], AppendGroupsFrame(nil, data, nil), 64, false},
		{"a definitions unit", streamMagic[:], defs, 64, false},
		{"an empty frame", streamMagic[:], passthroughFrame(nil, nil), 64, false},
		{"a bad tag", streamMagic[:], append([]byte{'Z'}, frame[1:]...), 64, true},
		{"after a partial header", append(AppendAdaptiveStreamMagic(nil), 'P', 0), frame, 64, false},
		{"with definitions pending", append(AppendAdaptiveStreamMagic(nil), defs...), frame, 64, false},
		{"with bytes pending", append(AppendAdaptiveStreamMagic(nil), frame...), frame, 64, false},
	}
	for _, c := range refused {
		var d, ref FrameDecoder
		if err := errors.Join(d.Feed(c.opening), ref.Feed(c.opening)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p := d.Whole(c.read, c.max); p != nil {
			t.Fatalf("%s: Whole took %q", c.name, p)
		}
		err, want := d.Feed(c.read), ref.Feed(c.read)
		if (err != nil) != c.err || (want != nil) != c.err || d.Buffered() != ref.Buffered() || d.PendingPartial() != ref.PendingPartial() {
			t.Fatalf("%s: refused, the read feeds as %d bytes (%v); untried, %d bytes (%v)", c.name, d.Buffered(), err, ref.Buffered(), want)
		}
	}
}
