package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// The Type 2 envelope: a datagram is exactly one frame, no stream magic.
// These tests hold the one-frame datagram to what the packet codec it
// replaced promised — round trips on every tier, the header checks, the
// enlarged receive buffer's slack, and UDP's silent truncation
// (checkDatagramPrefixes is the property behind the per-tier cases).

func TestPacketRoundTrip(t *testing.T) {
	data := []byte("datagram payload")
	gids := make([]uint32, len(data))
	gids[0], gids[5] = 9, 77
	pkt := AppendFrame(nil, TierGroups, data, idRuns(gids))
	if len(pkt) != FrameHeaderLen+WireLen(len(data)) {
		t.Fatalf("packet len = %d", len(pkt))
	}
	if want := EncodeGroups(AppendFrameHeader(nil, FrameGroups, WireLen(len(data))), data, gids); !bytes.Equal(pkt, want) {
		t.Fatal("groups datagram differs from the per-byte reference encoding")
	}
	gotData, gotIDs, err := decodeDatagram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, data) || !equalIDs(gotIDs, gids) {
		t.Fatalf("decoded %q %v", gotData, gotIDs)
	}
}

func TestPacketEmptyPayload(t *testing.T) {
	for tier := range Tiers {
		if !Tiers[tier].Fits(Shape{Exact: true}) {
			continue
		}
		data, gids, err := decodeDatagram(AppendFrame(nil, tier, nil, nil))
		if err != nil || len(data) != 0 || len(gids) != 0 {
			t.Fatalf("empty %s datagram: %v %v %v", Tiers[tier].Name, data, gids, err)
		}
	}
}

func TestPacketErrors(t *testing.T) {
	uniform := uniformFrame(nil, []byte("ab"), 9)
	cases := []struct {
		name      string
		raw       []byte
		truncated bool
	}{
		{name: "too short", raw: []byte{'G', 0, 0}, truncated: true},
		// The packet codec's magics name no tier.
		{name: "bad magic", raw: append([]byte{'D', 'T', 0, 0, 0, 2}, 1, 0, 0, 0, 0)},
		{name: "stream magic", raw: passthroughFrame(AppendAdaptiveStreamMagic(nil), []byte("ab"))},
		// A body cut inside its label metadata delivers nothing.
		{name: "truncated body", raw: uniform[:FrameHeaderLen+GlobalIDLen-1], truncated: true},
		{name: "ragged groups", raw: AppendFrameHeader(nil, FrameGroups, GroupLen+1)},
		{name: "empty", raw: nil, truncated: true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := decodeDatagram(tt.raw)
			if err == nil {
				t.Fatal("want error")
			}
			if errors.Is(err, ErrTruncatedPacket) != tt.truncated {
				t.Fatalf("err = %v, truncated = %v", err, tt.truncated)
			}
		})
	}
}

func TestPacketTrailingSlackIgnored(t *testing.T) {
	// Receivers allocate enlarged buffers; decoding must ignore bytes
	// past the declared body (mirrors DatagramPacket enlargement) — on
	// every tier, whatever the slack looks like.
	forEachFit(20, func(tier int, name string, data []byte, ids []uint32) {
		pkt := AppendFrame(nil, tier, data, idRuns(ids))
		for _, slack := range [][]byte{make([]byte, 11), []byte("Zjunk"), pkt} {
			got, gotIDs, err := decodeDatagram(append(pkt[:len(pkt):len(pkt)], slack...))
			if err != nil || !bytes.Equal(got, data) || !equalIDs(gotIDs, ids) {
				t.Fatalf("%s/%s padded with %q: decoded %q %v, %v", Tiers[tier].Name, name, slack, got, gotIDs, err)
			}
		}
	})
}

// checkPacketTier round-trips one payload as a datagram on one tier and
// cuts it at every point (the tier's slice of checkDatagramPrefixes,
// with the expected frame size pinned).
func checkPacketTier(t *testing.T, tier int, payload []byte, ids []uint32, size int) {
	t.Helper()
	runs := idRuns(ids)
	if !Tiers[tier].Fits(ShapeOf(runs)) {
		t.Fatalf("%s row does not fit the test payload", Tiers[tier].Name)
	}
	raw := AppendFrame(nil, tier, payload, runs)
	if len(raw) != size {
		t.Fatalf("%s datagram = %d bytes, want %d", Tiers[tier].Name, len(raw), size)
	}
	head := len(AppendHead(nil, tier, len(payload), runs))
	for cut := 0; cut <= len(raw); cut++ {
		p, pids, err := decodeDatagram(raw[:cut])
		if cut < head {
			if !errors.Is(err, ErrTruncatedPacket) {
				t.Fatalf("cut %d: err = %v, want truncation inside the head", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		n := cut - head
		if Tiers[tier].Groups {
			n /= GroupLen
		}
		if !bytes.Equal(p, payload[:n]) || !equalIDs(pids, ids[:n]) {
			t.Fatalf("cut %d: prefix = %q %v", cut, p, pids)
		}
	}
}

func TestPacketPassthroughRoundTrip(t *testing.T) {
	payload := []byte("clean datagram")
	checkPacketTier(t, TierPassthrough, payload, make([]uint32, len(payload)), FrameHeaderLen+len(payload))
}

func TestPacketUniformRoundTrip(t *testing.T) {
	payload := []byte("uniform datagram")
	ids := make([]uint32, len(payload))
	for i := range ids {
		ids[i] = 42
	}
	checkPacketTier(t, TierUniform, payload, ids, FrameHeaderLen+GlobalIDLen+len(payload))
}

// TestPacketSparseRoundTrip: truncation drops the ranges past the cut
// and clips the one straddling it, by delivering only the bytes that
// arrived under the cover the whole table describes.
func TestPacketSparseRoundTrip(t *testing.T) {
	payload := []byte("sparse island datagram body")
	ids := make([]uint32, len(payload))
	for i := 2; i < 5; i++ {
		ids[i] = 6
	}
	for i := 20; i < 25; i++ {
		ids[i] = 13
	}
	checkPacketTier(t, TierSparse, payload, ids, FrameHeaderLen+SparseCountLen+2*SparseRangeLen+len(payload))
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		gids := make([]uint32, len(data))
		for i := range gids {
			gids[i] = uint32(i)
		}
		runs := idRuns(gids)
		got, gotIDs, err := decodeDatagram(AppendFrame(nil, PickTier(ShapeOf(runs)), data, runs))
		return err == nil && bytes.Equal(got, data) && equalIDs(gotIDs, gids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPacketRoundTrip round-trips a fuzz-chosen payload and label layout
// as a datagram on every tier that fits it, against the per-byte
// reference, then truncates each anywhere: a cut decodes to a prefix of
// the whole under identical labels or is refused as truncated, and
// never panics. The tier a sender would pick must be among them and
// within the size every receiver makes room for.
func FuzzPacketRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), uint32(9), uint16(0), uint8(0))
	f.Add([]byte{}, uint32(0), uint16(3), uint8(1))
	f.Add(bytes.Repeat([]byte{1, 2}, 100), uint32(1<<31), uint16(50), uint8(2))
	f.Add(bytes.Repeat([]byte{9}, 20), uint32(5), uint16(120), uint8(2)) // 10 islands in 20 bytes: sparse would outgrow groups
	f.Add(bytes.Repeat([]byte{9}, 64), uint32(5), uint16(31), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, id uint32, cut uint16, stride uint8) {
		// stride 0: every byte under id; k: every k-th byte, so k=2 is the
		// alternation that overflows a range table.
		ids := make([]uint32, len(data))
		for i := range ids {
			if stride == 0 || i%int(stride) == 0 {
				ids[i] = id
			}
		}
		runs := idRuns(ids)
		s := ShapeOf(runs)
		picked := PickTier(s)
		fits := false
		for tier := range Tiers {
			if !Tiers[tier].Fits(s) {
				continue
			}
			fits = fits || tier == picked
			pkt := AppendFrame(nil, tier, data, runs)
			if len(pkt) > GroupsFrameLen(len(data)) {
				t.Fatalf("%s datagram of %d payload bytes is %d long", Tiers[tier].Name, len(data), len(pkt))
			}
			if Tiers[tier].Groups {
				ref := EncodeGroups(AppendFrameHeader(nil, Tiers[tier].Tag, WireLen(len(data))), data, ids)
				if !bytes.Equal(pkt, ref) {
					t.Fatal("run and per-byte group encodings disagree on the wire")
				}
			}
			got, gotIDs, err := decodeDatagram(pkt)
			if err != nil || !bytes.Equal(got, data) || !equalIDs(gotIDs, ids) {
				t.Fatalf("%s datagram decoded %q %v, %v", Tiers[tier].Name, got, gotIDs, err)
			}
			k := int(cut) % (len(pkt) + 1)
			p, pids, err := decodeDatagram(pkt[:k])
			switch {
			case err != nil && !errors.Is(err, ErrTruncatedPacket):
				t.Fatalf("%s cut %d: %v", Tiers[tier].Name, k, err)
			case err != nil && k >= len(AppendHead(nil, tier, len(data), runs)):
				t.Fatalf("%s cut %d past the head refused: %v", Tiers[tier].Name, k, err)
			case err == nil && (!bytes.HasPrefix(data, p) || !equalIDs(pids, ids[:len(p)])):
				t.Fatalf("%s cut %d: %q %v is no prefix of the payload", Tiers[tier].Name, k, p, pids)
			}
		}
		if !fits {
			t.Fatalf("PickTier chose %s, which does not fit %+v", Tiers[picked].Name, s)
		}
	})
}
