package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// FuzzStreamRoundTrip round-trips EncodeGroups → StreamDecoder.Feed
// under fragmentation derived from the fuzz input, asserting the
// decoded data and ids match the originals byte for byte. The seeded
// corpus (f.Add) runs under plain `go test`; `go test -fuzz
// FuzzStreamRoundTrip` explores further.
//
// The fuzz input doubles as the payload and the control stream: seed
// selects an id pattern (a negative one the worst case of the format, a
// different id on every byte), frag drives the read fragmentation, and
// pops drives how many bytes each pop requests.
//
// It also holds the decoder to what it promises about popped runs: they
// read the same until the next Feed, and for good once a Feed has
// failed.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte("hello distributed taints"), int64(1), uint8(3), uint8(7))
	f.Add([]byte{}, int64(2), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, int64(3), uint8(1), uint8(255))
	f.Add(bytes.Repeat([]byte{0xAB}, 257), int64(4), uint8(4), uint8(9))
	f.Add([]byte("DT\x00\x00\x00\x05abcde"), int64(5), uint8(128), uint8(64))
	f.Add(bytes.Repeat([]byte{1, 2}, 96), int64(-1), uint8(40), uint8(200)) // alternating ids, popped whole
	f.Add(bytes.Repeat([]byte{1, 2}, 96), int64(-2), uint8(3), uint8(4))    // alternating ids, small pops
	f.Add(bytes.Repeat([]byte{7}, 100), int64(6), uint8(255), uint8(2))     // long runs: every pop splits one
	f.Fuzz(func(t *testing.T, data []byte, seed int64, frag, pops uint8) {
		rng := rand.New(rand.NewSource(seed))

		// Build an id pattern with both long constant stretches and
		// per-byte churn, depending on the seed.
		ids := make([]uint32, len(data))
		var cur uint32
		for i := range ids {
			if rng.Intn(int(frag)+2) == 0 {
				cur = uint32(rng.Intn(5)) // small id space → runs merge
			}
			ids[i] = cur
			if seed < 0 {
				ids[i] = uint32(1 + i&1)
			}
		}

		raw := EncodeGroups(nil, data, ids)
		if len(raw) != WireLen(len(data)) {
			t.Fatalf("encoded %d bytes, want %d", len(raw), WireLen(len(data)))
		}

		// Feed in random fragments, including empty and sub-group ones.
		var dec StreamDecoder
		for off := 0; off < len(raw); {
			n := rng.Intn(int(frag) + 2) // 0..frag+1 byte chunks
			if off+n > len(raw) {
				n = len(raw) - off
			}
			dec.Feed(raw[off : off+n])
			off += n
		}
		if dec.PendingPartial() {
			t.Fatal("whole-group input left a partial buffered")
		}
		if dec.Buffered() != len(data) {
			t.Fatalf("decoder buffered %d of %d bytes", dec.Buffered(), len(data))
		}

		// Drain with randomly sized pops, alternating Next, NextRuns,
		// PeekRuns+PopInto and the per-byte consumer (which is offered
		// the head of the stream until the first run consumer has decoded
		// it), keeping every popped run slice and a copy.
		var gotData []byte
		var gotIDs []uint32
		var popped, copies [][]Run
		checkRuns := func(rs []Run, n int) {
			if RunsLen(rs) != n {
				t.Fatalf("runs cover %d of %d bytes", RunsLen(rs), n)
			}
			for i := 1; i < len(rs); i++ {
				if rs[i].ID == rs[i-1].ID {
					t.Fatalf("adjacent runs with equal id %d", rs[i].ID)
				}
			}
			popped = append(popped, rs)
			copies = append(copies, append([]Run(nil), rs...))
			gotIDs = append(gotIDs, ExpandRuns(rs)...)
		}
		for dec.Buffered() > 0 {
			max := rng.Intn(int(pops)+2) + 1
			switch rng.Intn(4) {
			case 0:
				d, is := dec.Next(max)
				gotData = append(gotData, d...)
				gotIDs = append(gotIDs, is...)
			case 1:
				g := dec.PeekGroups(max)
				d, is, err := DecodeGroups(g)
				if err != nil || len(d) > max {
					t.Fatalf("PeekGroups(%d) offered %d wire bytes (%v)", max, len(g), err)
				}
				dec.SkipGroups(len(d))
				gotData = append(gotData, d...)
				gotIDs = append(gotIDs, is...)
			case 2:
				d, rs := dec.NextRuns(max)
				checkRuns(rs, len(d))
				gotData = append(gotData, d...)
			default:
				// The peeked cover may overshoot the pop; clipped at n
				// it is what NextRuns would have returned.
				n, rs := dec.PeekRuns(max)
				rs = append([]Run(nil), rs...)
				if over := RunsLen(rs) - n; over < 0 || (n > 0 && over >= rs[len(rs)-1].N) {
					t.Fatalf("PeekRuns(%d): %d bytes under a cover of %d", max, n, RunsLen(rs))
				} else if over > 0 {
					rs[len(rs)-1].N -= over
				}
				d := make([]byte, max)
				if got := dec.PopInto(d); got != n {
					t.Fatalf("PopInto popped %d bytes, PeekRuns announced %d", got, n)
				}
				checkRuns(rs, n)
				gotData = append(gotData, d[:n]...)
			}
		}
		for i, rs := range popped {
			for j := range rs {
				if rs[j] != copies[i][j] {
					t.Fatalf("pop %d: run %d read %+v when popped and %+v before the next Feed", i, j, copies[i][j], rs[j])
				}
			}
		}
		if !bytes.Equal(gotData, data) {
			t.Fatalf("data mismatch:\n got %x\nwant %x", gotData, data)
		}
		for i := range ids {
			if gotIDs[i] != ids[i] {
				t.Fatalf("id %d = %d, want %d", i, gotIDs[i], ids[i])
			}
		}

		// The same payload framed, then a corrupt header: what was
		// decoded before the error still pops, and no later Feed — each
		// one fails — may write over the popped runs.
		// The frame follows the definitions of its ids, which surface too
		// and stay as they are.
		var fd FrameDecoder
		defIDs, defBlobs := testDefinitions(ids)
		framed := AppendGroupsFrame(AppendDefinitions(AppendAdaptiveStreamMagic(nil), defIDs, defBlobs), data, nil)
		copy(framed[len(framed)-len(raw):], raw)
		if err := fd.Feed(append(framed, 'Z', 0, 0, 0, 1)); err == nil {
			t.Fatal("bad frame tag accepted")
		}
		_, rs := fd.NextRuns(len(data))
		was := append([]Run(nil), rs...)
		if fd.Feed(framed) == nil {
			t.Fatal("Feed error did not stick")
		}
		if gotIDs, gotBlobs := fd.Definitions(); !equalIDs(gotIDs, defIDs) || !equalBlobs(gotBlobs, defBlobs) {
			t.Fatalf("definitions %v %q surfaced as %v %q", defIDs, defBlobs, gotIDs, gotBlobs)
		}
		for i := range rs {
			if rs[i] != was[i] {
				t.Fatalf("run %d changed from %+v to %+v across a failed Feed", i, was[i], rs[i])
			}
		}
		got := ExpandRuns(rs)
		if len(got) != len(ids) {
			t.Fatalf("framed pop covers %d of %d bytes", len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("framed id %d = %d, want %d", i, got[i], ids[i])
			}
		}
	})
}

// FuzzFrameRoundTrip drives the framed codec: the input is split across
// frames, each on a tier of the table drawn by the rng under a label
// layout its row fits, fed under fuzz-chosen fragmentation, and the
// decoded bytes/ids must match. Ahead of some frames goes the
// definitions unit of their ids; the units must surface whole, in order,
// and leave the payload as it is. Seeds cover every frame tag, the empty
// frame, and payloads mimicking magics and headers.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("clean then tainted"), int64(1), uint8(3), uint8(2))
	f.Add([]byte{}, int64(2), uint8(0), uint8(1))
	f.Add([]byte("DTF1PPPP"), int64(3), uint8(1), uint8(4)) // payload mimicking an old magic+tag
	f.Add(bytes.Repeat([]byte{'G'}, 64), int64(4), uint8(7), uint8(3))
	f.Add([]byte{'P', 0, 0, 0, 0}, int64(5), uint8(2), uint8(2)) // bare passthrough header bytes as payload
	f.Add([]byte("DTF2U\x00\x00\x00\x07abc"), int64(6), uint8(3), uint8(3))
	f.Add([]byte("uniform bulk transfer payload"), int64(7), uint8(9), uint8(1))
	f.Add(bytes.Repeat([]byte{'S', 0}, 40), int64(8), uint8(5), uint8(5))                             // sparse-heavy split
	f.Add([]byte("D\x00\x00\x00\x09\x00\x00\x00\x01\x00\x00\x00\x01t"), int64(9), uint8(0), uint8(6)) // a definitions unit as payload, fed a byte or two at a time
	f.Fuzz(func(t *testing.T, data []byte, seed int64, frag, nframes uint8) {
		rng := rand.New(rand.NewSource(seed))

		// Split data into 1..nframes+1 frames; record the expected
		// per-byte ids.
		raw := AppendAdaptiveStreamMagic(nil)
		wantIDs := make([]uint32, 0, len(data))
		var defIDs []uint32
		var defBlobs [][]byte
		rest := data
		for i := 0; i < int(nframes)+1; i++ {
			n := 0
			if len(rest) > 0 {
				n = rng.Intn(len(rest) + 1)
			}
			if i == int(nframes) {
				n = len(rest) // last frame takes the remainder
			}
			chunk := rest[:n]
			rest = rest[n:]
			// Random islands over the chunk, from none to all of it; then
			// any tier whose row fits what came out.
			ids := make([]uint32, len(chunk))
			for pos, islands := 0, rng.Intn(4)*rng.Intn(8); islands > 0 && pos < len(chunk); islands-- {
				pos += rng.Intn(5)
				if pos >= len(chunk) {
					break
				}
				ln := rng.Intn(len(chunk)-pos) + 1
				id := uint32(rng.Intn(3) + 1)
				for k := pos; k < pos+ln; k++ {
					ids[k] = id
				}
				pos += ln
			}
			runs := idRuns(ids)
			var fitting []int
			for tier := range Tiers {
				if Tiers[tier].Fits(ShapeOf(runs)) {
					fitting = append(fitting, tier)
				}
			}
			if rng.Intn(2) == 0 {
				unitIDs, unitBlobs := testDefinitions(ids)
				raw = AppendDefinitions(raw, unitIDs, unitBlobs)
				defIDs, defBlobs = append(defIDs, unitIDs...), append(defBlobs, unitBlobs...)
			}
			raw = AppendFrame(raw, fitting[rng.Intn(len(fitting))], chunk, runs)
			wantIDs = append(wantIDs, ids...)
		}

		var dec FrameDecoder
		for off := 0; off < len(raw); {
			n := rng.Intn(int(frag)+2) + 1
			if off+n > len(raw) {
				n = len(raw) - off
			}
			if err := dec.Feed(raw[off : off+n]); err != nil {
				t.Fatalf("Feed: %v", err)
			}
			off += n
		}
		if dec.PendingPartial() {
			t.Fatal("complete frames left a partial")
		}
		if dec.Buffered() != len(data) {
			t.Fatalf("buffered %d of %d", dec.Buffered(), len(data))
		}
		if gotIDs, gotBlobs := dec.Definitions(); !equalIDs(gotIDs, defIDs) || !equalBlobs(gotBlobs, defBlobs) {
			t.Fatalf("definitions %v %q surfaced as %v %q", defIDs, defBlobs, gotIDs, gotBlobs)
		}
		// Two consumers of the same stream: the run consumer alone, and
		// the per-byte one wherever the head of the stream is still raw
		// groups (a groups frame with no raw body decoded ahead of it).
		var twin FrameDecoder
		if err := twin.Feed(raw); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		var gotData, twinData []byte
		var gotIDs, twinIDs []uint32
		for dec.Buffered() > 0 {
			d, is := dec.Next(rng.Intn(64) + 1)
			gotData = append(gotData, d...)
			gotIDs = append(gotIDs, is...)
		}
		for twin.Buffered() > 0 {
			max := rng.Intn(64) + 1
			d, is, err := DecodeGroups(twin.PeekGroups(max))
			if err != nil {
				t.Fatalf("PeekGroups: %v", err)
			}
			if twin.SkipGroups(len(d)); len(d) == 0 {
				d, is = twin.Next(max)
			}
			twinData = append(twinData, d...)
			twinIDs = append(twinIDs, is...)
		}
		if !bytes.Equal(gotData, data) || !bytes.Equal(twinData, data) {
			t.Fatalf("data mismatch:\n run consumer %x\n per-byte consumer %x\nwant %x", gotData, twinData, data)
		}
		if !equalIDs(gotIDs, wantIDs) || !equalIDs(twinIDs, wantIDs) {
			t.Fatalf("ids = %v by runs, %v per byte, want %v", gotIDs, twinIDs, wantIDs)
		}
	})
}

// FuzzFrameDecoderRobust feeds arbitrary bytes to the frame decoder
// under arbitrary fragmentation, as a stream and as a datagram: it must
// never panic, once Feed errors the error must stick, and a stream that
// does not open with the magic must never yield a byte.
func FuzzFrameDecoderRobust(f *testing.F) {
	// Openings this format refuses: the "DTF1" framing of the earlier
	// one, with good and bad frames behind it, and no framing at all.
	f.Add([]byte("DTF1P\x00\x00\x00\x03abc"), uint8(1))
	f.Add([]byte("DTF1G\x00\x00\x00\x05hello"), uint8(3))
	f.Add([]byte("DTF1Z\x00\x00\x00\x01x"), uint8(2))
	f.Add([]byte("DTF1P\xff\xff\xff\xff"), uint8(4))
	f.Add([]byte("not framed at all"), uint8(5))
	f.Add([]byte("DTF2U\x00\x00\x00\x06\x00\x00\x00\x09ab"), uint8(2))                                                 // uniform frame
	f.Add([]byte("DTF2U\x00\x00\x00\x02id"), uint8(1))                                                                 // uniform too short for an id
	f.Add([]byte("DTF2S\x00\x00\x00\x04\x00\x00\x00\x00"), uint8(3))                                                   // empty sparse table
	f.Add([]byte("DTF2S\x00\x00\x00\x08\xff\xff\xff\xff\x00\x00\x00\x01"), uint8(2))                                   // insane range count
	f.Add([]byte("DTF2S\x00\x00\x00\x12\x00\x00\x00\x01\x00\x00\x00\x04\x00\x00\x00\x09\x00\x00\x00\x07xx"), uint8(4)) // range past data
	f.Add([]byte("DTF2P\x00\x00\x00\x03abc"), uint8(1))
	f.Add([]byte("DTF2G\x00\x00\x00\x05hello"), uint8(3))
	f.Add([]byte("DTF2Z\x00\x00\x00\x01x"), uint8(2))                                                           // bad tag
	f.Add([]byte("DTF2P\xff\xff\xff\xff"), uint8(4))                                                            // oversize length
	f.Add([]byte("a\x00\x00\x00\x01b\x00\x00\x00\x02"), uint8(6))                                               // headerless groups
	f.Add([]byte("DT\x00\x00\x00\x01a\x00\x00\x00\x01"), uint8(2))                                              // the packet codec's magic
	f.Add([]byte("DTF2D\x00\x00\x00\x0a\x00\x00\x00\x07\x00\x00\x00\x02\x00\x00P\x00\x00\x00\x02ok"), uint8(0)) // definitions unit, then a frame
	f.Add([]byte("DTF2D\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x00"), uint8(1))                            // definition of the untainted id
	f.Add([]byte("DTF2D\x00\x00\x00\x09\x00\x00\x00\x07\x00\x00\x00\x02\x00"), uint8(2))                        // blob overruns the unit
	f.Add([]byte("DTF2D\x00\x00\x00\x05\x00\x00\x00\x07\x00"), uint8(3))                                        // unit ends inside an entry
	f.Add([]byte("DTF2D\x00\x01\x00\x01\x00\x00\x00\x07"), uint8(4))                                            // unit past the bound
	f.Add([]byte("DTF2D\x00\x00\x00\x10\x00\x00\x00\x07\x00\x00"), uint8(5))                                    // truncated unit
	f.Add([]byte("D\x00\x00\x00\x08\x00\x00\x00\x07\x00\x00\x00\x00"), uint8(6))                                // a unit as a datagram
	f.Fuzz(func(t *testing.T, raw []byte, frag uint8) {
		var dec FrameDecoder
		var ferr error
		for off := 0; off < len(raw); {
			n := int(frag)%7 + 1
			if off+n > len(raw) {
				n = len(raw) - off
			}
			err := dec.Feed(raw[off : off+n])
			if ferr != nil && err == nil {
				t.Fatal("Feed error did not stick")
			}
			if err != nil {
				ferr = err
			}
			off += n
		}
		// What surfaced of definitions is whole entries under tainted ids,
		// none from a unit the decoder refused.
		defIDs, defBlobs := dec.Definitions()
		if len(defIDs) != len(defBlobs) || slices.Contains(defIDs, 0) {
			t.Fatalf("definitions surfaced as %v %q", defIDs, defBlobs)
		}
		if !bytes.HasPrefix(raw, streamMagic[:]) && dec.Buffered()+len(defIDs) > 0 {
			t.Fatalf("%d bytes decoded from a stream that opens %q", dec.Buffered(), raw[:min(len(raw), StreamMagicLen)])
		}
		for dec.Buffered() > 0 {
			if g := dec.PeekGroups(5); len(g)%GroupLen != 0 || len(g) > 5*GroupLen {
				t.Fatalf("PeekGroups(5) offered %d wire bytes", len(g))
			} else if len(g) > 0 && frag&1 == 0 {
				dec.SkipGroups(len(g) / GroupLen)
				continue
			}
			d, ids := dec.Next(13)
			if len(d) != len(ids) {
				t.Fatalf("pop returned %d bytes but %d ids", len(d), len(ids))
			}
		}
		// The same bytes as one datagram (no magic expected there).
		if d, ids, err := decodeDatagram(raw); errors.Is(err, errConsumersDisagree) || (err == nil && len(d) != len(ids)) {
			t.Fatalf("datagram pop returned %d bytes and %d ids (%v)", len(d), len(ids), err)
		}
		// The bytes after the magic as one read of an open stream: a read
		// Whole takes is one Feed decodes to the same clean bytes, nothing
		// left over; one it refuses feeds as it would untried.
		if !bytes.HasPrefix(raw, streamMagic[:]) {
			return
		}
		var whole, fed FrameDecoder
		if whole.Feed(streamMagic[:]) != nil || fed.Feed(streamMagic[:]) != nil {
			t.Fatal("the stream magic refused")
		}
		read := raw[StreamMagicLen:]
		p := whole.Whole(read, int(frag))
		err := fed.Feed(read)
		if p == nil {
			if werr := whole.Feed(read); (werr != nil) != (err != nil) || whole.Buffered() != fed.Buffered() ||
				whole.PendingPartial() != fed.PendingPartial() {
				t.Fatalf("refused by Whole, %q feeds as %d bytes (%v); untried, %d bytes (%v)", read, whole.Buffered(), werr, fed.Buffered(), err)
			}
			return
		}
		if len(p) > int(frag) {
			t.Fatalf("Whole took a %d-byte payload for a %d-byte read", len(p), frag)
		}
		if err != nil || fed.PendingPartial() || fed.Defines() || fed.Buffered() != len(p) {
			t.Fatalf("Whole took %q, which Feed decodes to %d bytes (%v)", read, fed.Buffered(), err)
		}
		if d, ids := fed.Next(len(p)); !bytes.Equal(d, p) || !slices.Equal(ids, make([]uint32, len(p))) {
			t.Fatalf("Whole took %q as %q, clean; Feed decodes %q under %v", read, p, d, ids)
		}
	})
}
