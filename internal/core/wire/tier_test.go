package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Test vocabulary over the tier table. Everything below that says "for
// every tier" ranges over Tiers, so a row added to the table is covered
// without an edit here (TestTierTableFifthRow adds one to prove it).

// idRuns folds per-byte ids into their run cover — the reference way
// from the per-byte form to what the table's encoders take.
func idRuns(ids []uint32) []Run {
	var runs []Run
	for _, id := range ids {
		if k := len(runs); k > 0 && runs[k-1].ID == id {
			runs[k-1].N++
		} else {
			runs = append(runs, Run{N: 1, ID: id})
		}
	}
	return runs
}

// ShapeOf returns the shape of a payload under its run cover (adjacent
// runs carry different ids), as a sender's Stats scan would count it.
func ShapeOf(runs []Run) Shape {
	s := Shape{Exact: true}
	for _, r := range runs {
		s.N += r.N
		if r.ID != 0 {
			s.DirtyBytes += r.N
			s.DirtyRuns++
		}
	}
	return s
}

// labelShapes returns per-byte id layouts of n bytes from the trivial to
// the worst case of the format: clean, one label, two islands, islands
// beyond what a sender puts in a range table, two labels alternating
// byte by byte, a different id on every byte.
func labelShapes(n int) map[string][]uint32 {
	mk := func(f func(i int) uint32) []uint32 {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = f(i)
		}
		return ids
	}
	return map[string][]uint32{
		"clean":   mk(func(int) uint32 { return 0 }),
		"uniform": mk(func(int) uint32 { return 7 }),
		"islands": mk(func(i int) uint32 {
			if i == 1 || (i >= n/2 && i < n/2+3) {
				return 9
			}
			return 0
		}),
		"archipelago": mk(func(i int) uint32 {
			if i%(n/24+2) == 0 {
				return uint32(3 + i%2)
			}
			return 0
		}),
		"alternating": mk(func(i int) uint32 { return uint32(1 + i&1) }),
		"churn":       mk(func(i int) uint32 { return uint32(i + 1) }),
	}
}

// payload returns n deterministic data bytes.
func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	return data
}

// forEachFit calls f for every (tier, layout) pair of n bytes in which
// the tier's row fits the layout — the frames a sender may emit.
func forEachFit(n int, f func(t int, name string, data []byte, ids []uint32)) {
	data := payload(n)
	for name, ids := range labelShapes(n) {
		for t := range Tiers {
			if Tiers[t].Fits(ShapeOf(idRuns(ids))) {
				f(t, name, data, ids)
			}
		}
	}
}

// errConsumersDisagree is decodeDatagram's verdict on a datagram whose
// groups read one way per byte and another way by runs.
var errConsumersDisagree = errors.New("wire: the per-byte and the run consumer disagree")

// decodeDatagram splits a one-frame datagram (or a prefix of one) into
// payload bytes and per-byte ids, with both consumers: what PeekGroups
// offers of it must decode to what the run consumer pops.
func decodeDatagram(raw []byte) ([]byte, []uint32, error) {
	var d, twin FrameDecoder
	if err := d.FeedDatagram(raw); err != nil {
		return nil, nil, err
	}
	data, ids := d.Next(d.Buffered())
	if twin.FeedDatagram(raw) != nil {
		return nil, nil, errConsumersDisagree
	}
	if g := twin.PeekGroups(twin.Buffered()); len(g) > 0 {
		gdata, gids, err := DecodeGroups(g)
		if err != nil || !bytes.Equal(gdata, data) || !equalIDs(gids, ids) {
			return nil, nil, errConsumersDisagree
		}
	}
	return data, ids, nil
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testDefinitions returns one definition per distinct Global ID of a
// layout, in first-seen order. The codec does not read blobs: any bytes
// do, the empty blob included.
func testDefinitions(ids []uint32) (defIDs []uint32, blobs [][]byte) {
	for _, id := range ids {
		if id != 0 && !slices.Contains(defIDs, id) {
			defIDs = append(defIDs, id)
			blobs = append(blobs, bytes.Repeat([]byte{byte(id)}, int(id%7)))
		}
	}
	return defIDs, blobs
}

func equalBlobs(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

// checkTierRoundTrips frames every fitting layout on every tier, as a
// stream under every fragmentation and as a datagram, and requires the
// bytes and the per-byte ids back. It returns the tags it exercised.
func checkTierRoundTrips(t *testing.T) map[byte]int {
	t.Helper()
	seen := map[byte]int{}
	for _, n := range []int{1, 5, 20, 64, 200} {
		forEachFit(n, func(tier int, name string, data []byte, ids []uint32) {
			frame := AppendFrame(nil, tier, data, idRuns(ids))
			if frame[0] != Tiers[tier].Tag {
				t.Fatalf("%s/%s: frame opens with tag %q", Tiers[tier].Name, name, frame[0])
			}
			seen[frame[0]]++
			// On a stream the frame follows the definitions of its ids, as
			// it does at their first crossing; they must surface whole,
			// and the payload as if they were not there.
			defIDs, defBlobs := testDefinitions(ids)
			unit := AppendDefinitions(nil, defIDs, defBlobs)
			if len(unit) > 0 {
				seen[unit[0]]++
			}
			stream := append(append(AppendAdaptiveStreamMagic(nil), unit...), frame...)
			for frag := 1; frag <= len(stream); frag += 1 + frag/16 {
				var d FrameDecoder
				feedFragmented(t, &d, stream, frag)
				if d.PendingPartial() {
					t.Fatalf("%s/%s n=%d frag %d: whole frame left a partial", Tiers[tier].Name, name, n, frag)
				}
				if gotIDs, gotBlobs := d.Definitions(); !equalIDs(gotIDs, defIDs) || !equalBlobs(gotBlobs, defBlobs) {
					t.Fatalf("%s/%s n=%d frag %d: definitions surfaced as %v %q", Tiers[tier].Name, name, n, frag, gotIDs, gotBlobs)
				}
				gotData, gotIDs := drainIDs(&d)
				if !bytes.Equal(gotData, data) || !equalIDs(gotIDs, ids) {
					t.Fatalf("%s/%s n=%d frag %d: decoded %q %v", Tiers[tier].Name, name, n, frag, gotData, gotIDs)
				}
			}
			gotData, gotIDs, err := decodeDatagram(frame)
			if err != nil || !bytes.Equal(gotData, data) || !equalIDs(gotIDs, ids) {
				t.Fatalf("%s/%s n=%d: datagram decoded %q %v, %v", Tiers[tier].Name, name, n, gotData, gotIDs, err)
			}
		})
	}
	return seen
}

// checkDatagramPrefixes is the truncation property of the one-frame
// datagram: for every tier and every cut point k, decoding raw[:k]
// yields a prefix of the full decode's bytes under identical labels, or
// ErrTruncatedPacket exactly when the header or the metadata is
// incomplete — and the decoder never mutates its input.
func checkDatagramPrefixes(t *testing.T) {
	t.Helper()
	for _, n := range []int{1, 20, 64} {
		forEachFit(n, func(tier int, name string, data []byte, ids []uint32) {
			runs := idRuns(ids)
			raw := AppendFrame(nil, tier, data, runs)
			orig := append([]byte(nil), raw...)
			head := len(AppendHead(nil, tier, n, runs))
			for k := 0; k <= len(raw); k++ {
				got, gotIDs, err := decodeDatagram(raw[:k])
				if k < head {
					if !errors.Is(err, ErrTruncatedPacket) {
						t.Fatalf("%s/%s n=%d cut %d inside the %d-byte head: err = %v", Tiers[tier].Name, name, n, k, head, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s n=%d cut %d: %v", Tiers[tier].Name, name, n, k, err)
				}
				want := k - head
				if Tiers[tier].Groups {
					want /= GroupLen
				}
				if len(got) != want || !bytes.Equal(got, data[:want]) || !equalIDs(gotIDs, ids[:want]) {
					t.Fatalf("%s/%s n=%d cut %d: prefix = %q %v, want %d bytes of %q %v",
						Tiers[tier].Name, name, n, k, got, gotIDs, want, data, ids)
				}
			}
			if !bytes.Equal(raw, orig) {
				t.Fatalf("%s/%s: decoding mutated the datagram", Tiers[tier].Name, name)
			}
		})
	}
}

// checkDatagramSizes pins the invariant that makes one receive buffer
// right for every tier: whatever row a sender picks for n bytes, the
// datagram is no longer than the groups form, FrameHeaderLen+WireLen(n).
func checkDatagramSizes(t *testing.T) {
	t.Helper()
	for n := 1; n <= 260; n++ {
		forEachFit(n, func(tier int, name string, data []byte, ids []uint32) {
			if got := len(AppendFrame(nil, tier, data, idRuns(ids))); got > GroupsFrameLen(n) {
				t.Fatalf("%s/%s: %d payload bytes travel as %d, past the %d a receiver makes room for",
					Tiers[tier].Name, name, n, got, GroupsFrameLen(n))
			}
		})
	}
}

func TestTierRoundTrips(t *testing.T) {
	seen := checkTierRoundTrips(t)
	for _, row := range Tiers {
		if seen[row.Tag] == 0 {
			t.Errorf("no test layout fits the %s tier", row.Name)
		}
	}
}

func TestDatagramPrefixProperty(t *testing.T) { checkDatagramPrefixes(t) }

func TestDatagramNeverOutgrowsGroups(t *testing.T) { checkDatagramSizes(t) }

// TestSparseYieldsToGroupsWhenLarger is the regression case of the
// size rule: 20 bytes tainted on every other byte are 10 dirty runs,
// whose range table (150 wire bytes as a frame) outweighs the 105 of
// the groups it would replace — the sound minimum is groups.
func TestSparseYieldsToGroupsWhenLarger(t *testing.T) {
	ids := make([]uint32, 20)
	for i := 0; i < len(ids); i += 2 {
		ids[i] = 5
	}
	s := ShapeOf(idRuns(ids))
	if s.DirtyRuns != 10 || s.DirtyBytes != 10 || s.N != 20 {
		t.Fatalf("shape = %+v", s)
	}
	if Tiers[TierSparse].Fits(s) {
		t.Fatal("sparse row admits a table larger than the id bytes it replaces")
	}
	if got := PickTier(s); got != TierGroups {
		t.Fatalf("PickTier = %s, want groups", Tiers[got].Name)
	}
	// The table pays for itself from 4+12k <= 4n on: n = 3k+1.
	s.N = 3 * s.DirtyRuns
	if Tiers[TierSparse].Fits(s) {
		t.Fatalf("sparse row admits %+v", s)
	}
	s.N++
	if !Tiers[TierSparse].Fits(s) || PickTier(s) != TierSparse {
		t.Fatalf("sparse row refuses %+v", s)
	}
}

// TestPickTier pins the ladder: a payload's sound minimum is the first
// row from the top of the table that fits it, whatever was sent before.
func TestPickTier(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Shape
		want int
	}{
		{"clean", Shape{N: 64, Exact: true}, TierPassthrough},
		{"uniform", Shape{N: 64, DirtyBytes: 64, DirtyRuns: 1, Exact: true}, TierUniform},
		{"sparse", Shape{N: 64, DirtyBytes: 6, DirtyRuns: 2, Exact: true}, TierSparse},
		{"inexact", Shape{N: 64, DirtyBytes: 33, DirtyRuns: 33}, TierGroups},
		{"one tainted byte of one", Shape{N: 1, DirtyBytes: 1, DirtyRuns: 1, Exact: true}, TierUniform},
		{"one tainted byte of two", Shape{N: 2, DirtyBytes: 1, DirtyRuns: 1, Exact: true}, TierGroups},
	} {
		if got := PickTier(tc.s); got != tc.want {
			t.Errorf("%s: PickTier(%+v) = %d, want %d", tc.name, tc.s, got, tc.want)
		}
	}
}

// checkScanLimit holds a sender's run count to the table as it stands:
// ScanLimit is the most dirty runs any raw-body row fits — reached, so no
// smaller bound would do — and a shape past it, or one whose count
// stopped there, fits rows with a self-labelling body only.
func checkScanLimit(t *testing.T) {
	t.Helper()
	limit, reached := ScanLimit(), false
	for i := range Tiers {
		row := &Tiers[i]
		if row.Groups {
			continue
		}
		for _, n := range []int{1, 2, 3, 64, 4096, 64 << 10} {
			for runs := 0; runs <= limit+2 && runs <= n; runs++ {
				for _, dirty := range []int{runs, n / 2, n} {
					s := Shape{N: n, DirtyBytes: dirty, DirtyRuns: runs, Exact: true}
					if dirty < runs || (runs == 0) != (dirty == 0) || !row.Fits(s) {
						continue
					}
					if runs > row.MaxRuns {
						t.Fatalf("%s fits %+v, past its MaxRuns %d", row.Name, s, row.MaxRuns)
					}
					reached = reached || runs == limit
					if s.Exact = false; row.Fits(s) {
						t.Fatalf("%s fits %+v, whose counts are lower bounds", row.Name, s)
					}
				}
			}
		}
	}
	if !reached {
		t.Fatalf("no raw-body row fits a shape of %d runs: ScanLimit counts further than the table needs", limit)
	}
	if got := PickTier(Shape{N: 64 << 10, DirtyBytes: limit + 1, DirtyRuns: limit + 1}); !Tiers[got].Groups {
		t.Fatalf("a shape cut off at %d runs picks %s", limit+1, Tiers[got].Name)
	}
}

func TestScanLimit(t *testing.T) {
	checkScanLimit(t)
	if ScanLimit() != sparseSendRanges {
		t.Fatalf("ScanLimit = %d, want the sparse row's %d", ScanLimit(), sparseSendRanges)
	}
}

// TestTierTableFifthRow adds a throwaway row — 'R', a run-length tier:
// count, then (length, Global ID) per run, raw body — between sparse and
// groups, and shows that nothing else needs an edit: PickTier and
// AppendFrame (the sender's half) emit it for the layouts it alone fits
// below groups, the decoder reads it on both envelopes, and the
// round-trip, truncation and size harnesses above cover it.
func TestTierTableFifthRow(t *testing.T) {
	const entry = 8
	rl := Tier{
		Tag: 'R', Name: "run-length",
		Fits: func(s Shape) bool {
			return s.Exact && s.DirtyRuns <= 64 && 4+entry*(2*s.DirtyRuns+1) <= s.N*GlobalIDLen
		},
		MaxRuns: 64,
		MetaLen: func(meta []byte, _ int) (int, error) {
			if len(meta) < 4 {
				return 4, nil
			}
			k := binary.BigEndian.Uint32(meta)
			if k > 129 {
				return 0, fmt.Errorf("run-length frame declares %d runs", k)
			}
			return 4 + int(k)*entry, nil
		},
		Cover: func(dst []Run, meta []byte, n int) ([]Run, error) {
			for at := 4; at < len(meta); at += entry {
				dst = append(dst, Run{N: int(binary.BigEndian.Uint32(meta[at:])), ID: binary.BigEndian.Uint32(meta[at+4:])})
			}
			if RunsLen(dst) != n {
				return nil, fmt.Errorf("run-length cover spans %d of %d bytes", RunsLen(dst), n)
			}
			return dst, nil
		},
		AppendMeta: func(dst []byte, runs []Run) []byte {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(runs)))
			for _, r := range runs {
				dst = binary.BigEndian.AppendUint32(dst, uint32(r.N))
				dst = binary.BigEndian.AppendUint32(dst, r.ID)
			}
			return dst
		},
	}
	table := Tiers
	defer func() { Tiers = table }()
	Tiers = append(append(append([]Tier(nil), table[:TierGroups]...), rl), table[TierGroups:]...)

	// The sender's half: 20 islands are past the sparse row and fit the
	// new one, which sits before groups in the table.
	ids := labelShapes(200)["archipelago"]
	runs := idRuns(ids)
	if s := ShapeOf(runs); Tiers[TierSparse].Fits(s) || !rl.Fits(s) {
		t.Fatalf("archipelago shape %+v does not single the new row out", s)
	}
	picked := PickTier(ShapeOf(runs))
	if Tiers[picked].Tag != 'R' {
		t.Fatalf("PickTier chose %s", Tiers[picked].Name)
	}
	frame := AppendFrame(nil, picked, payload(200), runs)
	if len(frame) >= GroupsFrameLen(200) {
		t.Fatalf("run-length frame takes %d bytes", len(frame))
	}
	// The decoder's half, and a corrupt table through the row's own check.
	got, gotIDs, err := decodeDatagram(frame)
	if err != nil || !bytes.Equal(got, payload(200)) || !equalIDs(gotIDs, ids) {
		t.Fatalf("decoded %q %v, %v", got, gotIDs, err)
	}
	frame[FrameHeaderLen+4+3]++ // first run one byte longer than the body
	if _, _, err := decodeDatagram(frame); err == nil || !strings.Contains(err.Error(), "run-length cover") {
		t.Fatalf("corrupt run-length table: %v", err)
	}
	// The harnesses.
	if seen := checkTierRoundTrips(t); seen['R'] == 0 {
		t.Fatal("round-trip harness never framed the new row")
	}
	checkDatagramPrefixes(t)
	checkDatagramSizes(t)
	// A sender's run count follows the row's reach.
	if ScanLimit() != rl.MaxRuns {
		t.Fatalf("ScanLimit = %d with a %d-run row in the table", ScanLimit(), rl.MaxRuns)
	}
	checkScanLimit(t)
}

// Whole frames through the helpers a sender that already holds an id or
// a range table uses instead of AppendHead.
func uniformFrame(dst, data []byte, id uint32) []byte {
	return append(AppendUniformHeader(dst, len(data), id), data...)
}

func sparseFrame(dst, data []byte, ranges []DirtyRange) []byte {
	return append(AppendSparseHeader(dst, len(data), ranges), data...)
}

func passthroughFrame(dst, data []byte) []byte {
	return AppendFrame(dst, TierPassthrough, data, nil)
}

// TestTierFrameLens pins the header helpers against the table's
// encoder: a sender holding an id or a range table must emit the bytes
// AppendFrame emits from the run cover, so the zero-copy two-write send
// and the whole-frame form agree.
func TestTierFrameLens(t *testing.T) {
	data := []byte("uniformly tainted payload")
	whole := AppendFrame(nil, TierUniform, data, []Run{{N: len(data), ID: 7}})
	if split := uniformFrame(nil, data, 7); !bytes.Equal(whole, split) {
		t.Fatal("AppendUniformHeader + payload differs from the uniform row's frame")
	}
	if len(whole) != FrameHeaderLen+GlobalIDLen+len(data) {
		t.Fatalf("uniform frame = %d bytes", len(whole))
	}
	ranges := []DirtyRange{{Off: 2, Len: 3, ID: 9}, {Off: 10, Len: 1, ID: 4}}
	whole = AppendFrame(nil, TierSparse, data, coverOf(t, ranges, len(data)))
	if split := sparseFrame(nil, data, ranges); !bytes.Equal(whole, split) {
		t.Fatal("AppendSparseHeader + payload differs from the sparse row's frame")
	}
	if len(whole) != FrameHeaderLen+SparseCountLen+len(ranges)*SparseRangeLen+len(data) {
		t.Fatalf("sparse frame = %d bytes", len(whole))
	}
}

// TestTierMixedRoundTrip interleaves all four frame tiers on one
// stream at every fragmentation size.
func TestTierMixedRoundTrip(t *testing.T) {
	var raw []byte
	raw = AppendAdaptiveStreamMagic(raw)
	raw = passthroughFrame(raw, []byte("clean"))
	raw = uniformFrame(raw, []byte("uniform"), 3)
	raw = sparseFrame(raw, []byte("sparse-islands"),
		[]DirtyRange{{Off: 0, Len: 2, ID: 5}, {Off: 7, Len: 3, ID: 8}})
	raw = AppendGroupsFrame(raw, []byte("dense"), []Run{{N: 2, ID: 1}, {N: 3, ID: 2}})
	raw = uniformFrame(raw, nil, 6) // empty uniform frame is legal
	raw = uniformFrame(raw, []byte("more"), 3)

	wantData := []byte("clean" + "uniform" + "sparse-islands" + "dense" + "more")
	var wantIDs []uint32
	wantIDs = append(wantIDs, 0, 0, 0, 0, 0)       // clean
	wantIDs = append(wantIDs, 3, 3, 3, 3, 3, 3, 3) // uniform
	wantIDs = append(wantIDs, 5, 5, 0, 0, 0, 0, 0) // sparse: [0,2)=5
	wantIDs = append(wantIDs, 8, 8, 8, 0, 0, 0, 0) // sparse: [7,10)=8, tail clean
	wantIDs = append(wantIDs, 1, 1, 2, 2, 2)       // dense
	wantIDs = append(wantIDs, 3, 3, 3, 3)          // more

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
		if !equalIDs(gotIDs, wantIDs) {
			t.Fatalf("frag %d: ids = %v, want %v", frag, gotIDs, wantIDs)
		}
	}
}

// TestTierStickyErrors checks the tiered corruption classes are
// rejected with sticky errors.
func TestTierStickyErrors(t *testing.T) {
	magic := AppendAdaptiveStreamMagic(nil)
	overlap := sparseFrame(magic, make([]byte, 10),
		[]DirtyRange{{Off: 0, Len: 4, ID: 1}, {Off: 2, Len: 4, ID: 2}})
	outside := sparseFrame(magic, make([]byte, 4),
		[]DirtyRange{{Off: 2, Len: 8, ID: 1}})
	zeroID := sparseFrame(magic, make([]byte, 8),
		[]DirtyRange{{Off: 1, Len: 2, ID: 0}})
	zeroLen := sparseFrame(magic, make([]byte, 8),
		[]DirtyRange{{Off: 1, Len: 0, ID: 3}})
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"short uniform", AppendFrameHeader(magic, FrameUniform, GlobalIDLen-1), "cannot hold 4 metadata bytes"},
		{"short sparse", AppendFrameHeader(magic, FrameSparse, SparseCountLen-1), "cannot hold 4 metadata bytes"},
		{"table overflow", AppendSparseHeader(magic, 0, make([]DirtyRange, MaxSparseRanges+1)), "limit"},
		{"table past body", append(AppendFrameHeader(magic, FrameSparse, SparseCountLen+2), 0, 0, 0, 9, 'x', 'x'), "cannot hold"},
		{"overlapping ranges", overlap, "overlaps or reorders"},
		{"range outside data", outside, "exceeds"},
		{"zero-id range", zeroID, "untainted id"},
		{"zero-length range", zeroLen, "length 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d FrameDecoder
			var err error
			for off := 0; off < len(tc.raw) && err == nil; off++ {
				err = d.Feed(tc.raw[off : off+1])
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Feed = %v, want %q", err, tc.want)
			}
			if again := d.Feed([]byte("more")); !errors.Is(again, err) {
				t.Fatalf("error not sticky: %v then %v", err, again)
			}
		})
	}
}

// TestTierPendingPartial walks every truncation point of a
// uniform+sparse stream: any cut that is not a frame boundary must
// report a partial.
func TestTierPendingPartial(t *testing.T) {
	var raw []byte
	raw = AppendAdaptiveStreamMagic(raw)
	raw = uniformFrame(raw, []byte("abc"), 2)
	raw = sparseFrame(raw, []byte("defgh"), []DirtyRange{{Off: 1, Len: 2, ID: 4}})

	boundaries := map[int]bool{
		0:              true,
		StreamMagicLen: true,
		StreamMagicLen + FrameHeaderLen + GlobalIDLen + 3: true,
		len(raw): true,
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

// TestDirtyRangeHelpers pins the run<->range conversions.
func TestDirtyRangeHelpers(t *testing.T) {
	runs := []Run{{N: 3, ID: 0}, {N: 2, ID: 7}, {N: 4, ID: 0}, {N: 1, ID: 7}, {N: 2, ID: 9}}
	ranges := AppendDirtyRanges(nil, runs)
	want := []DirtyRange{{Off: 3, Len: 2, ID: 7}, {Off: 9, Len: 1, ID: 7}, {Off: 10, Len: 2, ID: 9}}
	if len(ranges) != len(want) {
		t.Fatalf("ranges = %+v, want %+v", ranges, want)
	}
	for i := range want {
		if ranges[i] != want[i] {
			t.Fatalf("range %d = %+v, want %+v", i, ranges[i], want[i])
		}
	}
	cover := coverOf(t, ranges, 12) // fails on ranges the decoder rejects
	if RunsLen(cover) != 12 {
		t.Fatalf("cover = %+v does not span 12 bytes", cover)
	}
	back := AppendDirtyRanges(nil, cover)
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("round-tripped range %d = %+v, want %+v", i, back[i], want[i])
		}
	}
	if s := ShapeOf(runs); s != (Shape{N: 12, DirtyBytes: 5, DirtyRuns: 3, Exact: true}) {
		t.Fatalf("ShapeOf = %+v", s)
	}
}

// coverOf is the run cover a decoder reads off the sparse table of
// ranges over n data bytes.
func coverOf(t *testing.T, ranges []DirtyRange, n int) []Run {
	t.Helper()
	cover, err := appendRangeCover(nil, appendRangeTable(nil, ranges)[SparseCountLen:], n)
	if err != nil {
		t.Fatal(err)
	}
	return cover
}
