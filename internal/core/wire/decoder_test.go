package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// Tests of the decoder's contract since group bodies are decoded by
// their reader: Feed keeps groups that arrive fragmented raw, the run
// consumers decode them on demand and must answer what a decoder that
// decodes everything at Feed answers, the per-byte consumer
// (PeekGroups/SkipGroups) must see the same bytes under the same ids,
// and no buffer grows under a consumer that never drains.

// eagerDecoder is the reference: it decodes every group the moment it is
// whole, one id per byte, and derives runs from the ids at each pop.
type eagerDecoder struct {
	carry []byte
	data  []byte
	ids   []uint32
}

func (e *eagerDecoder) feed(t *testing.T, raw []byte) {
	t.Helper()
	e.carry = append(e.carry, raw...)
	whole := len(e.carry) / GroupLen * GroupLen
	data, ids, err := DecodeGroups(e.carry[:whole])
	if err != nil {
		t.Fatal(err)
	}
	e.data, e.ids = append(e.data, data...), append(e.ids, ids...)
	e.carry = e.carry[whole:]
}

func (e *eagerDecoder) pushRun(b []byte, id uint32) {
	e.data = append(e.data, b...)
	for range b {
		e.ids = append(e.ids, id)
	}
}

// next pops up to max bytes with their ids.
func (e *eagerDecoder) next(max int) ([]byte, []uint32) {
	n := min(max, len(e.data))
	data, ids := e.data[:n], e.ids[:n]
	e.data, e.ids = e.data[n:], e.ids[n:]
	return data, ids
}

// clip cuts a PeekRuns cover, whose last run may overshoot, to n bytes.
func clip(runs []Run, n int) []Run {
	out := append([]Run(nil), runs...)
	if over := RunsLen(out) - n; over > 0 {
		out[len(out)-1].N -= over
	}
	return out
}

// TestOnDemandDecodeMatchesEager: for every label layout, every chunking
// of the wire (one byte at a time, cuts inside a group, group-aligned,
// whole) and pops of every kind interleaved with the feeds, with raw-body
// pushes landing between group feeds, the on-demand decoder answers
// Buffered, PeekRuns, PopInto, NextRunsInto and PeekGroups as the eager
// reference does.
func TestOnDemandDecodeMatchesEager(t *testing.T) {
	for _, n := range []int{1, 7, 64, 300} {
		shapes := labelShapes(n)
		// Bodies that turn: what Feed decodes on the spot meets what it
		// keeps raw, in either order.
		shapes["uniform then alternating"] = append(append([]uint32(nil), shapes["uniform"][:n/2]...), shapes["alternating"][n/2:]...)
		shapes["alternating then uniform"] = append(append([]uint32(nil), shapes["alternating"][:n/2]...), shapes["uniform"][n/2:]...)
		for name, ids := range shapes {
			raw := EncodeGroups(nil, payload(n), ids)
			for _, chunk := range []int{1, 3, GroupLen, 7, 64, len(raw)} {
				for seed := int64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("%s/%d/chunk%d/seed%d", name, n, chunk, seed), func(t *testing.T) {
						checkAgainstEager(t, raw, chunk, rand.New(rand.NewSource(seed)))
					})
				}
			}
		}
	}
}

func checkAgainstEager(t *testing.T, raw []byte, chunk int, rng *rand.Rand) {
	var d StreamDecoder
	var e eagerDecoder
	pop := func() {
		max := 1 + rng.Intn(40)
		if d.Buffered() != len(e.data) {
			t.Fatalf("Buffered = %d, eager decoder holds %d", d.Buffered(), len(e.data))
		}
		switch rng.Intn(3) {
		case 0: // the per-byte consumer, where the head of the stream is still raw
			g := d.PeekGroups(max)
			if len(g) == 0 {
				return
			}
			data, ids, err := DecodeGroups(g)
			if err != nil {
				t.Fatal(err)
			}
			d.SkipGroups(len(data))
			wantData, wantIDs := e.next(len(data))
			if !bytes.Equal(data, wantData) || !equalIDs(ids, wantIDs) {
				t.Fatalf("PeekGroups(%d) = %q under %v, eager decoder pops %q under %v", max, data, ids, wantData, wantIDs)
			}
		case 1:
			n, runs := d.PeekRuns(max)
			runs = clip(runs, n)
			dst := make([]byte, max)
			if got := d.PopInto(dst); got != n {
				t.Fatalf("PopInto popped %d bytes, PeekRuns announced %d", got, n)
			}
			wantData, wantIDs := e.next(max)
			if !bytes.Equal(dst[:n], wantData) || !slices.Equal(runs, idRuns(wantIDs)) {
				t.Fatalf("PeekRuns(%d)+PopInto = %q under %v, eager decoder pops %q under %v", max, dst[:n], runs, wantData, idRuns(wantIDs))
			}
		default:
			dst := make([]byte, max)
			n, runs := d.NextRunsInto(dst)
			wantData, wantIDs := e.next(max)
			if !bytes.Equal(dst[:n], wantData) || !slices.Equal(runs, idRuns(wantIDs)) {
				t.Fatalf("NextRunsInto(%d) = %q under %v, eager decoder pops %q under %v", max, dst[:n], runs, wantData, idRuns(wantIDs))
			}
		}
	}
	for off := 0; off < len(raw); {
		n := min(chunk, len(raw)-off)
		d.Feed(raw[off : off+n])
		e.feed(t, raw[off:off+n])
		off += n
		if !d.PendingPartial() && rng.Intn(4) == 0 {
			// A raw body under a cover, behind whatever groups are pending.
			b, id := []byte("cover"), uint32(rng.Intn(3))
			d.pushRun(b, id)
			e.pushRun(b, id)
		}
		for k := rng.Intn(3); k > 0; k-- {
			pop()
		}
	}
	for len(e.data) > 0 || d.Buffered() > 0 {
		pop()
	}
}

// TestUniformGroupsBodyIsOneRun pins what the paper tables' cold-start
// ramp rides on: a groups body under one id, however it was chunked on
// its way in, is decoded as it is fed and surfaces as a single run.
func TestUniformGroupsBodyIsOneRun(t *testing.T) {
	const n = 4096
	frame := AppendGroupsFrame(AppendAdaptiveStreamMagic(nil), payload(n), []Run{{N: n, ID: 7}})
	for _, frag := range []int{1, 13, 4096, len(frame)} {
		var d FrameDecoder
		feedFragmented(t, &d, frame, frag)
		if g := d.PeekGroups(n); len(g) > 0 {
			t.Fatalf("fragments of %d: %d wire bytes of a uniform body were kept raw", frag, len(g))
		}
		if got, runs := d.PeekRuns(n); got != n || len(runs) != 1 || runs[0] != (Run{N: n, ID: 7}) {
			t.Fatalf("fragments of %d: PeekRuns = %d bytes under %v, want %d under one run of id 7", frag, got, runs, n)
		}
	}
}

// TestDecoderBuffersStayBounded: a consumer that feeds again before it
// has drained — the decoder never sees a full drain — must not grow any
// of the decoder's arrays past what is pending. Each round feeds 1 KiB
// and pops it in two halves, the second only after the next feed, so
// 512 to 1536 bytes are pending throughout, for 10,000 rounds, on a
// groups stream read by each consumer and on a raw-body stream.
func TestDecoderBuffersStayBounded(t *testing.T) {
	const half, rounds = 512, 10_000
	data := payload(2 * half)
	var alternating []Run
	for i := 0; i < 2*half; i++ {
		alternating = append(alternating, Run{N: 1, ID: uint32(1 + i&1)})
	}
	popRuns := func(t *testing.T, d *FrameDecoder, dst []byte) {
		if n, _ := d.NextRunsInto(dst); n != len(dst) {
			t.Fatalf("popped %d of %d bytes", n, len(dst))
		}
	}
	popGroups := func(t *testing.T, d *FrameDecoder, dst []byte) {
		g := d.PeekGroups(len(dst))
		if len(g) != WireLen(len(dst)) {
			t.Fatalf("PeekGroups offers %d wire bytes for %d data bytes", len(g), len(dst))
		}
		d.SkipGroups(len(dst))
	}
	for name, tc := range map[string]struct {
		frame []byte
		pop   func(*testing.T, *FrameDecoder, []byte)
	}{
		"groups, run consumer":      {AppendGroupsFrame(nil, data, alternating), popRuns},
		"groups, per-byte consumer": {AppendGroupsFrame(nil, data, alternating), popGroups},
		"uniform":                   {uniformFrame(nil, data, 7), popRuns},
	} {
		t.Run(name, func(t *testing.T) {
			var d FrameDecoder
			if err := d.Feed(AppendAdaptiveStreamMagic(nil)); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, half)
			for i := 0; i < rounds; i++ {
				if err := d.Feed(tc.frame); err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					tc.pop(t, &d, dst)
				}
				tc.pop(t, &d, dst)
			}
			const bound = 16 << 10
			if c := cap(d.data); c > bound {
				t.Errorf("data array grew to %d bytes with at most %d pending", c, 3*half)
			}
			if c := cap(d.tail); c > WireLen(bound) {
				t.Errorf("raw tail grew to %d bytes with at most %d pending", c, WireLen(3*half))
			}
			if c := cap(d.runs); c > bound {
				t.Errorf("run array grew to %d runs with at most %d pending", c, 3*half)
			}
		})
	}
}

// TestDrainedDecoderLetsGoOfLargeArrays: a decoder that a large delivery
// grew keeps none of its three arrays past 256 KiB once it is drained,
// so an endpoint does not hold its largest delivery's staging for life.
// 8 MiB of groups with a label change on every byte arrive in 4 MiB
// pieces, each drained before the next, by each consumer.
func TestDrainedDecoderLetsGoOfLargeArrays(t *testing.T) {
	const piece, keep = 4 << 20, 256 << 10
	n := DataLen(2 * piece)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(1 + i&1)
	}
	raw := EncodeGroups(nil, payload(n), ids)
	dst := make([]byte, 64<<10)
	for name, pop := range map[string]func(*StreamDecoder){
		"run consumer": func(d *StreamDecoder) { d.NextRunsInto(dst) },
		"per-byte consumer": func(d *StreamDecoder) {
			d.SkipGroups(DataLen(len(d.PeekGroups(len(dst)))))
		},
	} {
		t.Run(name, func(t *testing.T) {
			var d StreamDecoder
			for off := 0; off < len(raw); off += piece {
				d.Feed(raw[off:min(off+piece, len(raw))])
				for d.Buffered() > 0 {
					pop(&d)
				}
			}
			if c := cap(d.data); c > keep {
				t.Errorf("drained decoder keeps a data array of %d bytes", c)
			}
			if c := cap(d.runs); c*int(unsafe.Sizeof(Run{})) > keep {
				t.Errorf("drained decoder keeps a run array of %d runs", c)
			}
			if c := cap(d.tail); c > keep {
				t.Errorf("drained decoder keeps a raw tail of %d bytes", c)
			}
		})
	}
}

// TestDrainedDecoderKeepsAReadsWorth: what one endpoint read can deliver
// — 256 KiB of raw stream, here four whole passthrough frames — is kept
// across drains, though append's growth leaves the data array past
// 256 KiB of capacity: re-growing it on every read cost the pipelined
// 64 KiB exchange of BenchmarkInvariantPassthrough a factor of six.
func TestDrainedDecoderKeepsAReadsWorth(t *testing.T) {
	var read []byte
	for len(read) < 256<<10 {
		read = passthroughFrame(read, payload(64<<10-FrameHeaderLen))
	}
	var d FrameDecoder
	if err := d.Feed(AppendAdaptiveStreamMagic(nil)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64<<10)
	deliver := func() {
		if err := d.Feed(read); err != nil {
			t.Fatal(err)
		}
		for d.Buffered() > 0 {
			d.PopInto(dst)
		}
	}
	deliver()
	if n := testing.AllocsPerRun(20, deliver); n != 0 {
		t.Errorf("a drained decoder re-grows a read's worth: %.1f allocations a read", n)
	}
}
