package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/taintmap"
)

// Tests of the per-byte lanes under the groups tier: what appendGroups
// and adoptRuns do with a dense shadow store must be what they do with
// a run-mode store holding the same labels, byte for byte and label for
// label, and an input the lanes decline must take the run paths with
// nothing written first.

// asDense returns data under labels in a window of a store that is
// dense whatever the labels are: the store is fragmented with frag
// first and relabelled byte by byte after, and the window sits at an
// offset in it. A cover shorter than the labels leaves the rest of the
// window past what the store covers, and clean.
func asDense(labels []taint.Taint, data []byte, frag [2]taint.Taint, cover int) taint.Bytes {
	const pad = 5
	n := len(labels)
	covered := pad + n + pad
	if cover < n {
		covered = pad + cover
	}
	base := taint.WrapBytes(make([]byte, covered, pad+n+pad))
	for i := range base.Data {
		base.SetLabel(i, frag[i&1])
	}
	for i := 0; i < min(cover, n); i++ {
		base.SetLabel(pad+i, labels[i])
	}
	out := base.Slice(pad, pad+n) // reaches into spare capacity when cover < n
	copy(out.Data, data)
	return out
}

// asRuns returns data under labels in a window of a run-mode store: the
// buffer around the window is large enough that no labelling of the
// window fragments the store past the cutoff.
func asRuns(labels []taint.Taint, data []byte) taint.Bytes {
	n := len(labels)
	big := taint.MakeBytes(9*n + 256)
	out := big.Slice(100, 100+n)
	copy(out.Data, data)
	for i, l := range labels {
		out.SetLabel(i, l)
	}
	return out
}

// laneShapes builds the same labelled window twice, over a dense store
// and over a run-mode one. With short the dense store covers only the
// first half of its view, and the second half is clean on both.
func laneShapes(t *testing.T, labels []taint.Taint, data []byte, frag [2]taint.Taint, short bool) (dense, run taint.Bytes) {
	t.Helper()
	cover := len(labels)
	if short {
		cover /= 2
		labels = append(append([]taint.Taint(nil), labels[:cover]...), make([]taint.Taint, len(labels)-cover)...)
	}
	dense, run = asDense(labels, data, frag, cover), asRuns(labels, data)
	if run.DenseLabels() != nil {
		t.Fatal("the reference window densified; it must stay in run mode")
	}
	for i := range labels {
		if dense.LabelAt(i) != labels[i] || run.LabelAt(i) != labels[i] {
			t.Fatalf("byte %d: the two shapes disagree before the test starts", i)
		}
	}
	return dense, run
}

// otherShape returns b's bytes and labels over the representation b
// does not have: the run-mode twin of a window with a per-byte view,
// the dense twin of anything else.
func otherShape(b taint.Bytes, frag [2]taint.Taint) taint.Bytes {
	labels := make([]taint.Taint, len(b.Data))
	for i := range labels {
		labels[i] = b.LabelAt(i)
	}
	if b.DenseLabels() != nil {
		return asRuns(labels, b.Data)
	}
	return asDense(labels, b.Data, frag, len(labels))
}

// lanePatterns are the label layouts the lanes must agree on, each over
// n bytes drawn from pool (pool[0] is the zero Taint).
var lanePatterns = []struct {
	name  string
	label func(rng *rand.Rand, pool []taint.Taint, n, i int) taint.Taint
}{
	{"all clean", func(*rand.Rand, []taint.Taint, int, int) taint.Taint { return taint.Taint{} }},
	{"one tainted", func(_ *rand.Rand, pool []taint.Taint, n, i int) taint.Taint {
		if i == n/3 {
			return pool[3]
		}
		return taint.Taint{}
	}},
	{"alternating", func(_ *rand.Rand, pool []taint.Taint, _, i int) taint.Taint { return pool[1+i&1] }},
	// More than eight distinct labels: firstSeen takes its map.
	{"many labels", func(rng *rand.Rand, pool []taint.Taint, _, _ int) taint.Taint { return pool[rng.Intn(len(pool))] }},
	{"short runs", func(_ *rand.Rand, pool []taint.Taint, _, i int) taint.Taint { return pool[(i/3)%len(pool)] }},
}

// layout draws pattern k over n bytes.
func layout(k int, rng *rand.Rand, pool []taint.Taint, n int) []taint.Taint {
	out := make([]taint.Taint, n)
	for i := range out {
		out[i] = lanePatterns[k].label(rng, pool, n, i)
	}
	return out
}

// countingClient counts the RegisterBatch calls that reach a Taint Map
// client.
type countingClient struct {
	taintmap.Client
	registers int
}

func (c *countingClient) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	c.registers++
	return c.Client.RegisterBatch(ts)
}

// lanePool returns the zero Taint and 12 distinct taints of a's tree
// whose tag values start with prefix — unregistered, if the prefix is new.
func lanePool(a *tracker.Agent, prefix string) []taint.Taint {
	pool := []taint.Taint{{}}
	for i := 0; i < 12; i++ {
		pool = append(pool, a.Source("lane", prefix+string(rune('a'+i))))
	}
	return pool
}

// TestDenseSendLaneMatchesRunWalk: for every pattern, window and
// coverage, the groups appendGroups emits from a dense store are the
// groups it emits from a run-mode store with the same labels — on the
// first send, where the labels have no Global ID and the lane must hand
// over to the run walk (one RegisterBatch, nothing appended twice), and
// on the second, which registers nothing.
func TestDenseSendLaneMatchesRunWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, short := range []bool{false, true} {
			r := newRig(t, tracker.ModeDista)
			counter := &countingClient{Client: r.a.TaintMap()}
			a := tracker.New("node1", tracker.ModeDista, tracker.WithTaintMap(counter))
			n := 40 + rng.Intn(500)
			data := make([]byte, n)
			rng.Read(data)
			frag := [2]taint.Taint{a.Source("frag", "p"), a.Source("frag", "q")}
			for k, p := range lanePatterns {
				// Fresh labels per pattern, so that every first send has
				// something to register.
				name := p.name
				labels := layout(k, rng, lanePool(a, "send:"+name), n)
				dense, run := laneShapes(t, labels, data, frag, short)
				clean := dense.Clean()
				// A covered window has a per-byte view whatever it holds,
				// a clean one too.
				if lane := dense.DenseLabels() != nil; lane == short {
					t.Fatalf("seed %d %s short=%v: dense window has a per-byte view = %v", seed, name, short, lane)
				}
				prefix := []byte("hdr")
				encode := func(b taint.Bytes) []byte {
					out, err := appendGroups(a, append([]byte(nil), prefix...), b, wire.TierGroups, nil)
					if err != nil {
						t.Fatalf("seed %d %s short=%v: %v", seed, name, short, err)
					}
					return out
				}
				wantRegs := counter.registers
				if !clean {
					wantRegs++
				}
				first := encode(dense)
				if counter.registers != wantRegs {
					t.Fatalf("seed %d %s short=%v: first send left %d RegisterBatch calls, want %d",
						seed, name, short, counter.registers, wantRegs)
				}
				second, want := encode(dense), encode(run)
				if counter.registers != wantRegs {
					t.Fatalf("seed %d %s: a send of registered labels registered again", seed, name)
				}
				if !bytes.Equal(first, want) || !bytes.Equal(second, want) {
					t.Fatalf("seed %d %s short=%v (%d bytes): dense store and run-mode store encode differently",
						seed, name, short, n)
				}
				if len(want) != len(prefix)+wire.GroupsFrameLen(n) || !bytes.HasPrefix(want, prefix) {
					t.Fatalf("seed %d %s: %d bytes appended to a %d-byte prefix for %d data bytes", seed, name, len(want), len(prefix), n)
				}
				if clean && !short {
					// A dense store wiped clean end to end is dense still:
					// the lane encodes it, as the run walk would.
					wiped := taint.WrapBytes(data)
					for _, pass := range [][2]taint.Taint{frag, {}} {
						for i := range data {
							wiped.SetLabel(i, pass[i&1])
						}
					}
					if got := encode(wiped); wiped.DenseLabels() == nil || !bytes.Equal(got, want) {
						t.Fatalf("seed %d: all-clean dense store: view = %v, same encoding = %v",
							seed, wiped.DenseLabels() != nil, bytes.Equal(got, want))
					}
				}
			}
		}
	}
}

// TestDenseSendLaneRefusals: what the groups writer refuses it refuses
// for a dense store too, before anything reaches the connection — a
// stream without a Taint Map client at all. (With a degraded one, the
// lane's taints cross inline: TestTaintMapOutageFailsLoudly.)
func TestDenseSendLaneRefusals(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	bare := tracker.New("n", tracker.ModeDista)
	for name, tc := range map[string]struct {
		agent *tracker.Agent
		want  error
	}{
		"nil Taint Map": {bare, ErrNoTaintMap},
	} {
		a := tc.agent
		msg := taint.MakeBytes(256)
		pair := [2]taint.Taint{a.Source("s", "x"), a.Source("s", "y")}
		for i := range msg.Data {
			msg.SetLabel(i, pair[i&1])
		}
		if msg.DenseLabels() == nil {
			t.Fatal("alternating labels did not densify the message")
		}
		ca, cb := r.net.Pipe()
		if err := NewAdaptiveEndpoint(a, ca).Write(msg); !errors.Is(err, tc.want) {
			t.Fatalf("%s: write of a tainted dense buffer = %v, want %v", name, err, tc.want)
		}
		if _, wireBytes := a.Traffic(); wireBytes != 0 || cb.Buffered() != 0 {
			t.Fatalf("%s: a refused write put %d bytes on the connection (%d buffered)", name, wireBytes, cb.Buffered())
		}
	}
}

// runsOf is the run list of labels as the decoder would hold it, every
// label registered through tm.
func runsOf(t *testing.T, tm taintmap.Client, labels []taint.Taint) []wire.Run {
	t.Helper()
	var runs []wire.Run
	for _, l := range labels {
		var id uint32
		if !l.Empty() {
			var err error
			if id, err = tm.Register(l); err != nil {
				t.Fatal(err)
			}
		}
		if k := len(runs); k > 0 && runs[k-1].ID == id {
			runs[k-1].N++
		} else {
			runs = append(runs, wire.Run{N: 1, ID: id})
		}
	}
	return runs
}

// TestDenseAdoptLaneMatchesRunWalk: adoptRuns into a dense store and
// into a run-mode store leaves the same label on every byte — inside
// the delivery and around it — for every pattern, including a delivery
// cut inside a run; and a failed lookup leaves both as they were.
func TestDenseAdoptLaneMatchesRunWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, tracker.ModeDista)
		flaky := &flakyLookups{Client: r.b.TaintMap()}
		b := tracker.New("node2", tracker.ModeDista, tracker.WithTaintMap(flaky))
		n := 40 + rng.Intn(500)
		stale := lanePool(b, "stale")
		frag := [2]taint.Taint{stale[1], stale[2]}
		for k, p := range lanePatterns {
			name := p.name
			runs := runsOf(t, r.a.TaintMap(), layout(k, rng, lanePool(r.a, "recv"), n))
			// What the buffers hold before the delivery: stale labels of
			// the receiving node, a different one every few bytes.
			old := make([]taint.Taint, n)
			for i := range old {
				old[i] = stale[(i/5)%len(stale)]
			}
			dense, run := laneShapes(t, old, make([]byte, n), frag, false)
			at := rng.Intn(n / 2)
			got := 1 + rng.Intn(n-at)
			delivery := runs
			if rng.Intn(2) == 0 {
				delivery = runs[rng.Intn(len(runs)):] // start anywhere in the frame
			}
			if have := wire.RunsLen(delivery); got > have {
				got = have
			}

			flaky.fail = 2 // one lookup per buffer, at most
			for _, buf := range []*taint.Bytes{&dense, &run} {
				clean := allClean(delivery, got)
				if err := new(streamReader).adoptRuns(b, buf, at, delivery, got); clean != (err == nil) || (!clean && !errors.Is(err, errLookupDown)) {
					t.Fatalf("seed %d %s: adopt with the Taint Map down = %v (clean delivery: %v)", seed, name, err, clean)
				} else if clean {
					continue
				}
				for i := range old {
					if buf.LabelAt(i) != old[i] {
						t.Fatalf("seed %d %s: a failed lookup relabelled byte %d", seed, name, i)
					}
				}
			}
			flaky.fail = 0

			for _, buf := range []*taint.Bytes{&dense, &run} {
				if err := new(streamReader).adoptRuns(b, buf, at, delivery, got); err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
			}
			if dense.DenseLabels() == nil {
				t.Fatalf("seed %d %s: the dense buffer left the dense representation", seed, name)
			}
			pos, k := 0, 0
			for i := 0; i < n; i++ {
				want := old[i]
				if i >= at && i < at+got {
					for pos+delivery[k].N <= i-at {
						pos += delivery[k].N
						k++
					}
					want = taint.Taint{}
					if id := delivery[k].ID; id != 0 {
						var err error
						if want, err = b.TaintMap().Lookup(id); err != nil {
							t.Fatal(err)
						}
					}
				}
				if d, r := dense.LabelAt(i), run.LabelAt(i); d != r || d != want {
					t.Fatalf("seed %d %s: byte %d (delivery [%d,%d)): dense store %v, run-mode store %v, want %v",
						seed, name, i, at, at+got, d, r, want)
				}
			}
		}
	}
}

// allClean reports whether the first n bytes under runs carry no id.
func allClean(runs []wire.Run, n int) bool {
	for _, r := range runs {
		if n <= 0 {
			break
		}
		if r.ID != 0 {
			return false
		}
		n -= r.N
	}
	return true
}

// readByRuns is streamReader.read held to the decoder's run path: what
// every delivery took before group bodies and whole frames had readers of
// their own, and what deliver falls back on.
func readByRuns(r *streamReader, agent *tracker.Agent, recv func([]byte) (int, error), buf *taint.Bytes, from, to int) (int, error) {
	for r.dec.Buffered() == 0 {
		raw, err := r.native(recv, to-from)
		if _, err := r.feed(agent, buf, from, raw, nil, err); err != nil {
			return 0, err
		}
	}
	if r.dec.Defines() {
		if err := r.learn(agent); err != nil {
			return 0, err
		}
	}
	n, runs := r.dec.PeekRuns(to - from)
	if err := r.adoptRuns(agent, buf, from, runs, n); err != nil {
		return 0, err
	}
	return r.dec.PopInto(buf.Data[from : from+n]), nil
}

// chunked returns a receive function that hands out stream in pieces of
// at most chunk bytes.
func chunked(stream []byte, chunk int) func([]byte) (int, error) {
	return func(b []byte) (int, error) {
		if len(stream) == 0 {
			return 0, io.EOF
		}
		n := copy(b[:min(chunk, len(b))], stream)
		stream = stream[n:]
		return n, nil
	}
}

// TestGroupsLaneMatchesRunPath is the differential test of the two
// receive paths: for every label layout, into a dense window, a window
// of a run-mode store too large to densify and a fresh buffer that does,
// under every chunking of the wire — one byte a read, a cut inside every
// group, two frames in one read, the whole stream at once — and through
// whole and short reads, streamReader.read and the run path alone
// return the same counts and leave the same bytes and the same label on
// every byte of the buffer, inside the deliveries — which start at an
// offset into it — and around them; and those are the labels that were
// sent. The stream is three groups frames
// with a uniform frame among them, so the per-byte reader also meets
// decoded bytes ahead of raw ones.
func TestGroupsLaneMatchesRunPath(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, tracker.ModeDista)
		n := 300 + rng.Intn(400)
		const margin = 17 // the deliveries fill [margin, margin+n) of each buffer
		stale := lanePool(r.b, "stale")
		frag := [2]taint.Taint{stale[1], stale[2]}
		old := make([]taint.Taint, margin+n+margin)
		for i := range old {
			old[i] = stale[(i/5)%len(stale)]
		}
		for k, p := range lanePatterns {
			pool := lanePool(r.a, "recv")
			labels := layout(k, rng, pool, n)
			data := make([]byte, n)
			rng.Read(data)
			cuts := [4]int{n / 3, n / 3, 5, n - 2*(n/3) - 5} // groups, groups, uniform, groups
			copy(labels[2*(n/3):], []taint.Taint{pool[5], pool[5], pool[5], pool[5], pool[5]})
			stream := wire.AppendAdaptiveStreamMagic(nil)
			for i, at := 0, 0; i < len(cuts); at, i = at+cuts[i], i+1 {
				tier := wire.TierGroups
				if i == 2 {
					tier = wire.TierUniform
				}
				part := runsOf(t, r.a.TaintMap(), labels[at:at+cuts[i]])
				stream = wire.AppendFrame(stream, tier, data[at:at+cuts[i]], part)
			}
			want := make([]taint.Taint, n)
			for i, l := range labels {
				if !l.Empty() {
					id, _ := r.a.TaintMap().Register(l)
					var err error
					if want[i], err = r.b.TaintMap().Lookup(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			receivers := map[string]func() taint.Bytes{
				"dense window":    func() taint.Bytes { return asDense(old, make([]byte, len(old)), frag, len(old)) },
				"run-mode window": func() taint.Bytes { return asRuns(old, make([]byte, len(old))) },
				"fresh buffer":    func() taint.Bytes { return taint.MakeBytes(len(old)) },
			}
			for rname, mk := range receivers {
				for _, chunk := range []int{1, wire.GroupLen + 2, wire.GroupsFrameLen(n/3) + 40, len(stream)} {
					for _, step := range []int{n, 1 + rng.Intn(60)} {
						name := fmt.Sprintf("seed %d %s into a %s, reads of %d wire bytes, pops of %d", seed, p.name, rname, chunk, step)
						lane, ref, lane0 := mk(), mk(), mk()
						var lr, rr streamReader
						lrecv, rrecv := chunked(stream, chunk), chunked(stream, chunk)
						for pos := 0; pos < n; {
							to := min(pos+step, n)
							ln, lerr := lr.read(r.b, lrecv, &lane, margin+pos, margin+to)
							rn, rerr := readByRuns(&rr, r.b, rrecv, &ref, margin+pos, margin+to)
							if lerr != nil || rerr != nil || ln != rn || ln == 0 {
								t.Fatalf("%s: read at %d = %d, %v; by runs %d, %v", name, pos, ln, lerr, rn, rerr)
							}
							pos += ln
						}
						if !bytes.Equal(lane.Data[margin:margin+n], data) || !bytes.Equal(ref.Data[margin:margin+n], data) {
							t.Fatalf("%s: the bytes differ from what was sent", name)
						}
						// The whole buffer, not just the deliveries: nothing
						// around them may have moved.
						for i := range old {
							wantAt := lane0.LabelAt(i)
							if i >= margin && i < margin+n {
								wantAt = want[i-margin]
							}
							if l, r := lane.LabelAt(i), ref.LabelAt(i); l != r || l != wantAt {
								t.Fatalf("%s: byte %d carries %v, by runs %v, want %v", name, i-margin, l, r, wantAt)
							}
						}
						if (lane.DenseLabels() != nil) != (ref.DenseLabels() != nil) {
							t.Fatalf("%s: the two paths left different representations (per-byte view %v, by runs %v)",
								name, lane.DenseLabels() != nil, ref.DenseLabels() != nil)
						}
					}
				}
			}
		}
	}
}

// TestWholeGroupsFrameLane is the differential test of the whole-frame
// lane: the same groups frame, read into a dense and into a run-mode
// window whole — on an open stream, nothing pending, no definitions
// ahead — split on and off a group boundary, behind the stream magic and
// behind a definitions unit, leaves the bytes, the label of every byte of
// the buffer and its representation that the decoder's run path leaves.
// Only the whole read of a frame the decoder would keep raw takes the
// lane: its ids are resolved while the decoder holds nothing, and into a
// dense or a run-mode window alike that one lookup delivers it. Every
// other read resolves what the decoder holds.
func TestWholeGroupsFrameLane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := newRig(t, tracker.ModeDista)
	spy := &flakyLookups{Client: r.b.TaintMap()}
	b := tracker.New("node2", tracker.ModeDista, tracker.WithTaintMap(spy))
	const n, margin, window = 600, 11, 700
	stale := lanePool(r.b, "stale")
	frag := [2]taint.Taint{stale[1], stale[2]}
	old := make([]taint.Taint, margin+window+margin)
	for i := range old {
		old[i] = stale[(i/5)%len(stale)]
	}
	magic := wire.AppendAdaptiveStreamMagic(nil)
	for k, p := range lanePatterns {
		labels := layout(k, rng, lanePool(r.a, "whole"), n)
		data := make([]byte, n)
		rng.Read(data)
		runs := runsOf(t, r.a.TaintMap(), labels)
		frame := wire.AppendGroupsFrame(nil, data, runs)
		var defined []taint.Taint // a few of the frame's taints, defined ahead of it
		for _, l := range labels {
			if !l.Empty() && len(defined) < 3 && !slices.Contains(defined, l) {
				defined = append(defined, l)
			}
		}
		defs := definitionsOf(t, defined)
		on, off := wire.FrameHeaderLen+wire.GroupLen*(n/3), wire.FrameHeaderLen+wire.GroupLen*(n/3)+2
		perByte := p.name != "all clean" && p.name != "one tainted" // what the decoder keeps raw
		for _, way := range []struct {
			name  string
			reads [][]byte
			lane  bool
		}{
			{"whole", [][]byte{magic, frame}, perByte},
			{"split on a group boundary", [][]byte{magic, frame[:on], frame[on:]}, false},
			{"split off a group boundary", [][]byte{magic, frame[:off], frame[off:]}, false},
			{"behind the stream magic", [][]byte{append(magic[:4:4], frame...)}, false},
			{"behind a definitions unit", [][]byte{magic, append(defs[:len(defs):len(defs)], frame...)}, false},
		} {
			for rname, mk := range map[string]func() taint.Bytes{
				"dense window":    func() taint.Bytes { return asDense(old, make([]byte, len(old)), frag, len(old)) },
				"run-mode window": func() taint.Bytes { return asRuns(old, make([]byte, len(old))) },
			} {
				name := fmt.Sprintf("%s %s into a %s", p.name, way.name, rname)
				lane, ref, lane0 := mk(), mk(), mk()
				var lr, rr streamReader
				empty := []bool{} // per lookup: the decoder held nothing
				spy.seen = func() { empty = append(empty, lr.dec.Buffered() == 0) }
				lens := make([]int, len(way.reads))
				for i, rd := range way.reads {
					lens[i] = len(rd)
				}
				lrecv := (&chunkTransport{stream: bytes.Join(way.reads, nil), units: lens}).RecvRaw
				rrecv := (&chunkTransport{stream: bytes.Join(way.reads, nil), units: slices.Clone(lens)}).RecvRaw
				for pos := 0; pos < n; {
					ln, lerr := lr.read(b, lrecv, &lane, margin+pos, margin+window)
					rn, rerr := readByRuns(&rr, r.b, rrecv, &ref, margin+pos, margin+window)
					if lerr != nil || rerr != nil || ln != rn || ln == 0 {
						t.Fatalf("%s: read at %d = %d, %v; by runs %d, %v", name, pos, ln, lerr, rn, rerr)
					}
					pos += ln
				}
				spy.seen = nil
				if !bytes.Equal(lane.Data[margin:margin+n], data) || !bytes.Equal(ref.Data[margin:margin+n], data) {
					t.Fatalf("%s: the bytes differ from what was sent", name)
				}
				for i := range old {
					if l, r := lane.LabelAt(i), ref.LabelAt(i); l != r || (i < margin || i >= margin+n) && l != lane0.LabelAt(i) {
						t.Fatalf("%s: byte %d carries %v, by runs %v", name, i-margin, l, r)
					}
				}
				if (lane.DenseLabels() != nil) != (ref.DenseLabels() != nil) {
					t.Fatalf("%s: the two paths left different representations", name)
				}
				took := len(empty) > 0 && empty[0]
				if took != way.lane || slices.Contains(empty[min(1, len(empty)):], true) || took && len(empty) != 1 {
					t.Fatalf("%s: lookups with nothing in the decoder %v; want the lane taken = %v", name, empty, way.lane)
				}
			}
		}
	}
}

// TestGroupsLaneSelection pins which deliveries take the groups lane and
// which of those are read per byte: the lane is the fragmentation the
// decoder observes in the groups it is fed, the per-byte view the
// receiving store's own densify criterion, nothing else — a window that
// stays in run mode takes the lane's resolved labels run by run. Each
// body crosses as one groups frame and is read in two halves; a first
// half the lane takes leaves the second raw at the head of the decoder,
// one adopted by runs leaves it decoded. Either way every byte arrives
// under its label, and the uniform body of the paper tables' ramp lands
// as one run in a store that stays in run mode.
func TestGroupsLaneSelection(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	const n = 4096
	pool := lanePool(r.a, "sel")
	stale := r.b.Source("sel", "stale")
	fresh := func() taint.Bytes { return taint.MakeBytes(n) }
	dense := func() taint.Bytes {
		return asDense(make([]taint.Taint, n), make([]byte, n), [2]taint.Taint{stale, {}}, n)
	}
	alternating := func(i int) taint.Taint { return pool[1+i&1] }
	for name, tc := range map[string]struct {
		label       func(i int) taint.Taint
		buf         func() taint.Bytes
		lane, dense bool
	}{
		"a label change on every byte into a fresh buffer": {alternating, fresh, true, true},
		"a label change on every byte into a dense buffer": {alternating, dense, true, true},
		"three-byte runs":                       {func(i int) taint.Taint { return pool[1+(i/3)%8] }, fresh, true, true},
		"a comb of one-byte islands":            {func(i int) taint.Taint { return pool[i&1] }, fresh, true, true},
		"one id over the whole body":            {func(int) taint.Taint { return pool[1] }, fresh, false, false},
		"one id into a dense buffer":            {func(int) taint.Taint { return pool[1] }, dense, false, false},
		"sixteen-byte runs":                     {func(i int) taint.Taint { return pool[1+(i/16)%8] }, fresh, false, false},
		"fragments after a long uniform prefix": {func(i int) taint.Taint { return pool[1+(i&1)*min(i/1024, 1)] }, fresh, false, false},
		"an untainted body":                     {func(int) taint.Taint { return taint.Taint{} }, fresh, false, false},
		"fragments into a window of a run-mode store too large to densify": {alternating, func() taint.Bytes {
			big := taint.MakeBytes(64 * n)
			return big.Slice(n, 2*n)
		}, true, false},
	} {
		labels := labelsOf(n, tc.label)
		data := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(data)
		frame := wire.AppendGroupsFrame(wire.AppendAdaptiveStreamMagic(nil), data, runsOf(t, r.a.TaintMap(), labels))
		var rd streamReader
		if err := rd.dec.Feed(frame); err != nil {
			t.Fatal(err)
		}
		buf := tc.buf()
		if got, err := rd.read(r.b, nil, &buf, 0, n/2); got != n/2 || err != nil {
			t.Fatalf("%s: read of the first half = %d, %v", name, got, err)
		}
		if raw := len(rd.dec.PeekGroups(n)) > 0; raw != tc.lane {
			t.Fatalf("%s: first half taken by the groups lane = %v, want %v", name, raw, tc.lane)
		}
		if tc.lane && (buf.DenseLabels() != nil) != tc.dense {
			t.Fatalf("%s: the lane left a per-byte view = %v, want %v", name, buf.DenseLabels() != nil, tc.dense)
		}
		if got, err := rd.read(r.b, nil, &buf, n/2, n); got != n-n/2 || err != nil {
			t.Fatalf("%s: read of the second half = %d, %v", name, got, err)
		}
		if !bytes.Equal(buf.Data, data) {
			t.Fatalf("%s: the bytes differ from what was sent", name)
		}
		for i, l := range labels {
			if got := buf.LabelAt(i); got.Empty() != l.Empty() || (!l.Empty() && !got.Has(l.Values()[0])) {
				t.Fatalf("%s: byte %d carries %v, sent under %v", name, i, got.Values(), l.Values())
			}
		}
		if name == "one id over the whole body" {
			runs := 0
			buf.ForEachRun(func(int, int, taint.Taint) { runs++ })
			if runs != 1 || buf.DenseLabels() != nil {
				t.Fatalf("%s: delivered as %d runs, per-byte view %v; want one run in run mode", name, runs, buf.DenseLabels() != nil)
			}
		}
	}

	// What adoptGroups itself turns down, an untainted body, it leaves
	// exactly as it was.
	for name, tc := range map[string]struct {
		g   []byte
		buf taint.Bytes
	}{
		"an untainted body": {wire.EncodeRuns(nil, make([]byte, n), nil), fresh()},
	} {
		buf := tc.buf
		buf.SetRange(0, n/2, stale)
		buf.Data[0] = '.'
		before := otherShape(buf, [2]taint.Taint{stale, {}})
		if took, err := new(streamReader).adoptGroups(r.b, &buf, 0, tc.g); took != 0 || err != nil {
			t.Fatalf("%s: adoptGroups = %d, %v; want it turned down", name, took, err)
		}
		if buf.Data[0] != '.' {
			t.Fatalf("%s: a delivery the lane turned down wrote data", name)
		}
		for i := 0; i < n; i++ {
			if buf.LabelAt(i) != before.LabelAt(i) {
				t.Fatalf("%s: a delivery the lane turned down relabelled byte %d", name, i)
			}
		}
	}
}

// labelsOf returns the n labels label lays out.
func labelsOf(n int, label func(i int) taint.Taint) []taint.Taint {
	labels := make([]taint.Taint, n)
	for i := range labels {
		labels[i] = label(i)
	}
	return labels
}

// onePassRig is a stream of groups frames, one per labelling of pool,
// ready for a lane reader that resolves through a lookup spy and a
// reference reader held to the run path (readByRuns), with the buffers
// both fill.
type onePassRig struct {
	r      *rig
	spy    *flakyLookups
	b      *tracker.Agent // node2 behind the spy
	pool   []taint.Taint  // lanePool of node1
	frames [][]byte
	want   []taint.Taint // the label every delivered byte must carry, frame after frame
	data   []byte
}

func newOnePassRig(t *testing.T) *onePassRig {
	r := newRig(t, tracker.ModeDista)
	spy := &flakyLookups{Client: r.b.TaintMap()}
	b := tracker.New("node2", tracker.ModeDista, tracker.WithTaintMap(spy))
	return &onePassRig{r: r, spy: spy, b: b, pool: lanePool(r.a, "one")}
}

// send appends a groups frame per labelling to the stream.
func (o *onePassRig) send(t *testing.T, labellings ...[]taint.Taint) {
	rng := rand.New(rand.NewSource(int64(len(labellings))))
	for _, labels := range labellings {
		data := make([]byte, len(labels))
		rng.Read(data)
		o.frames = append(o.frames, wire.AppendGroupsFrame(nil, data, runsOf(t, o.r.a.TaintMap(), labels)))
		o.data = append(o.data, data...)
		for _, l := range labels {
			var want taint.Taint
			if !l.Empty() {
				id, err := o.r.a.TaintMap().Register(l)
				if err == nil {
					want, err = o.r.b.TaintMap().Lookup(id)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			o.want = append(o.want, want)
		}
	}
}

// lanePair returns a reader of the lane and its source — each frame a
// read of its own (the whole-frame lane), or, with decoded, the whole
// stream fed to the decoder up front (the decoder's groups, no source)
// — and the reference reader with its source.
func (o *onePassRig) lanePair(t *testing.T, decoded bool) (lr, rr *streamReader, lrecv, rrecv func([]byte) (int, error)) {
	magic := wire.AppendAdaptiveStreamMagic(nil)
	stream := bytes.Join(append([][]byte{magic}, o.frames...), nil)
	lr, rr = new(streamReader), new(streamReader)
	if decoded {
		if err := lr.dec.Feed(stream); err != nil {
			t.Fatal(err)
		}
	} else {
		units := []int{len(magic)}
		for _, f := range o.frames {
			units = append(units, len(f))
		}
		lrecv = (&chunkTransport{stream: stream, units: units}).RecvRaw
	}
	return lr, rr, lrecv, chunked(stream, len(stream))
}

// windows returns the lane's buffer and the reference's, margin bytes of
// stale labels around room for the stream: dense windows, or windows of
// a run-mode store too large to densify.
func (o *onePassRig) windows(margin int, runMode bool) (lane, ref taint.Bytes) {
	stale := lanePool(o.r.b, "stale")
	old := make([]taint.Taint, margin+len(o.want)+margin)
	for i := range old {
		old[i] = stale[1+(i/5)%(len(stale)-1)]
	}
	mk := func() taint.Bytes {
		return asDense(old, make([]byte, len(old)), [2]taint.Taint{stale[1], stale[2]}, len(old))
	}
	if runMode {
		mk = func() taint.Bytes { return asRuns(old, make([]byte, len(old))) }
	}
	return mk(), mk()
}

// check holds the lane's buffer to the reference's, byte for byte and
// label for label, and the delivered stretch to what was sent.
func (o *onePassRig) check(t *testing.T, name string, lane, ref taint.Bytes, margin int) {
	t.Helper()
	if !bytes.Equal(lane.Data, ref.Data) || !bytes.Equal(lane.Data[margin:margin+len(o.data)], o.data) {
		t.Fatalf("%s: the bytes differ from the run path's or from what was sent", name)
	}
	for i := range lane.Data {
		l, r := lane.LabelAt(i), ref.LabelAt(i)
		if l != r || i >= margin && i < margin+len(o.want) && l != o.want[i-margin] {
			t.Fatalf("%s: byte %d carries %v, by runs %v", name, i-margin, l.Values(), r.Values())
		}
	}
	if (lane.DenseLabels() != nil) != (ref.DenseLabels() != nil) {
		t.Fatalf("%s: the two paths left different representations", name)
	}
}

// TestOnePassLane pins when a stream reader takes a delivery in one
// pass: into a window already dense, of a frame whose first two distinct
// ids are the two it resolved last, in either order, or one of them
// alone — with no lookup at all. A third id mid-delivery costs one lookup
// and arrives whole; a new pair of ids or a run-mode window takes the two
// passes with one lookup a frame, as a datagram does, whose reader is
// new each time. Every read agrees with the run path, on the decoder's
// groups and on the whole-frame lane alike.
func TestOnePassLane(t *testing.T) {
	const n, margin = 600, 9
	for _, tc := range []struct {
		name    string
		frames  [][2]int // each frame alternates two labels of the pool (0: clean)
		runMode bool
		lookups []int // per frame
	}{
		{"the same two ids, frame after frame", [][2]int{{1, 2}, {2, 1}, {1, 2}, {0, 2}}, false, []int{1, 0, 0, 0}},
		{"a third id mid-delivery", [][2]int{{1, 2}, {1, 2}}, false, []int{1, 1}},
		{"a new pair of ids", [][2]int{{1, 2}, {4, 5}, {4, 1}}, false, []int{1, 1, 1}},
		{"a run-mode window", [][2]int{{1, 2}, {1, 2}}, true, []int{1, 1}},
	} {
		for _, decoded := range []bool{false, true} {
			o := newOnePassRig(t)
			for k, f := range tc.frames {
				labels := labelsOf(n, func(i int) taint.Taint { return o.pool[f[i&1]] })
				if k == 1 && tc.name == "a third id mid-delivery" {
					labels[n/2] = o.pool[3]
				}
				o.send(t, labels)
			}
			name := fmt.Sprintf("%s (decoded %v)", tc.name, decoded)
			lr, rr, lrecv, rrecv := o.lanePair(t, decoded)
			lane, ref := o.windows(margin, tc.runMode)
			calls := 0
			o.spy.seen = func() { calls++ }
			for k, want := range tc.lookups {
				at := margin + k*n
				before := calls
				ln, lerr := lr.read(o.b, lrecv, &lane, at, at+n)
				rn, rerr := readByRuns(rr, o.r.b, rrecv, &ref, at, at+n)
				if lerr != nil || rerr != nil || ln != n || rn != n {
					t.Fatalf("%s: read of frame %d = %d, %v; by runs %d, %v", name, k, ln, lerr, rn, rerr)
				}
				if got := calls - before; got != want {
					t.Fatalf("%s: frame %d made %d lookups, want %d", name, k, got, want)
				}
			}
			o.check(t, name, lane, ref, margin)
			if lane.DenseLabels() == nil != tc.runMode {
				t.Fatalf("%s: the window has a per-byte view = %v", name, lane.DenseLabels() != nil)
			}
		}
	}

	t.Run("datagram", func(t *testing.T) {
		o := newOnePassRig(t)
		sa, _ := o.r.net.ListenPacket("a:1")
		sb, _ := o.r.net.ListenPacket("b:1")
		pair := [2]taint.Taint{o.r.a.Source("s", "even"), o.r.a.Source("s", "odd")}
		msg := taint.MakeBytes(n)
		for i := range msg.Data {
			msg.Data[i] = byte(i)
			msg.SetLabel(i, pair[i&1])
		}
		buf := taint.MakeBytes(n)
		calls := 0
		o.spy.seen = func() { calls++ }
		for k := range 3 {
			if err := PacketSend(o.r.a, sa, msg, "b:1"); err != nil {
				t.Fatal(err)
			}
			if got, _, err := PacketReceive(o.b, sb, &buf); err != nil || got != n || !bytes.Equal(buf.Data, msg.Data) {
				t.Fatalf("receive %d = %d, %v", k, got, err)
			}
			if buf.DenseLabels() == nil || calls != k+1 {
				t.Fatalf("receive %d: per-byte view %v after %d lookups; want one a datagram", k, buf.DenseLabels() != nil, calls)
			}
		}
		for i := range buf.Data {
			if l := buf.LabelAt(i); l.Len() != 1 || !l.Has([2]string{"even", "odd"}[i&1]) {
				t.Fatalf("byte %d arrived under %v", i, l.Values())
			}
		}
	})
}

// TestOnePassLaneOutage: a third id met in one pass whose lookup fails
// ends the read short at that byte, with a nil error, what came before
// it delivered; the next read fails with the buffer and the decoder as
// they were; the retry delivers the rest. On the whole-frame lane the
// rest of the frame waits in the decoder. The buffer then matches the run
// path's.
func TestOnePassLaneOutage(t *testing.T) {
	const n, margin = 600, 9
	for _, decoded := range []bool{false, true} {
		name := fmt.Sprintf("decoded %v", decoded)
		o := newOnePassRig(t)
		alternate := func(i int) taint.Taint { return o.pool[1+i&1] }
		third := labelsOf(n, alternate)
		third[n/2+1] = o.pool[3]
		o.send(t, labelsOf(n, alternate), third)
		lr, rr, lrecv, rrecv := o.lanePair(t, decoded)
		lane, ref := o.windows(margin, false)
		for pos := 0; pos < 2*n; {
			n, err := readByRuns(rr, o.r.b, rrecv, &ref, margin+pos, margin+2*n)
			if err != nil {
				t.Fatal(err)
			}
			pos += n
		}
		if got, err := lr.read(o.b, lrecv, &lane, margin, margin+n); got != n || err != nil {
			t.Fatalf("%s: the first frame = %d, %v", name, got, err)
		}
		o.spy.fail = 1
		if got, err := lr.read(o.b, lrecv, &lane, margin+n, margin+2*n); got != n/2+1 || err != nil {
			t.Fatalf("%s: the read that meets the third id = %d, %v; want %d, nil", name, got, err, n/2+1)
		}
		if o.spy.fail != 0 {
			t.Fatalf("%s: the third id was not looked up", name)
		}
		if left := lr.dec.Buffered(); left != n-n/2-1 {
			t.Fatalf("%s: %d bytes wait in the decoder, want %d", name, left, n-n/2-1)
		}
		held := append([]byte(nil), lr.dec.PeekGroups(n)...)
		before := otherShape(lane, [2]taint.Taint{})
		o.spy.fail = 1
		if got, err := lr.read(o.b, lrecv, &lane, margin+n+n/2+1, margin+2*n); got != 0 || !errors.Is(err, errLookupDown) {
			t.Fatalf("%s: the next read = %d, %v; want 0, %v", name, got, err, errLookupDown)
		}
		if !bytes.Equal(lr.dec.PeekGroups(n), held) || !bytes.Equal(lane.Data, before.Data) {
			t.Fatalf("%s: the failed read moved the decoder or wrote bytes", name)
		}
		for i := range lane.Data {
			if lane.LabelAt(i) != before.LabelAt(i) {
				t.Fatalf("%s: the failed read relabelled byte %d", name, i-margin)
			}
		}
		if got, err := lr.read(o.b, lrecv, &lane, margin+n+n/2+1, margin+2*n); got != n-n/2-1 || err != nil {
			t.Fatalf("%s: the retry = %d, %v; want %d, nil", name, got, err, n-n/2-1)
		}
		o.check(t, name, lane, ref, margin)
	}
}
