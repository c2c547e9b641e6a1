package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/taintmap"
)

// outage is a Taint Map client whose registrations fail with err while it
// is set: an owner that sheds them (ErrOverloaded), or a member the
// breaker has given up on (ErrDegraded).
type outage struct {
	taintmap.Client
	err            error
	calls, carried int   // registration attempts, and the taints they carried
	answer         error // what the registration issued last is answered
}

func (o *outage) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	o.calls, o.carried = o.calls+1, o.carried+len(ts)
	if o.err != nil {
		return nil, o.err
	}
	return o.Client.RegisterBatch(ts)
}

func (o *outage) Issue(r *taintmap.Registration, ts []taint.Taint, blobs [][]byte) {
	o.calls, o.carried = o.calls+1, o.carried+len(ts)
	if o.answer = o.err; o.err == nil {
		o.Client.Issue(r, ts, blobs)
	}
}

func (o *outage) Collect(r *taintmap.Registration) error {
	if o.answer != nil {
		return o.answer
	}
	return o.Client.Collect(r)
}

// FuzzTierTransition drives an adaptive endpoint pair through a
// fuzzer-chosen density schedule and checks the two properties the send
// ladder must never lose. Every byte arrives with exactly the labels it
// was sent with, no matter how the stream flaps between the passthrough,
// uniform, sparse and groups encodings. And no write puts more on the
// wire than the frame of its own buffer's sound minimum — header, that
// tier's metadata, body — whatever the writes before it looked like,
// beside the stream magic on the first and a definitions unit on one
// that registers a taint (referenceFrame, definitionsOf). Each pair of
// input bytes is one message — the first picks the kind (clean,
// uniform, sparse island, dense alternation; with its top bit set the
// alternation is between a label and clean, a comb of one-byte islands)
// and the label source, the second the length — so the fuzzer explores
// tier transitions the phased unit tests never schedule. Bit 6 of the
// kind folds a taint of the message's own into its label: the write has
// to register it, so a definitions unit crosses ahead of that frame,
// wherever in the schedule and on whichever tier. step bounds the reader's buffer
// (0 = as much as is left): a small one pops the decoder in pieces that
// split label runs.
//
// shape pairs the two shadow representations on both ends. Every
// message has a twin holding the same labels the other way — run-mode
// for a densified one, dense for the rest — and the groups writer must
// encode the two identically; bit 0 sends the twins. Bit 1 starts the
// receiving buffer dense under stale labels, so deliveries go through
// the adopt lane from the first read instead of once fragmentation has
// densified it. Bit 2 makes the sender's Taint Map shed registrations
// through the middle third of the messages: their taints cross inline,
// in definitions units under stream-scoped ids (registered after each
// write, so its bound is the one a registering write has). Bit 3 reads
// each message before the next is written, so a frame arrives in a read
// of its own: one whose ids crossed before is read whole, and a groups
// frame into a dense buffer takes the whole-frame lane. Bit 4 fails the
// receiving agent's lookups while it reads the middle third of the
// messages: each read there meets one failed lookup, and the read that
// fails is retried. A delivery taken in one pass that meets a third id
// there ends short before it, and the read after it fails.
//
// Both receive paths run against each other: each message also goes down
// a second connection, written beside the first, whose raw bytes are
// replayed through the run path alone (readByRuns), in reads step
// chooses, into a buffer of the same shape, and the two buffers must
// agree byte for byte and label for label — whichever deliveries the live
// endpoint read per byte, and whatever crossed inline.
func FuzzTierTransition(f *testing.F) {
	// One phase per tier.
	steady := func(kind byte) []byte {
		var s []byte
		for i := 0; i < 12; i++ {
			s = append(s, kind, 63)
		}
		return s
	}
	f.Add(steady(1), uint8(0), uint8(0))                                                     // uniform
	f.Add(steady(2), uint8(0), uint8(1))                                                     // sparse, from dense stores
	f.Add(steady(3), uint8(0), uint8(0))                                                     // dense
	f.Add(steady(3), uint8(0), uint8(3))                                                     // dense labels from run-mode stores into a dense one
	f.Add([]byte{1, 255, 2, 31, 0, 15, 3, 63}, uint8(0), uint8(2))                           // one message per tier
	f.Add([]byte{1, 7, 0, 7, 1, 7, 0, 7, 1, 7}, uint8(0), uint8(0))                          // clean/uniform interleave
	f.Add([]byte{3, 0, 1, 0, 3, 0, 1, 0, 2, 0}, uint8(0), uint8(1))                          // tiny flapping messages
	f.Add(append(steady(1), append(steady(3), steady(1)...)...), uint8(0), uint8(0))         // U->G->U
	f.Add([]byte{3, 255, 3, 255, 3, 255, 3, 255}, uint8(0), uint8(0))                        // alternating ids, 256 runs a frame
	f.Add([]byte{3, 255, 7, 255, 3, 254}, uint8(3), uint8(2))                                // the same through 3-byte pops
	f.Add([]byte{1, 255, 2, 255, 6, 200, 1, 99}, uint8(7), uint8(3))                         // long runs: every pop splits one
	f.Add([]byte{0x83, 19, 0x83, 63, 2, 19, 0x83, 19}, uint8(0), uint8(0))                   // combs: 10 islands in 20 bytes outweigh their groups as a range table
	f.Add([]byte{0x41, 63, 0x42, 31, 0, 15, 0x43, 63, 1, 7, 0x41, 7}, uint8(0), uint8(0))    // a definitions unit ahead of a frame of every tainted tier
	f.Add([]byte{0x43, 200, 0x41, 200, 0x42, 99, 0xc3, 19}, uint8(3), uint8(3))              // the same through 3-byte pops into a dense buffer
	f.Add([]byte{0x41, 63, 0x42, 31, 0, 15, 0x43, 63, 1, 7, 0x41, 7}, uint8(0), uint8(4))    // the Taint Map sheds: scoped definitions on every tainted tier
	f.Add([]byte{0x43, 200, 3, 200, 0x42, 99, 0xc3, 19, 1, 9, 0x41, 50}, uint8(3), uint8(7)) // the same through 3-byte pops into a dense buffer, ids reused
	f.Add([]byte{3, 255, 3, 255, 0x83, 199, 3, 63}, uint8(0), uint8(10))                     // groups frames read whole into a dense buffer

	f.Fuzz(func(t *testing.T, sched []byte, step, shape uint8) {
		if len(sched) < 2 {
			return
		}
		if len(sched) > 128 {
			sched = sched[:128] // at most 64 messages per exec
		}

		r := newRig(t, tracker.ModeDista)
		tm := &outage{Client: r.a.TaintMap()}
		r.a = tracker.New("node1", tracker.ModeDista, tracker.WithTaintMap(tm), tracker.WithLocalID(r.a.LocalID()))
		flaky := &flakyLookups{Client: r.b.TaintMap()} // the receiver's alone: the replay resolves through r.b
		node2 := tracker.New("node2", tracker.ModeDista, tracker.WithTaintMap(flaky), tracker.WithLocalID(r.b.LocalID()))
		srcs := []taint.Taint{
			r.a.Source("fz0", "fz0"),
			r.a.Source("fz1", "fz1"),
			r.a.Source("fz2", "fz2"),
		}
		tagOf := []string{"fz0", "fz1", "fz2"}

		// Decode the schedule into messages first so the reader knows the
		// exact stream length; wantTag[i] is the label byte i of the
		// concatenated stream must carry ("" = must stay clean).
		var msgs, twins []taint.Bytes
		var wantTag []string
		for i := 0; i+1 < len(sched); i += 2 {
			kind, n := sched[i]%4, 1+int(sched[i+1])
			li := int(sched[i]>>2) % len(srcs)
			lbl := srcs[li]
			if sched[i]&0x40 != 0 {
				lbl = taint.Combine(lbl, r.a.Source("fz", fmt.Sprint("own", i)))
			}
			b := taint.MakeBytes(n)
			for j := range b.Data {
				b.Data[j] = '0' + kind
			}
			switch kind {
			case 0: // clean
				for j := 0; j < n; j++ {
					wantTag = append(wantTag, "")
				}
			case 1: // uniform
				b.SetRange(0, n, lbl)
				for j := 0; j < n; j++ {
					wantTag = append(wantTag, tagOf[li])
				}
			case 2: // sparse: one dirty island placed by the fuzzer
				off := int(sched[i]>>2) % n
				end := off + 1 + int(sched[i+1]>>5)
				if end > n {
					end = n
				}
				b.SetRange(off, end, lbl)
				for j := 0; j < n; j++ {
					if j >= off && j < end {
						wantTag = append(wantTag, tagOf[li])
					} else {
						wantTag = append(wantTag, "")
					}
				}
			case 3: // dense: alternate two sources, or a source and clean, byte by byte
				for j := 0; j < n; j++ {
					if j%2 == 0 {
						b.SetLabel(j, lbl)
						wantTag = append(wantTag, tagOf[li])
					} else if sched[i]&0x80 != 0 {
						wantTag = append(wantTag, "")
					} else {
						b.SetLabel(j, srcs[(li+1)%len(srcs)])
						wantTag = append(wantTag, tagOf[(li+1)%len(srcs)])
					}
				}
			}
			twin := otherShape(b, [2]taint.Taint{srcs[0], srcs[1]})
			if shape&1 != 0 {
				b, twin = twin, b
			}
			msgs, twins = append(msgs, b), append(twins, twin)
		}
		total := len(wantTag)

		ca, cb := r.net.Pipe()
		sender, receiver := NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(node2, cb)
		ra, rb := r.net.Pipe()
		replay := NewAdaptiveEndpoint(r.a, ra)

		got, ref := taint.MakeBytes(total), taint.MakeBytes(total)
		if shape&2 != 0 {
			stale := [2]taint.Taint{r.b.Source("fz", "stale0"), r.b.Source("fz", "stale1")}
			for i := range got.Data {
				got.SetLabel(i, stale[i&1])
				ref.SetLabel(i, stale[i&1])
			}
		}
		// The stream bytes of the middle third of the messages: where bit 4
		// fails the receiver's lookups.
		downFrom, downTo := 0, 0
		for mi, msg := range msgs {
			if mi < len(msgs)/3 {
				downFrom += msg.Len()
			}
			if mi < 2*len(msgs)/3 {
				downTo += msg.Len()
			}
		}
		// readTo reads the stream up to byte to; the stream must end there
		// exactly where the schedule says.
		readTo := func(pos, to int) error {
			for pos < to {
				end := to
				if step > 0 && pos+int(step) < to {
					end = pos + int(step)
				}
				sub := got.Slice(pos, end)
				flaky.fail = 0
				if shape&16 != 0 && pos >= downFrom && pos < downTo {
					flaky.fail = 1
				}
				n, err := receiver.Read(&sub)
				if errors.Is(err, errLookupDown) {
					n, err = receiver.Read(&sub) // the retry, the Taint Map back
				}
				if err != nil {
					return fmt.Errorf("read at %d/%d: %w", pos, total, err)
				}
				pos += n
			}
			if to < total {
				return nil
			}
			tail := taint.MakeBytes(1)
			if n, err := receiver.Read(&tail); err != io.EOF || n != 0 {
				return fmt.Errorf("trailing read = %d, %v; want 0, EOF", n, err)
			}
			return nil
		}
		lockstep := shape&8 != 0
		recvErr := make(chan error, 1)
		if !lockstep {
			go func() { recvErr <- readTo(0, total) }()
		}

		read := 0 // stream bytes read in lockstep
		for mi, msg := range msgs {
			fresh := freshIn(msg)
			tm.err = nil
			if shape&4 != 0 && mi >= len(msgs)/3 && mi < 2*len(msgs)/3 {
				tm.err = taintmap.ErrOverloaded
			}
			_, before := r.a.Traffic()
			if err := sender.Write(msg); err != nil {
				t.Fatalf("write %d (kind %q, len %d): %v", mi, msg.Data[0], msg.Len(), err)
			}
			_, after := r.a.Traffic()
			if err := replay.Write(msg); err != nil {
				t.Fatal(err)
			}
			if lockstep && mi < len(msgs)-1 {
				if err := readTo(read, read+msg.Len()); err != nil {
					t.Fatal(err)
				}
				read += msg.Len()
			}
			if tm.err != nil {
				if _, err := tm.Client.RegisterBatch(fresh); err != nil {
					t.Fatal(err)
				}
			}
			bound := len(referenceFrame(msg)) + len(definitionsOf(t, fresh))
			if mi == 0 {
				bound += wire.StreamMagicLen
			}
			if sent := int(after - before); sent > bound {
				t.Fatalf("write %d (kind %q, len %d, %d taints registered) put %d bytes on the wire, %d past its sound minimum",
					mi, msg.Data[0], msg.Len(), len(fresh), sent, sent-bound)
			}
			// The same labels in the other representation must encode to
			// the same groups. After the write, which is then the one that
			// meets unregistered labels, on whichever tier it picked.
			enc, err := appendGroups(r.a, nil, msg, wire.TierGroups, nil)
			if err != nil {
				t.Fatal(err)
			}
			if encTwin, err := appendGroups(r.a, nil, twins[mi], wire.TierGroups, nil); err != nil || !bytes.Equal(enc, encTwin) {
				t.Fatalf("message %d (kind %q, len %d, dense view %v): its twin encodes differently (err %v)",
					mi, msg.Data[0], msg.Len(), msg.DenseLabels() != nil, err)
			}
		}
		ca.Close()
		if lockstep {
			recvErr <- readTo(read, total)
		}
		if err := <-recvErr; err != nil {
			t.Fatal(err)
		}

		// The replay: the same schedule on a connection of its own, its
		// wire bytes cut into reads of 1 + 3*step and adopted by runs only.
		ra.Close()
		var byRuns streamReader
		recv := chunked(readAllRaw(t, rb), 1+3*int(step))
		for pos := 0; pos < total; {
			end := total
			if step > 0 && pos+int(step) < total {
				end = pos + int(step)
			}
			n, err := readByRuns(&byRuns, r.b, recv, &ref, pos, end)
			if err != nil {
				t.Fatalf("replay by runs at %d/%d: %v", pos, total, err)
			}
			pos += n
		}
		if !bytes.Equal(got.Data, ref.Data) {
			t.Fatal("the endpoint and the run path delivered different bytes")
		}

		for i, want := range wantTag {
			lbl := got.LabelAt(i)
			if other := ref.LabelAt(i); other != lbl {
				t.Fatalf("stream byte %d (kind %q): the endpoint left %v, the run path %v", i, got.Data[i], lbl.Values(), other.Values())
			}
			if want == "" {
				if !lbl.Empty() {
					t.Fatalf("stream byte %d (kind %q) grew taint %v", i, got.Data[i], lbl.Values())
				}
				continue
			}
			if !lbl.Has(want) {
				t.Fatalf("stream byte %d (kind %q) lost label %q (has %v)", i, got.Data[i], want, lbl.Values())
			}
		}
	})
}
