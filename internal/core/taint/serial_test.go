package taint

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"
)

func TestMarshalEmptyTaint(t *testing.T) {
	blob, err := MarshalTaint(Taint{})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree()
	got, err := tr.UnmarshalTaint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatalf("round trip of empty taint = %v", got)
	}
}

func TestMarshalRoundTripAcrossTrees(t *testing.T) {
	sender := NewTree()
	a := sender.NewSource("a_tag", "10.0.0.1:100")
	b := sender.NewSource("b_tag", "10.0.0.1:100")
	ab := Combine(a, b)

	blob, err := MarshalTaint(ab)
	if err != nil {
		t.Fatal(err)
	}
	receiver := NewTree()
	got, err := receiver.UnmarshalTaint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !SameSet(got, ab) {
		t.Fatalf("decoded %v, want same set as %v", got, ab)
	}
	if got.Tree() != receiver {
		t.Fatal("decoded taint must live in the receiver's tree")
	}
}

func TestUnmarshalInternsRepeatedArrivals(t *testing.T) {
	sender := NewTree()
	blob, err := MarshalTaint(Combine(sender.NewSource("x", "l"), sender.NewSource("y", "l")))
	if err != nil {
		t.Fatal(err)
	}
	receiver := NewTree()
	t1, err := receiver.UnmarshalTaint(blob)
	if err != nil {
		t.Fatal(err)
	}
	before := receiver.NodeCount()
	t2, err := receiver.UnmarshalTaint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if t1.n != t2.n {
		t.Fatal("repeated decode must intern to the same node")
	}
	if receiver.NodeCount() != before {
		t.Fatal("repeated decode must not grow the tree")
	}
}

// malformedBlobs are refused by UnmarshalTaint; FuzzUnmarshalTaint starts
// from them too.
var malformedBlobs = []struct {
	name string
	blob []byte
}{
	{name: "empty blob", blob: nil},
	{name: "count with no tags", blob: []byte{0, 1}},
	{name: "truncated value", blob: []byte{0, 1, 0, 5, 'a'}},
	{name: "missing local id", blob: []byte{0, 1, 0, 1, 'a'}},
	{name: "trailing garbage", blob: []byte{0, 0, 0xff}},
	{name: "bad second tag", blob: append(blobOf(TagKey{"a", "l"}, TagKey{"b", "l"}), 0)},
}

func TestUnmarshalErrors(t *testing.T) {
	tr := NewTree()
	for _, tt := range malformedBlobs {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tr.UnmarshalTaint(tt.blob); err == nil {
				t.Fatalf("want error for %q", tt.name)
			}
			if tr.NodeCount() != 0 {
				t.Fatalf("a refused blob left %d nodes in the tree", tr.NodeCount())
			}
		})
	}
}

func TestSerializedTaintIsLarge(t *testing.T) {
	// Sanity check on the paper's motivation (§III-D-2): a realistic
	// single-tag taint blob with descriptor-style tag values is tens to
	// hundreds of bytes, so shipping it per byte would be ruinous.
	tr := NewTree()
	tag := tr.NewSource(
		"org.apache.zookeeper.server.quorum.FastLeaderElection$Notification.vote",
		"192.168.10.21:28841",
	)
	blob, err := MarshalTaint(tag)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 50 {
		t.Fatalf("expected a realistically large blob, got %d bytes", len(blob))
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(vals []string, locs []string) bool {
		sender := NewTree()
		acc := Taint{}
		for i, v := range vals {
			loc := "l"
			if len(locs) > 0 {
				loc = locs[i%len(locs)]
			}
			if len(v) > 1000 || len(loc) > 1000 {
				continue
			}
			acc = Combine(acc, sender.NewSource(v, loc))
		}
		blob, err := MarshalTaint(acc)
		if err != nil {
			return false
		}
		got, err := NewTree().UnmarshalTaint(blob)
		if err != nil {
			return false
		}
		return SameSet(got, acc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// parseKeys is the reference for UnmarshalTaint's walk over wire bytes:
// the blob's keys as strings, duplicates and all, or why it is no blob.
func parseKeys(blob []byte) ([]TagKey, error) {
	if len(blob) < 2 {
		return nil, ErrTruncatedTaint
	}
	keys := make([]TagKey, binary.BigEndian.Uint16(blob))
	blob = blob[2:]
	for i := range keys {
		for _, s := range []*string{&keys[i].Value, &keys[i].LocalID} {
			if len(blob) < 2 || len(blob) < 2+int(binary.BigEndian.Uint16(blob)) {
				return nil, ErrTruncatedTaint
			}
			n := 2 + int(binary.BigEndian.Uint16(blob))
			*s, blob = string(blob[2:n]), blob[n:]
		}
	}
	if len(blob) != 0 {
		return nil, ErrTruncatedTaint
	}
	return keys, nil
}

// FuzzUnmarshalTaint holds the byte walk to the string walk: a blob is
// refused by both (and leaves the tree alone) or interns to the node
// FromKeys finds for its keys, under the real hash and a colliding one,
// and marshals back to those keys less their repeats.
func FuzzUnmarshalTaint(f *testing.F) {
	for _, c := range malformedBlobs {
		f.Add(c.blob)
	}
	a, b, c := TagKey{"a_tag", "10.0.0.1:100"}, TagKey{"b_tag", "10.0.0.1:100"}, TagKey{"a_tag", "10.0.0.2:100"}
	for _, keys := range [][]TagKey{{}, {a}, {a, b}, {b, a}, {a, b, c}, {a, b, a, c, b}, {{}, a, {}}, siblingKeys(12)} {
		f.Add(blobOf(keys...))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		keys, refused := parseKeys(blob)
		for _, fold := range masks {
			withMask(t, fold.mask)
			tr := NewTree()
			tr.FromKeys(siblingKeys(listMax)) // a tree with something in it: a path the blob may share
			before := tr.NodeCount()
			got, err := tr.UnmarshalTaint(blob)
			if (err != nil) != (refused != nil) {
				t.Fatalf("%s: byte walk says %v, string walk %v", fold.name, err, refused)
			}
			if err != nil {
				if tr.NodeCount() != before {
					t.Fatalf("%s: a refused blob grew the tree", fold.name)
				}
				continue
			}
			if want := tr.FromKeys(keys); got != want {
				t.Fatalf("%s: UnmarshalTaint = %v, FromKeys of the same keys = %v", fold.name, got, want)
			}
			var set []TagKey
			for _, k := range keys {
				if !slices.Contains(set, k) {
					set = append(set, k)
				}
			}
			if !slices.Equal(got.Keys(), set) {
				t.Fatalf("%s: keys %v, want %v", fold.name, got.Keys(), set)
			}
			again, err := MarshalTaint(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blobOf(set...)) {
				t.Fatalf("%s: marshals back to %x, want %x", fold.name, again, blobOf(set...))
			}
		}
	})
}
