package jre

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dista/internal/core/taint"
)

// dataWrite is one write of the data-stream tests: a primitive writer of
// DataOutputStream, or BufferedOutputStream.WriteTaintedByte (byte, when
// the destination is buffered; the reference writes the same byte with
// WriteByteValue).
type dataWrite struct {
	kind  int // index into dataKinds
	v     uint64
	label taint.Taint
}

var dataKinds = []string{"byte", "bool", "int16", "int32", "int64", "float64", "utf", "string32", "bytes32", "int32array", "taintedbyte"}

// text is the string a string-valued write of v carries: up to 15 bytes.
func (d dataWrite) text() string { return strings.Repeat(string(rune('a'+d.v%26)), int(d.v>>8%16)) }

func (d dataWrite) put(w *DataOutputStream, bw *BufferedOutputStream) error {
	switch dataKinds[d.kind] {
	case "byte":
		return w.WriteByteValue(byte(d.v), d.label)
	case "bool":
		return w.WriteBool(d.v&1 == 1, d.label)
	case "int16":
		return w.WriteInt16(int16(d.v), d.label)
	case "int32":
		return w.WriteInt32(taint.Int32{Value: int32(d.v), Label: d.label})
	case "int64":
		return w.WriteInt64(taint.Int64{Value: int64(d.v), Label: d.label})
	case "float64":
		return w.WriteFloat64(math.Float64frombits(d.v), d.label)
	case "utf":
		return w.WriteUTF(taint.String{Value: d.text(), Label: d.label})
	case "string32":
		return w.WriteString32(taint.String{Value: d.text(), Label: d.label})
	case "bytes32":
		return w.WriteBytes32(taint.FromString(d.text(), d.label))
	case "int32array":
		return w.WriteInt32Array([]int32{int32(d.v), int32(d.v >> 32)}[:d.v%3], d.label)
	}
	if bw == nil {
		return w.WriteByteValue(byte(d.v), d.label)
	}
	return bw.WriteTaintedByte(byte(d.v), d.label)
}

// get reads back what put wrote and reports whether the value and its
// label round-tripped: a value's label is the union of its bytes', so an
// empty string or array reads back unlabelled.
func (d dataWrite) get(r *DataInputStream) bool {
	var ok bool
	var got taint.Taint
	var err error
	want := d.label
	switch k := dataKinds[d.kind]; k {
	case "byte", "taintedbyte":
		var v byte
		v, got, err = r.ReadByteValue()
		ok = v == byte(d.v)
	case "bool":
		var v bool
		v, got, err = r.ReadBool()
		ok = v == (d.v&1 == 1)
	case "int16":
		var v int16
		v, got, err = r.ReadInt16()
		ok = v == int16(d.v)
	case "int32":
		var v taint.Int32
		v, err = r.ReadInt32()
		got, ok = v.Label, v.Value == int32(d.v)
	case "int64":
		var v taint.Int64
		v, err = r.ReadInt64()
		got, ok = v.Label, v.Value == int64(d.v)
	case "float64":
		var v float64
		v, got, err = r.ReadFloat64()
		ok = math.Float64bits(v) == d.v
	case "utf", "string32", "bytes32":
		var s taint.String
		switch k {
		case "utf":
			s, err = r.ReadUTF()
		case "string32":
			s, err = r.ReadString32()
		default:
			var b taint.Bytes
			b, err = r.ReadBytes32()
			s = taint.StringOf(b)
		}
		got, ok = s.Label, s.Value == d.text()
		if d.text() == "" {
			want = taint.Taint{}
		}
	case "int32array":
		var vals []int32
		vals, got, err = r.ReadInt32Array()
		exp := []int32{int32(d.v), int32(d.v >> 32)}[:d.v%3]
		ok = len(vals) == len(exp) && (len(exp) == 0 || vals[0] == exp[0]) && (len(exp) < 2 || vals[1] == exp[1])
		if len(exp) == 0 {
			want = taint.Taint{}
		}
	}
	return err == nil && ok && taint.SameSet(got, want)
}

// TestBufferedDataStreamMatchesGeneric writes one seeded sequence through
// DataOutputStream into a BufferedOutputStream, whose buffer labels each
// value where it lands, and through a bare ByteArrayOutputStream, which
// takes the generic path (a label store per value, copied by Write):
// every byte and every byte's label must match, at buffer sizes that
// split values and one that holds them all. The second round, after a
// Flush, labels each value differently from the first, so a value
// written with the empty label must clear what the first fill left in
// the buffer.
func TestBufferedDataStreamMatchesGeneric(t *testing.T) {
	tr := taint.NewTree()
	labels := []taint.Taint{tr.NewSource("a", "1"), {}, tr.NewSource("b", "2")}
	rng := rand.New(rand.NewSource(38))
	var seq []dataWrite
	for i := 0; i < 300; i++ {
		seq = append(seq, dataWrite{kind: rng.Intn(len(dataKinds)), v: rng.Uint64()})
	}
	for _, size := range []int{1, 3, 7, 8192} {
		ref := NewByteArrayOutputStream()
		got := NewByteArrayOutputStream()
		rw := NewDataOutputStream(ref)
		bw := NewBufferedOutputStreamSize(got, size)
		w := NewDataOutputStream(bw)
		for round := 0; round < 2; round++ {
			for i, d := range seq {
				d.label = labels[(i+round)%len(labels)]
				if err := d.put(rw, nil); err != nil {
					t.Fatal(err)
				}
				if err := d.put(w, bw); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		want, have := ref.Bytes(), got.Bytes()
		if string(have.Data) != string(want.Data) {
			t.Fatalf("size %d: %d bytes differ from the generic path's %d", size, have.Len(), want.Len())
		}
		for i := range want.Data {
			if !taint.SameSet(have.LabelAt(i), want.LabelAt(i)) {
				t.Fatalf("size %d: byte %d labelled %v, generic path %v", size, i, have.LabelAt(i), want.LabelAt(i))
			}
		}
	}
}

// discard is an OutputStream that drops what it is given.
type discard struct{}

func (discard) Write(taint.Bytes) error { return nil }
func (discard) Flush() error            { return nil }

// TestTaintedPrimitiveAllocs pins that a buffered destination labels a
// tainted primitive in its own buffer: the taint costs no allocation over
// the empty one (the value's bytes are the app model's and allocated
// either way), and a tainted byte costs none at all.
func TestTaintedPrimitiveAllocs(t *testing.T) {
	tt := taint.NewTree().NewSource("v", "1")
	bw := NewBufferedOutputStreamSize(discard{}, 512)
	w := NewDataOutputStream(bw)
	writers := map[string]func(taint.Taint) error{
		"WriteInt16":   func(l taint.Taint) error { return w.WriteInt16(7, l) },
		"WriteInt32":   func(l taint.Taint) error { return w.WriteInt32(taint.Int32{Value: 7, Label: l}) },
		"WriteInt64":   func(l taint.Taint) error { return w.WriteInt64(taint.Int64{Value: 7, Label: l}) },
		"WriteFloat64": func(l taint.Taint) error { return w.WriteFloat64(7, l) },
		"WriteBool":    func(l taint.Taint) error { return w.WriteBool(true, l) },
	}
	allocs := func(f func(taint.Taint) error, l taint.Taint) float64 {
		for i := 0; i < 1000; i++ { // warm: the buffer's store has grown what it needs
			if err := f(l); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(1000, func() { _ = f(l) })
	}
	for name, f := range writers {
		if clean, tainted := allocs(f, taint.Taint{}), allocs(f, tt); tainted > clean {
			t.Errorf("%s: %.0f allocations with a taint, %.0f without", name, tainted, clean)
		}
	}
	byteWrite := func(l taint.Taint) error { return bw.WriteTaintedByte('x', l) }
	if n := allocs(byteWrite, tt); n != 0 {
		t.Errorf("BufferedOutputStream.WriteTaintedByte: %.0f allocations with a taint, want 0", n)
	}
}

// FuzzDataStreamRoundTrip writes a sequence of primitives drawn from the
// input, each with a label drawn from it too, through a BufferedOutputStream
// of a size drawn from it, and reads them back through a DataInputStream
// over a BufferedInputStream: every value and its label must come back.
func FuzzDataStreamRoundTrip(f *testing.F) {
	f.Add([]byte("\x00\x01abcdefgh\x05\x00ABCDEFGH\x0a\x02\x00\x00\x00\x00\x00\x00\x01\x02"), uint8(3), uint8(5))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte(strings.Repeat("\x04\x01\xff\xff\xff\xff\xff\xff\xff\xff\x03\x02\x80\x00\x00\x00\x00\x00\x00\x00", 8)), uint8(7), uint8(2))
	f.Add([]byte(strings.Repeat("\x06\x00\x00\x00\x00\x00\x00\x00\x0c\x61\x0a\x02\x00\x00\x00\x00\x00\x00\x00\x78", 5)), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, outSize, inSize uint8) {
		tr := taint.NewTree()
		labels := []taint.Taint{{}, tr.NewSource("a", "1"), tr.NewSource("b", "2")}
		var seq []dataWrite
		for ; len(ops) >= 10; ops = ops[10:] {
			seq = append(seq, dataWrite{
				kind:  int(ops[0]) % len(dataKinds),
				label: labels[int(ops[1])%len(labels)],
				v:     binary.BigEndian.Uint64(ops[2:]),
			})
		}
		sink := NewByteArrayOutputStream()
		bw := NewBufferedOutputStreamSize(sink, int(outSize%16)+1)
		w := NewDataOutputStream(bw)
		for _, d := range seq {
			if err := d.put(w, bw); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewDataInputStream(NewBufferedInputStreamSize(NewByteArrayInputStream(sink.Bytes()), int(inSize%16)+1))
		for i, d := range seq {
			if !d.get(r) {
				t.Fatalf("write %d (%s %#x, label %v) did not round-trip", i, dataKinds[d.kind], d.v, d.label)
			}
		}
		if _, _, err := r.ReadByteValue(); err == nil {
			t.Fatal("bytes left over after the last value")
		}
	})
}
