package jre

import (
	"encoding/binary"
	"fmt"
	"math"

	"dista/internal/core/taint"
)

// DataOutputStream writes typed primitives whose encoded bytes all carry
// the value's taint (java.io.DataOutputStream, byte-level granularity).
type DataOutputStream struct {
	out OutputStream
}

var _ OutputStream = (*DataOutputStream)(nil)

// NewDataOutputStream wraps out.
func NewDataOutputStream(out OutputStream) *DataOutputStream {
	return &DataOutputStream{out: out}
}

// Write passes raw bytes through.
func (w *DataOutputStream) Write(b taint.Bytes) error { return w.out.Write(b) }

// Flush flushes the underlying stream.
func (w *DataOutputStream) Flush() error { return w.out.Flush() }

// writeTainted sends raw with every byte labelled t; a buffered
// destination labels the bytes where they land.
func (w *DataOutputStream) writeTainted(raw []byte, t taint.Taint) error {
	if bw, ok := w.out.(*BufferedOutputStream); ok {
		return bw.writeLabelled(raw, t)
	}
	b := taint.WrapBytes(raw)
	b.TaintAll(t) // no-op (and no allocation) for the empty taint
	return w.out.Write(b)
}

// WriteByteValue writes one byte carrying taint t.
func (w *DataOutputStream) WriteByteValue(v byte, t taint.Taint) error {
	return w.writeTainted([]byte{v}, t)
}

// WriteBool writes a boolean as one byte.
func (w *DataOutputStream) WriteBool(v bool, t taint.Taint) error {
	b := byte(0)
	if v {
		b = 1
	}
	return w.writeTainted([]byte{b}, t)
}

// WriteInt16 writes a big-endian 16-bit integer.
func (w *DataOutputStream) WriteInt16(v int16, t taint.Taint) error {
	return w.writeTainted(binary.BigEndian.AppendUint16(nil, uint16(v)), t)
}

// WriteInt32 writes a big-endian tainted 32-bit integer.
func (w *DataOutputStream) WriteInt32(v taint.Int32) error {
	return w.writeTainted(binary.BigEndian.AppendUint32(nil, uint32(v.Value)), v.Label)
}

// WriteInt64 writes a big-endian tainted 64-bit integer.
func (w *DataOutputStream) WriteInt64(v taint.Int64) error {
	return w.writeTainted(binary.BigEndian.AppendUint64(nil, uint64(v.Value)), v.Label)
}

// WriteFloat64 writes an IEEE-754 double.
func (w *DataOutputStream) WriteFloat64(v float64, t taint.Taint) error {
	bits := binary.BigEndian.AppendUint64(nil, floatBits(v))
	return w.writeTainted(bits, t)
}

// WriteUTF writes a length-prefixed tainted string (DataOutput.writeUTF:
// uint16 length, then the bytes). The length prefix is metadata and
// stays untainted; the text bytes carry the string's taint.
func (w *DataOutputStream) WriteUTF(s taint.String) error {
	if len(s.Value) > 0xFFFF {
		return fmt.Errorf("jre: writeUTF string of %d bytes exceeds 65535", len(s.Value))
	}
	if err := w.writeTainted(binary.BigEndian.AppendUint16(nil, uint16(len(s.Value))), taint.Taint{}); err != nil {
		return err
	}
	return w.out.Write(s.Bytes())
}

// WriteString32 writes a string with a 32-bit length prefix, for large
// texts (the long-text workloads of Table III).
func (w *DataOutputStream) WriteString32(s taint.String) error {
	if err := w.writeTainted(binary.BigEndian.AppendUint32(nil, uint32(len(s.Value))), taint.Taint{}); err != nil {
		return err
	}
	return w.out.Write(s.Bytes())
}

// WriteBytes32 writes length-prefixed raw tainted bytes.
func (w *DataOutputStream) WriteBytes32(b taint.Bytes) error {
	if err := w.writeTainted(binary.BigEndian.AppendUint32(nil, uint32(b.Len())), taint.Taint{}); err != nil {
		return err
	}
	return w.out.Write(b)
}

// WriteInt32Array writes a length-prefixed array of 32-bit integers, all
// elements carrying taint t (the "large int array" micro workload).
func (w *DataOutputStream) WriteInt32Array(vals []int32, t taint.Taint) error {
	if err := w.writeTainted(binary.BigEndian.AppendUint32(nil, uint32(len(vals))), taint.Taint{}); err != nil {
		return err
	}
	raw := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		raw = binary.BigEndian.AppendUint32(raw, uint32(v))
	}
	return w.writeTainted(raw, t)
}

// DataInputStream reads typed primitives with their taints
// (java.io.DataInputStream).
type DataInputStream struct {
	in InputStream
}

var _ InputStream = (*DataInputStream)(nil)

// NewDataInputStream wraps in.
func NewDataInputStream(in InputStream) *DataInputStream {
	return &DataInputStream{in: in}
}

// Read passes raw reads through.
func (r *DataInputStream) Read(buf *taint.Bytes) (int, error) { return r.in.Read(buf) }

// readN reads exactly n bytes with labels.
func (r *DataInputStream) readN(n int) (taint.Bytes, error) {
	buf := taint.MakeBytes(n)
	if err := ReadFull(r.in, &buf); err != nil {
		return taint.Bytes{}, err
	}
	return buf, nil
}

// ReadByteValue reads one byte with its taint.
func (r *DataInputStream) ReadByteValue() (byte, taint.Taint, error) {
	b, err := r.readN(1)
	if err != nil {
		return 0, taint.Taint{}, err
	}
	return b.Data[0], b.LabelAt(0), nil
}

// ReadBool reads a boolean with its taint.
func (r *DataInputStream) ReadBool() (bool, taint.Taint, error) {
	v, t, err := r.ReadByteValue()
	return v != 0, t, err
}

// ReadInt16 reads a big-endian 16-bit integer.
func (r *DataInputStream) ReadInt16() (int16, taint.Taint, error) {
	b, err := r.readN(2)
	if err != nil {
		return 0, taint.Taint{}, err
	}
	return int16(binary.BigEndian.Uint16(b.Data)), b.Union(), nil
}

// ReadInt32 reads a tainted 32-bit integer; the value's taint is the
// union of its byte labels.
func (r *DataInputStream) ReadInt32() (taint.Int32, error) {
	b, err := r.readN(4)
	if err != nil {
		return taint.Int32{}, err
	}
	return taint.Int32{Value: int32(binary.BigEndian.Uint32(b.Data)), Label: b.Union()}, nil
}

// ReadInt64 reads a tainted 64-bit integer.
func (r *DataInputStream) ReadInt64() (taint.Int64, error) {
	b, err := r.readN(8)
	if err != nil {
		return taint.Int64{}, err
	}
	return taint.Int64{Value: int64(binary.BigEndian.Uint64(b.Data)), Label: b.Union()}, nil
}

// ReadFloat64 reads an IEEE-754 double with its taint.
func (r *DataInputStream) ReadFloat64() (float64, taint.Taint, error) {
	b, err := r.readN(8)
	if err != nil {
		return 0, taint.Taint{}, err
	}
	return floatFromBits(binary.BigEndian.Uint64(b.Data)), b.Union(), nil
}

// ReadUTF reads a writeUTF-encoded tainted string.
func (r *DataInputStream) ReadUTF() (taint.String, error) {
	hdr, err := r.readN(2)
	if err != nil {
		return taint.String{}, err
	}
	body, err := r.readN(int(binary.BigEndian.Uint16(hdr.Data)))
	if err != nil {
		return taint.String{}, err
	}
	return taint.StringOf(body), nil
}

// ReadString32 reads a WriteString32-encoded tainted string.
func (r *DataInputStream) ReadString32() (taint.String, error) {
	hdr, err := r.readN(4)
	if err != nil {
		return taint.String{}, err
	}
	body, err := r.readN(int(binary.BigEndian.Uint32(hdr.Data)))
	if err != nil {
		return taint.String{}, err
	}
	return taint.StringOf(body), nil
}

// ReadBytes32 reads WriteBytes32-encoded tainted bytes.
func (r *DataInputStream) ReadBytes32() (taint.Bytes, error) {
	hdr, err := r.readN(4)
	if err != nil {
		return taint.Bytes{}, err
	}
	return r.readN(int(binary.BigEndian.Uint32(hdr.Data)))
}

// ReadInt32Array reads a WriteInt32Array-encoded array; the returned
// taint is the union over all element bytes.
func (r *DataInputStream) ReadInt32Array() ([]int32, taint.Taint, error) {
	hdr, err := r.readN(4)
	if err != nil {
		return nil, taint.Taint{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr.Data))
	body, err := r.readN(4 * n)
	if err != nil {
		return nil, taint.Taint{}, err
	}
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(binary.BigEndian.Uint32(body.Data[4*i:]))
	}
	return vals, body.Union(), nil
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
