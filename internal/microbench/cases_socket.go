package microbench

import (
	"fmt"

	"dista/internal/core/taint"
	"dista/internal/jre"
)

// The 22 "JRE Socket" cases of Table II: the same TCP socket exercised
// through the different stream classes (plain, buffered, data, object)
// and their different read/write methods.

// chunkSize is the write granularity of the chunked writer strategies.
const chunkSize = 4096

// writeWhole writes the payload in one call.
func writeWhole(out jre.OutputStream, data taint.Bytes) error {
	if err := out.Write(data); err != nil {
		return err
	}
	return out.Flush()
}

// writeChunks writes the payload in chunkSize pieces.
func writeChunks(out jre.OutputStream, data taint.Bytes) error {
	for off := 0; off < data.Len(); off += chunkSize {
		end := off + chunkSize
		if end > data.Len() {
			end = data.Len()
		}
		if err := out.Write(data.Slice(off, end)); err != nil {
			return err
		}
	}
	return out.Flush()
}

// singleByteWriter abstracts the two per-byte write APIs.
type singleByteWriter interface {
	jre.OutputStream
	WriteTaintedByte(b byte, t taint.Taint) error
}

// writeSingleBytes writes the payload one byte at a time (the
// OutputStream.write(int) path).
func writeSingleBytes(out singleByteWriter, data taint.Bytes) error {
	for i := 0; i < data.Len(); i++ {
		if err := out.WriteTaintedByte(data.Data[i], data.LabelAt(i)); err != nil {
			return err
		}
	}
	return out.Flush()
}

// byteStreamCase builds a case whose exchange is raw bytes through a
// wrapped stream pair: the server reads size bytes, appends Data2, and
// sends 2*size back.
func byteStreamCase(id int, name string, sizeDiv int,
	wrapOut func(*jre.Socket) jre.OutputStream,
	wrapIn func(*jre.Socket) jre.InputStream,
	write func(out jre.OutputStream, data taint.Bytes) error,
) Case {
	return Case{
		ID:      id,
		Group:   "JRE Socket",
		Name:    name,
		SizeDiv: sizeDiv,
		Run: func(h *Harness) error {
			size := h.Size
			return h.tcpExchange(
				func(sock *jre.Socket) error { // Node2
					in := wrapIn(sock)
					buf := taint.MakeBytes(size)
					if err := jre.ReadFull(in, &buf); err != nil {
						return err
					}
					combined := buf.Append(h.Data2(size))
					return write(wrapOut(sock), combined)
				},
				func(sock *jre.Socket) error { // Node1
					if err := write(wrapOut(sock), h.Data1(size)); err != nil {
						return err
					}
					buf := taint.MakeBytes(2 * size)
					if err := jre.ReadFull(wrapIn(sock), &buf); err != nil {
						return err
					}
					h.Check(buf)
					return nil
				},
			)
		},
	}
}

func plainOut(s *jre.Socket) jre.OutputStream { return s.OutputStream() }
func plainIn(s *jre.Socket) jre.InputStream   { return s.InputStream() }

func bufferedOut(s *jre.Socket) jre.OutputStream {
	return jre.NewBufferedOutputStream(s.OutputStream())
}

func bufferedIn(s *jre.Socket) jre.InputStream {
	return jre.NewBufferedInputStream(s.InputStream())
}

func smallBufferedOut(s *jre.Socket) jre.OutputStream {
	return jre.NewBufferedOutputStreamSize(s.OutputStream(), 512)
}

func smallBufferedIn(s *jre.Socket) jre.InputStream {
	return jre.NewBufferedInputStreamSize(s.InputStream(), 512)
}

// dataStreamCase builds a case whose exchange is typed values through
// DataOutputStream/DataInputStream. send transmits the payload; recv
// reads it back as bytes-equivalent for checking.
func dataStreamCase(id int, name string, sizeDiv int,
	send func(w *jre.DataOutputStream, data taint.Bytes) error,
	recv func(r *jre.DataInputStream, size int) (taint.Bytes, error),
) Case {
	return Case{
		ID:      id,
		Group:   "JRE Socket",
		Name:    name,
		SizeDiv: sizeDiv,
		Run: func(h *Harness) error {
			size := h.Size
			return h.tcpExchange(
				func(sock *jre.Socket) error { // Node2
					r := jre.NewDataInputStream(jre.NewBufferedInputStream(sock.InputStream()))
					w := jre.NewDataOutputStream(jre.NewBufferedOutputStream(sock.OutputStream()))
					got, err := recv(r, size)
					if err != nil {
						return err
					}
					return send(w, got.Append(h.Data2(size)))
				},
				func(sock *jre.Socket) error { // Node1
					w := jre.NewDataOutputStream(jre.NewBufferedOutputStream(sock.OutputStream()))
					r := jre.NewDataInputStream(jre.NewBufferedInputStream(sock.InputStream()))
					if err := send(w, h.Data1(size)); err != nil {
						return err
					}
					got, err := recv(r, 2*size)
					if err != nil {
						return err
					}
					h.Check(got)
					return nil
				},
			)
		},
	}
}

// PerByteCase is case 1's exchange with every other byte of each payload
// stripped of its label, so that no two neighbours share one — not a
// Table II row, but the traffic whose sound minimum is the format §V-F
// prices: every byte beside the Global ID of its own taint, 5x.
func PerByteCase() Case {
	return byteStreamCase(0, "a label change on every byte", 1, plainOut, plainIn,
		func(out jre.OutputStream, data taint.Bytes) error {
			data = data.Clone()
			for i := 1; i < data.Len(); i += 2 {
				data.SetLabel(i, taint.Taint{})
			}
			return writeWhole(out, data)
		})
}

// socketCases returns the 22 JRE Socket cases.
func socketCases() []Case {
	cases := []Case{
		// Plain stream I/O.
		byteStreamCase(1, "OutputStream.write(byte[]) whole array", 1, plainOut, plainIn, writeWhole),
		byteStreamCase(2, "OutputStream.write(byte[]) 4KiB chunks", 1, plainOut, plainIn, writeChunks),
		byteStreamCase(3, "OutputStream.write(int) single bytes", 64, plainOut, plainIn,
			func(out jre.OutputStream, data taint.Bytes) error {
				return writeSingleBytes(out.(*jre.SocketOutputStream), data)
			}),

		// Buffered stream I/O.
		byteStreamCase(4, "BufferedOutputStream.write(byte[]) whole array", 1, bufferedOut, bufferedIn, writeWhole),
		byteStreamCase(5, "BufferedOutputStream.write(byte[]) 4KiB chunks", 1, bufferedOut, bufferedIn, writeChunks),
		byteStreamCase(6, "BufferedOutputStream.write(int) single bytes", 16, bufferedOut, bufferedIn,
			func(out jre.OutputStream, data taint.Bytes) error {
				return writeSingleBytes(out.(*jre.BufferedOutputStream), data)
			}),
		byteStreamCase(7, "BufferedOutputStream with 512B buffer", 1, smallBufferedOut, smallBufferedIn, writeChunks),

		// Data stream I/O.
		dataStreamCase(8, "DataOutputStream.writeInt int array", 1,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				vals := make([]int32, data.Len()/4+1)
				return errJoin(w.WriteInt32Array(vals, data.Union()), w.Flush())
			},
			func(r *jre.DataInputStream, size int) (taint.Bytes, error) {
				_, lbl, err := r.ReadInt32Array()
				if err != nil {
					return taint.Bytes{}, err
				}
				return labelOnly(size, lbl), nil
			}),
		dataStreamCase(9, "DataOutputStream.writeLong sequence", 2,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				lbl := data.Union()
				n := data.Len() / 8
				if err := w.WriteInt32(taint.Int32{Value: int32(n)}); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := w.WriteInt64(taint.Int64{Value: int64(i), Label: lbl}); err != nil {
						return err
					}
				}
				return w.Flush()
			},
			func(r *jre.DataInputStream, size int) (taint.Bytes, error) {
				n, err := r.ReadInt32()
				if err != nil {
					return taint.Bytes{}, err
				}
				var lbl taint.Taint
				for i := int32(0); i < n.Value; i++ {
					v, err := r.ReadInt64()
					if err != nil {
						return taint.Bytes{}, err
					}
					lbl = taint.Combine(lbl, v.Label)
				}
				return labelOnly(size, lbl), nil
			}),
		dataStreamCase(10, "DataOutputStream.writeUTF 32KiB strings", 1,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				const piece = 32 << 10
				if err := w.WriteInt32(taint.Int32{Value: int32((data.Len() + piece - 1) / piece)}); err != nil {
					return err
				}
				for off := 0; off < data.Len(); off += piece {
					end := off + piece
					if end > data.Len() {
						end = data.Len()
					}
					if err := w.WriteUTF(taint.StringOf(data.Slice(off, end))); err != nil {
						return err
					}
				}
				return w.Flush()
			},
			func(r *jre.DataInputStream, size int) (taint.Bytes, error) {
				n, err := r.ReadInt32()
				if err != nil {
					return taint.Bytes{}, err
				}
				var acc taint.Bytes
				for i := int32(0); i < n.Value; i++ {
					s, err := r.ReadUTF()
					if err != nil {
						return taint.Bytes{}, err
					}
					acc = acc.Append(s.Bytes())
				}
				return acc, nil
			}),
		dataStreamCase(11, "DataOutputStream writeString32 long text", 1,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				return errJoin(w.WriteString32(taint.StringOf(data)), w.Flush())
			},
			func(r *jre.DataInputStream, _ int) (taint.Bytes, error) {
				s, err := r.ReadString32()
				if err != nil {
					return taint.Bytes{}, err
				}
				return s.Bytes(), nil
			}),
		dataStreamCase(12, "DataOutputStream writeBytes32 blob", 1,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				return errJoin(w.WriteBytes32(data), w.Flush())
			},
			func(r *jre.DataInputStream, _ int) (taint.Bytes, error) {
				return r.ReadBytes32()
			}),
		dataStreamCase(13, "DataOutputStream.writeDouble sequence", 2,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				lbl := data.Union()
				n := data.Len() / 8
				if err := w.WriteInt32(taint.Int32{Value: int32(n)}); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := w.WriteFloat64(float64(i)/3, lbl); err != nil {
						return err
					}
				}
				return w.Flush()
			},
			func(r *jre.DataInputStream, size int) (taint.Bytes, error) {
				n, err := r.ReadInt32()
				if err != nil {
					return taint.Bytes{}, err
				}
				var lbl taint.Taint
				for i := int32(0); i < n.Value; i++ {
					_, t, err := r.ReadFloat64()
					if err != nil {
						return taint.Bytes{}, err
					}
					lbl = taint.Combine(lbl, t)
				}
				return labelOnly(size, lbl), nil
			}),
		dataStreamCase(14, "DataOutputStream mixed primitive record", 4,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				lbl := data.Union()
				n := data.Len() / 16
				if err := w.WriteInt32(taint.Int32{Value: int32(n)}); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := errJoin(
						w.WriteInt32(taint.Int32{Value: int32(i), Label: lbl}),
						w.WriteInt64(taint.Int64{Value: int64(i)}),
						w.WriteBool(i%2 == 0, lbl),
					); err != nil {
						return err
					}
				}
				return w.Flush()
			},
			func(r *jre.DataInputStream, size int) (taint.Bytes, error) {
				n, err := r.ReadInt32()
				if err != nil {
					return taint.Bytes{}, err
				}
				var lbl taint.Taint
				for i := int32(0); i < n.Value; i++ {
					v, err := r.ReadInt32()
					if err != nil {
						return taint.Bytes{}, err
					}
					if _, err := r.ReadInt64(); err != nil {
						return taint.Bytes{}, err
					}
					_, bt, err := r.ReadBool()
					if err != nil {
						return taint.Bytes{}, err
					}
					lbl = taint.CombineAll(lbl, v.Label, bt)
				}
				return labelOnly(size, lbl), nil
			}),
		dataStreamCase(15, "DataOutputStream.writeShort sequence", 4,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				lbl := data.Union()
				n := data.Len() / 2
				if err := w.WriteInt32(taint.Int32{Value: int32(n)}); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := w.WriteInt16(int16(i), lbl); err != nil {
						return err
					}
				}
				return w.Flush()
			},
			func(r *jre.DataInputStream, size int) (taint.Bytes, error) {
				n, err := r.ReadInt32()
				if err != nil {
					return taint.Bytes{}, err
				}
				var lbl taint.Taint
				for i := int32(0); i < n.Value; i++ {
					_, t, err := r.ReadInt16()
					if err != nil {
						return taint.Bytes{}, err
					}
					lbl = taint.Combine(lbl, t)
				}
				return labelOnly(size, lbl), nil
			}),
		dataStreamCase(16, "DataOutputStream.writeBoolean sequence", 8,
			func(w *jre.DataOutputStream, data taint.Bytes) error {
				lbl := data.Union()
				n := data.Len()
				if err := w.WriteInt32(taint.Int32{Value: int32(n)}); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := w.WriteBool(i%3 == 0, lbl); err != nil {
						return err
					}
				}
				return w.Flush()
			},
			func(r *jre.DataInputStream, size int) (taint.Bytes, error) {
				n, err := r.ReadInt32()
				if err != nil {
					return taint.Bytes{}, err
				}
				var lbl taint.Taint
				for i := int32(0); i < n.Value; i++ {
					_, t, err := r.ReadBool()
					if err != nil {
						return taint.Bytes{}, err
					}
					lbl = taint.Combine(lbl, t)
				}
				return labelOnly(size, lbl), nil
			}),
	}
	cases = append(cases, objectCases()...)
	return cases
}

// labelOnly reconstructs a checkable byte payload carrying lbl; used by
// value-typed cases where the data content is regenerated.
func labelOnly(size int, lbl taint.Taint) taint.Bytes {
	b := taint.WrapBytes(make([]byte, size))
	if !lbl.Empty() {
		b.TaintAll(lbl)
	}
	return b
}

// errJoin returns the first non-nil error.
func errJoin(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ensure fmt stays referenced when cases produce no dynamic errors.
var _ = fmt.Sprintf
