package jre

import (
	"dista/internal/core/taint"
)

// defaultBufferSize matches the JRE's 8 KiB buffered-stream default.
const defaultBufferSize = 8192

// BufferedOutputStream batches small writes into larger ones
// (java.io.BufferedOutputStream).
type BufferedOutputStream struct {
	out OutputStream
	buf taint.Bytes
	n   int
}

var _ OutputStream = (*BufferedOutputStream)(nil)

// NewBufferedOutputStream wraps out with the default buffer size.
func NewBufferedOutputStream(out OutputStream) *BufferedOutputStream {
	return NewBufferedOutputStreamSize(out, defaultBufferSize)
}

// NewBufferedOutputStreamSize wraps out with an explicit buffer size.
func NewBufferedOutputStreamSize(out OutputStream, size int) *BufferedOutputStream {
	return &BufferedOutputStream{out: out, buf: taint.MakeBytes(size)}
}

// Write buffers b, flushing as the buffer fills.
func (w *BufferedOutputStream) Write(b taint.Bytes) error {
	for b.Len() > 0 {
		if w.n == len(w.buf.Data) {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		chunk := b
		if space := len(w.buf.Data) - w.n; chunk.Len() > space {
			chunk = b.Slice(0, space)
		}
		chunk.CopyInto(&w.buf, w.n)
		w.n += chunk.Len()
		b = b.Slice(chunk.Len(), b.Len())
	}
	return nil
}

// WriteTaintedByte buffers one byte with its taint.
func (w *BufferedOutputStream) WriteTaintedByte(b byte, t taint.Taint) error {
	return w.writeLabelled([]byte{b}, t)
}

// writeLabelled buffers raw with every byte labelled t, flushing as the
// buffer fills, as Write does: the bytes land in the buffer and the label
// on its store with one SetRange, so a tainted primitive needs no label
// store of its own. The empty label overwrites what the previous fill
// left there.
func (w *BufferedOutputStream) writeLabelled(raw []byte, t taint.Taint) error {
	for len(raw) > 0 {
		if w.n == len(w.buf.Data) {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		k := copy(w.buf.Data[w.n:], raw)
		w.buf.SetRange(w.n, w.n+k, t)
		w.n += k
		raw = raw[k:]
	}
	return nil
}

// Flush pushes buffered bytes to the underlying stream.
func (w *BufferedOutputStream) Flush() error {
	if w.n == 0 {
		return w.out.Flush()
	}
	chunk := w.buf.Slice(0, w.n)
	w.n = 0
	if err := w.out.Write(chunk); err != nil {
		return err
	}
	return w.out.Flush()
}

// BufferedInputStream batches reads from the underlying stream
// (java.io.BufferedInputStream).
type BufferedInputStream struct {
	in       InputStream
	buf      taint.Bytes
	from, to int
	err      error
}

var _ InputStream = (*BufferedInputStream)(nil)

// NewBufferedInputStream wraps in with the default buffer size.
func NewBufferedInputStream(in InputStream) *BufferedInputStream {
	return NewBufferedInputStreamSize(in, defaultBufferSize)
}

// NewBufferedInputStreamSize wraps in with an explicit buffer size.
func NewBufferedInputStreamSize(in InputStream, size int) *BufferedInputStream {
	return &BufferedInputStream{in: in, buf: taint.MakeBytes(size)}
}

// Read returns buffered bytes, refilling from the underlying stream when
// empty.
func (r *BufferedInputStream) Read(buf *taint.Bytes) (int, error) {
	if r.from == r.to {
		if r.err != nil {
			return 0, r.err
		}
		whole := r.buf.Slice(0, r.buf.Len())
		n, err := r.in.Read(&whole)
		r.from, r.to, r.err = 0, n, err
		if n == 0 {
			return 0, err
		}
	}
	chunk := r.buf.Slice(r.from, r.to)
	if chunk.Len() > buf.Len() {
		chunk = chunk.Slice(0, buf.Len())
	}
	n := chunk.CopyInto(buf, 0)
	r.from += n
	return n, nil
}
