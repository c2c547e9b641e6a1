// Package taintflow seeds interprocedural label drops for the distavet
// taintflow golden test: raw tracked bytes that reach write-shaped I/O
// through an intermediate helper or a local binding — the two escape
// shapes the syntactic shadowdrop provably cannot see, because no
// .Data selection appears at any sink argument.
package taintflow

import (
	"io"

	"dista/internal/core/taint"
	"dista/internal/instrument"
)

// emit is the laundering helper: its parameter escapes into the
// io.Writer, but emit itself never touches a .Data selection, and the
// call below hands it one without being a sink name — shadowdrop sees
// nothing at either site.
func emit(w io.Writer, p []byte) {
	w.Write(p)
}

// relay adds a second hop; the summary chains through it.
func relay(w io.Writer, p []byte) {
	emit(w, p)
}

func launder(w io.Writer, b taint.Bytes) {
	emit(w, b.Data) // want "laundered through emit"
}

func launderTwoHops(w io.Writer, b taint.Bytes) {
	relay(w, b.Data) // want "laundered through relay"
}

// localEscape hides the .Data selection behind a local binding: the
// sink argument is a plain identifier, invisible to shadowdrop.
func localEscape(w io.Writer, b taint.Bytes) {
	d := b.Data
	w.Write(d) // want "reach Writer.Write through a local binding"
}

// logRecord writes its parameter with a newline appended: append
// carries the parameter's bytes into what it returns, so they escape.
func logRecord(w io.Writer, rec []byte) {
	w.Write(append(rec, '\n'))
}

func launderAppend(w io.Writer, body taint.Bytes) {
	logRecord(w, body.Data) // want "laundered through logRecord"
}

// rawView returns the raw storage of its argument; callers receive
// label-less tracked bytes (ReturnsRaw in the summary).
func rawView(b taint.Bytes) []byte {
	return b.Data
}

func escapeViaReturn(w io.Writer, b taint.Bytes) {
	w.Write(rawView(b)) // want "tracked bytes returned by rawView"
}

// consume only reads its parameter: handing it raw bytes is fine.
func consume(p []byte) int { return len(p) }

func goodHelper(b taint.Bytes) int {
	return consume(b.Data)
}

// goodViaUniform forwards the bytes together with their label into the
// core uniform fast path; its summary is label-paired, not escaping.
func goodViaUniform(ep *instrument.Endpoint, p []byte, one taint.Taint) error {
	return ep.WriteUniform(p, one)
}

func goodUniformCaller(ep *instrument.Endpoint, b taint.Bytes) error {
	one, ok := b.Uniform()
	if !ok {
		return nil
	}
	return goodViaUniform(ep, b.Data, one)
}

func goodPlainBytes(w io.Writer, n int) {
	plain := make([]byte, n)
	emit(w, plain) // untracked storage may go anywhere
}

func suppressed(w io.Writer, b taint.Bytes) {
	//lint:ignore distavet/taintflow checksum mirror; the writer is a sealed digest
	emit(w, b.Data)
}
