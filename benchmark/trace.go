package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// Spans are recorded from the benchmark's own files, around the calls
// the driver and the responder make into the program; spans inside the
// program are a later change. They stay in memory until the run ends.

type spanKind uint8

const (
	spanOp spanKind = iota // root: one whole op, label through verify
	spanALabel
	spanAWrite
	spanARead // includes waiting for B
	spanAVerify
	spanBRead // includes waiting for the request
	spanBRelabel
	spanBWrite
)

var spanNames = [...]string{"op", "a.label", "a.write", "a.read", "a.verify", "b.read", "b.relabel", "b.write"}

// span is one timed call. The spans of one op share op (and the
// connection they were recorded on); every child's parent is the root.
type span struct {
	op         uint32
	kind       spanKind
	start, end int64 // ns since the benchmark started
}

// tracedOpsMax caps the ops a traced run records, which bounds both the
// memory the spans hold while the run is timed and the file written.
const tracedOpsMax = 10_000

// arm preallocates span storage for n traced ops on every connection.
// Each goroutine appends to its own slice, so recording takes no lock
// and allocates nothing.
func (r *rig) arm(n int) {
	for _, c := range r.conns {
		c.aSpans = make([]span, 0, 5*n)
		c.bSpans = make([]span, 0, 3*n)
	}
}

// writeLines creates path and hands emit a buffered writer for it.
func writeLines(path string, emit func(w *bufio.Writer)) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	emit(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const spanLine = `{"id":%q,"parent":%q,"name":%q,"start_ns":%d,"end_ns":%d}` + "\n"

func (r *rig) writeTrace(path string) error {
	return writeLines(path, func(w *bufio.Writer) {
		for _, c := range r.conns {
			for _, spans := range [][]span{c.aSpans, c.bSpans} {
				for _, s := range spans {
					root := fmt.Sprintf("c%d-%d", c.id, s.op)
					id, parent := root, ""
					if s.kind != spanOp {
						id, parent = root+"/"+spanNames[s.kind], root
					}
					fmt.Fprintf(w, spanLine, id, parent, spanNames[s.kind], s.start, s.end)
				}
			}
		}
	})
}

// A paper_tables op is one call into the program, so its trace is the
// root spans alone.
func (r *paperRig) writeTrace(path string) error {
	return writeLines(path, func(w *bufio.Writer) {
		for n, s := range r.spans {
			fmt.Fprintf(w, spanLine, fmt.Sprintf("p-%d", n), "", r.ops[s.op].row, s.start, s.end)
		}
	})
}
