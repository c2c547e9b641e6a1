package taintmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// fuzzConn feeds a fixed byte stream to ServeConn and captures
// everything the server writes back.
type fuzzConn struct {
	r *bytes.Reader
	w bytes.Buffer
}

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// taggedReq builds one request frame.
func taggedReq(op byte, tag uint32, payload []byte) []byte {
	b := []byte{op}
	b = binary.BigEndian.AppendUint32(b, tag)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// loneRegisterReq builds the register request of one blob: a batch of
// one, the only way a lone registration is sent.
func loneRegisterReq(tag uint32, blob []byte) []byte {
	return taggedReq(opRegisterBatchTag, tag, appendBlobList(nil, [][]byte{blob}))
}

// untaggedReq builds one frame of the removed first-generation framing
// (op | len | payload, no tag). The server must fail the connection on
// its first byte; the seeds below keep that rejection path fuzzed.
func untaggedReq(op byte, payload []byte) []byte {
	b := []byte{op}
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// retiredOps are the request heads the protocol no longer speaks: the
// single lookup 'l', the single register 'r' and the repair push 'w'.
// A connection that sends one fails on that byte.
const retiredOps = "lrw"

// FuzzServeConn feeds arbitrary byte streams to the protocol parser —
// well-formed frames, frames of the removed untagged generation and of
// the retired ops, truncations and trailing garbage — and asserts the
// server never panics, that everything it writes back is a stream of
// complete, well-formed response frames (the flush-on-exit guarantee),
// and that a stream opening with a retired op fails on that byte.
func FuzzServeConn(f *testing.F) {
	f.Add(loneRegisterReq(1, []byte("blob")))
	f.Add(taggedReq('l', 2, []byte{0, 0, 0, 1}))
	f.Add(taggedReq('r', 12, []byte("blob")))
	f.Add(taggedReq(opStatsTag, 3, nil))
	f.Add(loneRegisterReq(7, []byte("blob")))
	f.Add(taggedReq(opLookupBatchTag, 9, []byte{0, 0, 0, 1, 0, 0, 0, 2}))
	f.Add(append(loneRegisterReq(4, []byte("a")), taggedReq('l', 3, []byte{0, 0, 0, 1})...))
	// Truncated frames: header cut short, payload cut short.
	f.Add([]byte{opRegisterBatchTag, 0, 0})
	f.Add([]byte{opRegisterBatchTag, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 1, 'x'})
	// Trailing garbage after a valid frame.
	f.Add(append(taggedReq(opStatsTag, 5, nil), 0xDE, 0xAD, 0xBE, 0xEF))
	// Oversized length field and unknown op.
	f.Add([]byte{'l', 0, 0, 0, 6, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(taggedReq('Z', 8, []byte("???")))
	f.Add(taggedReq(opRegisterBatchTag, 10, []byte{0, 0, 0, 2, 0, 0, 0, 1, 'a'}))
	// The removed untagged generation, byte for byte as it used to be
	// sent — alone, and behind a valid frame whose reply must still go out.
	f.Add(untaggedReq('R', []byte("blob")))
	f.Add(untaggedReq('L', []byte{0, 0, 0, 1}))
	f.Add(untaggedReq('S', nil))
	f.Add(append(loneRegisterReq(11, []byte("a")), untaggedReq('L', []byte{0, 0, 0, 1})...))
	f.Add([]byte{'R', 0, 0})
	f.Add([]byte{'L', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(untaggedReq('B', []byte{0, 0, 0, 2, 0, 0, 0, 1, 'a'}))

	f.Fuzz(func(t *testing.T, data []byte) {
		store := NewStore()
		conn := &fuzzConn{r: bytes.NewReader(data)}
		err := ServeConn(store, conn) // must terminate without panicking

		checkReplyStream(t, conn.w.Bytes())
		if len(data) > 0 && strings.IndexByte(retiredOps, data[0]) >= 0 && (!errors.Is(err, errProtocol) || conn.w.Len() != 0) {
			t.Fatalf("head byte %q: %v with %d bytes written back, want errProtocol and none", data[0], err, conn.w.Len())
		}
	})
}

// checkReplyStream asserts that out is a sequence of complete,
// well-formed response frames.
func checkReplyStream(t *testing.T, out []byte) {
	t.Helper()
	for len(out) > 0 {
		if !isReplyStatus(out[0]) {
			t.Fatalf("response starts with status %d", out[0])
		}
		if len(out) < 9 {
			t.Fatalf("truncated response header: % x", out)
		}
		n := binary.BigEndian.Uint32(out[5:9])
		if n > maxReplyFrame {
			t.Fatalf("response frame of %d bytes", n)
		}
		if len(out) < 9+int(n) {
			t.Fatalf("truncated response payload: want %d, have %d", n, len(out)-9)
		}
		out = out[9+int(n):]
	}
}

// FuzzParseBlobList throws random bytes at the blob-list parser: it
// must never panic, and anything it accepts must re-encode to exactly
// the input (the encoding is canonical and trailing garbage is
// rejected).
func FuzzParseBlobList(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(appendBlobList(nil, [][]byte{[]byte("a"), []byte("bc"), nil}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 5, 'x'})                   // truncated entry
	f.Add(append(appendBlobList(nil, [][]byte{[]byte("a")}), 0)) // trailing garbage
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})            // absurd count
	f.Add([]byte{0, 0})                                          // short header

	f.Fuzz(func(t *testing.T, data []byte) {
		blobs, err := parseBlobList(data)
		if err != nil {
			return
		}
		re := appendBlobList(nil, blobs)
		if !bytes.Equal(re, data) {
			t.Fatalf("parse/encode not canonical:\n in  % x\n out % x", data, re)
		}
		// The id-list parser shares the same hardening contract.
		if ids, err := parseIDListInto(nil, data); err == nil {
			if !bytes.Equal(appendIDList(nil, ids), data) {
				t.Fatal("id list parse/encode not canonical")
			}
		}
	})
}
