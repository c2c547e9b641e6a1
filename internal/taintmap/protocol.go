package taintmap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"dista/internal/netsim"
)

// Wire protocol: length-prefixed tagged frames over any reliable stream.
//
//	request:  op byte     | uint32 tag | uint32 payloadLen | payload
//	response: status byte | uint32 tag | uint32 payloadLen | payload
//
// ops: 'b' register batch (payload = blob list, reply = 4-byte id per blob;
//          a lone registration is a batch of one),
//      'm' lookup batch   (payload = 4-byte id per entry, reply = blob list),
//      's' stats    (payload empty, reply = 3x uint64).
//
// The tag is chosen by the client and echoed in the response, so many
// requests can be in flight on one connection and a demultiplexing
// client matches replies to concurrent callers in arrival order rather
// than issue order. The server answers the requests of one connection in
// order, which lets it coalesce many small responses into one buffered
// write.
//
// This is the only framing either side speaks: a head byte that is not
// one of the ops (request side) or statuses (response side) below fails
// the connection with errProtocol on that byte — nothing after it is
// read, and nothing is written back.
//
// A lookup batch ('m') may return FEWER blobs than requested — always at
// least one — when the full reply would overflow the frame budget; the
// client transparently re-requests the tail.
//
// A blob list is uint32 count followed by count (uint32 len | bytes)
// entries. The batch ops let a node resolve every distinct taint of a
// message in one round trip instead of one per taint (§III-D's Taint
// Map traffic, amortized over runs).

const (
	opRegisterBatchTag = 'b'
	opLookupBatchTag   = 'm'
	opStatsTag         = 's'

	// Cluster ops (PR 6), answered only by servers running with a
	// ClusterNode; a standalone server rejects them with an error
	// response, never a dropped connection.
	//
	//	'g' ring     — payload empty, reply = ring snapshot encoding
	//	'j' join     — payload = member encoding, reply = the new ring;
	//	               the receiving node adds the member and gossips the
	//	               join to its peers (idempotent, so gossip converges)
	//	'p' replicate — payload = entry list (id + blob per entry), the
	//	               owner's synchronous push to its successors before
	//	               acking a fresh registration, and a client's push of
	//	               ids it resolved elsewhere back to a replica that
	//	               answered "unknown id" (read-repair); reply empty
	opRingTag      = 'g'
	opJoinTag      = 'j'
	opReplicateTag = 'p'

	statusTaggedOK  = 2
	statusTaggedErr = 3
)

// maxFrame bounds payload sizes to keep a corrupted peer from forcing a
// huge allocation.
const maxFrame = 1 << 20

// maxIDsPerFrame is how many 4-byte ids fit one frame; the clients
// chunk larger id batches transparently.
const maxIDsPerFrame = maxFrame / 4

// maxReplyFrame is the response-side read bound. It exceeds maxFrame by
// a small slack so a batch-lookup reply carrying one maximum-size
// blob (plus the count and length prefixes) still fits.
const maxReplyFrame = maxFrame + 16

// connBuffer sizes every connection's bufio, for frames of tens of
// bytes: a larger frame goes around it (io.ReadFull, bufio.Writer).
const connBuffer = 4 << 10

// errProtocol reports a malformed frame.
var errProtocol = errors.New("taintmap: protocol error")

// Entry lists carry id->blob pairs for replication and read-repair:
// uint32 count, then per entry uint32 id | uint32 blobLen | blob.

// appendEntry appends one id+blob entry (countless form: the caller
// writes the count, as appendEntries does).
func appendEntry(dst []byte, id uint32, blob []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blob)))
	return append(dst, blob...)
}

// appendEntries encodes a parallel ids/blobs pair as an entry list.
func appendEntries(dst []byte, ids []uint32, blobs [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for i, id := range ids {
		dst = appendEntry(dst, id, blobs[i])
	}
	return dst
}

// forEachEntry decodes an entry list, calling fn per entry (blob
// aliases p). It validates every length and rejects trailing bytes,
// and returns the entry count.
func forEachEntry(p []byte, fn func(id uint32, blob []byte) error) (int, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: entry list of %d bytes", errProtocol, len(p))
	}
	count := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	if count > maxFrame/8 {
		return 0, fmt.Errorf("%w: entry list of %d entries", errProtocol, count)
	}
	for i := uint32(0); i < count; i++ {
		if len(p) < 8 {
			return int(i), fmt.Errorf("%w: truncated entry list", errProtocol)
		}
		id := binary.BigEndian.Uint32(p[:4])
		n := binary.BigEndian.Uint32(p[4:8])
		p = p[8:]
		if uint32(len(p)) < n {
			return int(i), fmt.Errorf("%w: truncated entry blob", errProtocol)
		}
		if err := fn(id, p[:n]); err != nil {
			return int(i), err
		}
		p = p[n:]
	}
	if len(p) != 0 {
		return int(count), fmt.Errorf("%w: %d trailing bytes after entry list", errProtocol, len(p))
	}
	return int(count), nil
}

// appendBlobList appends the wire form of a blob list to dst.
func appendBlobList(dst []byte, blobs [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blobs)))
	for _, b := range blobs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// parseBlobList decodes a blob list; the returned slices alias p.
func parseBlobList(p []byte) ([][]byte, error) {
	return parseBlobListInto(nil, p)
}

// parseBlobListInto is parseBlobList reusing dst's backing array, the
// zero-allocation form for the server's per-connection scratch.
func parseBlobListInto(dst [][]byte, p []byte) ([][]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: blob list of %d bytes", errProtocol, len(p))
	}
	count := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	if count > maxFrame/4 {
		return nil, fmt.Errorf("%w: blob list of %d entries", errProtocol, count)
	}
	if cap(dst) < int(count) {
		dst = make([][]byte, count)
	}
	dst = dst[:count]
	for i := range dst {
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: truncated blob list", errProtocol)
		}
		n := binary.BigEndian.Uint32(p[:4])
		p = p[4:]
		if uint32(len(p)) < n {
			return nil, fmt.Errorf("%w: truncated blob list", errProtocol)
		}
		dst[i] = p[:n]
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after blob list", errProtocol, len(p))
	}
	return dst, nil
}

// appendIDList appends each id as 4 big-endian bytes.
func appendIDList(dst []byte, ids []uint32) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, id)
	}
	return dst
}

// parseIDListInto decodes a packed 4-byte-per-entry id list, reusing
// dst's backing array.
func parseIDListInto(dst []uint32, p []byte) ([]uint32, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("%w: id list of %d bytes", errProtocol, len(p))
	}
	n := len(p) / 4
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = binary.BigEndian.Uint32(p[i*4:])
	}
	return dst, nil
}

// nextBlobChunk returns how many of blobs, from the first, make one
// blob-list payload that fits in maxFrame, so arbitrarily large batches
// cross the wire as several frames. A single blob too large for one
// frame is an error.
func nextBlobChunk(blobs [][]byte) (int, error) {
	total := 4
	for i, b := range blobs {
		need := 4 + len(b)
		if 4+need > maxFrame {
			return 0, fmt.Errorf("%w: blob of %d bytes exceeds max frame", errProtocol, len(b))
		}
		if total+need > maxFrame {
			return i, nil
		}
		total += need
	}
	return len(blobs), nil
}

// writeTaggedFrame writes one tagged frame (request or response — the
// head byte disambiguates) without allocating: the 9-byte header is
// appended straight into w's free buffer, then the payload. It enforces
// the response bound, the larger of the two; the reader on the other end
// holds requests to maxFrame.
func writeTaggedFrame(w *bufio.Writer, head byte, tag uint32, payload []byte) error {
	if len(payload) > maxReplyFrame {
		return fmt.Errorf("%w: frame of %d bytes", errProtocol, len(payload))
	}
	if w.Available() < 9 {
		w.Flush() // an error sticks: the Write below returns it
	}
	if _, err := w.Write(appendFrameHeader(w.AvailableBuffer(), head, tag, len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendFrameHeader appends the 9-byte head | tag | len header of a
// tagged frame whose payload is n bytes long.
func appendFrameHeader(dst []byte, head byte, tag uint32, n int) []byte {
	dst = append(dst, head)
	dst = binary.BigEndian.AppendUint32(dst, tag)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// isRequestOp reports whether b opens a request frame.
func isRequestOp(b byte) bool {
	switch b {
	case opRegisterBatchTag, opLookupBatchTag, opStatsTag,
		opRingTag, opJoinTag, opReplicateTag:
		return true
	}
	return false
}

// isReplyStatus reports whether b opens a response frame.
func isReplyStatus(b byte) bool { return b == statusTaggedOK || b == statusTaggedErr }

// readTaggedHeader reads one frame header — the only place either side
// parses one — in br's buffer. valid vets the head byte before anything
// behind it is read: a peer speaking some other framing fails on its
// first byte instead of being waited on for a header it will never
// complete. Payloads over limit are refused unread; a cut header is
// io.ErrUnexpectedEOF.
func readTaggedHeader(br *bufio.Reader, valid func(byte) bool, limit uint32) (head byte, tag, n uint32, err error) {
	if head, err = br.ReadByte(); err != nil {
		return 0, 0, 0, err
	}
	if !valid(head) {
		return 0, 0, 0, fmt.Errorf("%w: frame head %q", errProtocol, head)
	}
	hdr, err := br.Peek(8)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, err
	}
	tag, n = binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
	br.Discard(8)
	if n > limit {
		return 0, 0, 0, fmt.Errorf("%w: frame of %d bytes", errProtocol, n)
	}
	return head, tag, n, nil
}

// readTaggedFrame reads one whole frame, the payload into buf's backing
// array when it is large enough (pass nil for a payload the caller
// keeps).
func readTaggedFrame(br *bufio.Reader, buf []byte, valid func(byte) bool, limit uint32) (head byte, tag uint32, payload []byte, err error) {
	head, tag, n, err := readTaggedHeader(br, valid, limit)
	if err != nil {
		return 0, 0, nil, err
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err = io.ReadFull(br, payload); err != nil {
		return 0, 0, nil, err
	}
	return head, tag, payload, nil
}

// connHost is everything one server connection serves requests against:
// the store, optionally the cluster node (nil on standalone servers —
// cluster ops then answer with an error response), and optionally a
// service-cost model the benchmarks install to charge each request a
// modeled processing time (see WithServiceModel).
type connHost struct {
	store *Store
	node  *ClusterNode
	cost  func(op byte, items int)
	adm   *admission   // request admission gate; nil = unlimited
	clk   netsim.Clock // the read timeout's clock; unused without one
}

// charge bills one request to the service model, if any is installed.
func (h connHost) charge(op byte, items int) {
	if h.cost != nil {
		h.cost(op, items)
	}
}

// connScratch holds one connection's reusable buffers: after warm-up
// the server answers with zero allocations per frame on the happy path.
type connScratch struct {
	payload []byte
	reply   []byte
	ids     []uint32
	blobs   [][]byte
	repl    []byte // entry-list scratch for replicating fresh registrations
}

// handle serves one request, appending the response payload into the
// scratch reply buffer.
//
// On a clustered host, fresh registrations are pushed to the owner's
// successors *before* the reply is appended: once a client sees an id,
// RF replicas hold its blob (minus hinted-handoff skips on dead peers).
func (c *connScratch) handle(h connHost, op byte, payload []byte) (status byte, reply []byte) {
	store := h.store
	reply = c.reply[:0]
	switch op {
	case opRegisterBatchTag:
		blobs, err := parseBlobListInto(c.blobs[:0], payload)
		if err != nil {
			return statusTaggedErr, append(reply, err.Error()...)
		}
		c.blobs = blobs
		c.repl = append(c.repl[:0], 0, 0, 0, 0) // the entry count, written below
		freshN := 0
		for _, b := range blobs {
			id, fresh := store.registerBlob(b)
			if fresh && h.node != nil {
				c.repl = appendEntry(c.repl, id, b)
				freshN++
			}
			reply = binary.BigEndian.AppendUint32(reply, id)
		}
		h.charge(op, len(blobs))
		if freshN > 0 {
			binary.BigEndian.PutUint32(c.repl, uint32(freshN))
			h.node.replicate(c.repl)
		}
	case opLookupBatchTag:
		ids, err := parseIDListInto(c.ids[:0], payload)
		if err != nil {
			return statusTaggedErr, append(reply, err.Error()...)
		}
		c.ids = ids
		h.charge(op, len(ids))
		reply = binary.BigEndian.AppendUint32(reply, uint32(len(ids)))
		included := 0
		for _, id := range ids {
			blob, ok := store.lookupView(id)
			if !ok {
				return statusTaggedErr, fmt.Appendf(reply[:0], "%v: %d", ErrUnknownGlobalID, id)
			}
			if included > 0 && len(reply)+4+len(blob) > maxFrame {
				// Partial reply: stop before overflowing the
				// frame; the client re-requests the remaining ids.
				break
			}
			reply = binary.BigEndian.AppendUint32(reply, uint32(len(blob)))
			reply = append(reply, blob...)
			included++
		}
		binary.BigEndian.PutUint32(reply[:4], uint32(included))
	case opStatsTag:
		st := store.Stats()
		reply = binary.BigEndian.AppendUint64(reply, uint64(st.GlobalTaints))
		reply = binary.BigEndian.AppendUint64(reply, uint64(st.Registrations))
		reply = binary.BigEndian.AppendUint64(reply, uint64(st.Lookups))
	case opRingTag:
		if h.node == nil {
			return statusTaggedErr, append(reply, "not a cluster member"...)
		}
		reply = appendRing(reply, h.node.Ring())
	case opJoinTag:
		if h.node == nil {
			return statusTaggedErr, append(reply, "not a cluster member"...)
		}
		m, err := parseMember(payload)
		if err != nil {
			return statusTaggedErr, append(reply, err.Error()...)
		}
		r, err := h.node.Join(m)
		if err != nil {
			return statusTaggedErr, append(reply, err.Error()...)
		}
		reply = appendRing(reply, r)
	case opReplicateTag:
		if h.node == nil {
			return statusTaggedErr, append(reply, "not a cluster member"...)
		}
		n, err := forEachEntry(payload, store.AdoptBlob)
		h.charge(op, n)
		if err != nil {
			return statusTaggedErr, append(reply, err.Error()...)
		}
	default:
		return statusTaggedErr, fmt.Appendf(reply, "unknown op %q", op)
	}
	return statusTaggedOK, reply
}

// ServeConn answers protocol requests on one connection until the peer
// disconnects — the per-connection loop used by Server. Reads are
// buffered, responses are coalesced: the writer is only flushed once no
// further complete request is already buffered, so a pipelining client
// pays one syscall for a burst of replies instead of one per reply.
func ServeConn(store *Store, conn io.ReadWriter) error {
	return serveConn(connHost{store: store}, conn, 0)
}

// readDeadliner is the slice of net.Conn (and netsim.Conn) the server
// needs to bound how long a connection may sit idle or dribble a frame.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// serveConn is ServeConn with an idle/read timeout: when nonzero and
// the connection supports read deadlines, the deadline is re-armed on
// h.clk before each frame, so a peer that goes silent (or stalls
// mid-frame) holds its server goroutine for at most readTimeout instead
// of forever.
func serveConn(h connHost, conn io.ReadWriter, readTimeout time.Duration) error {
	var rd readDeadliner
	if readTimeout > 0 {
		rd, _ = conn.(readDeadliner)
	}
	br := bufio.NewReaderSize(conn, connBuffer)
	bw := bufio.NewWriterSize(conn, connBuffer)
	var scratch connScratch
	for {
		if rd != nil {
			rd.SetReadDeadline(h.clk.Now().Add(readTimeout))
		}
		op, tag, payload, err := readTaggedFrame(br, scratch.payload, isRequestOp, maxFrame)
		if err != nil {
			// Pending responses still go out; a disconnect, even
			// mid-frame, is a clean close.
			bw.Flush()
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		scratch.payload = payload

		var status byte
		var reply []byte
		// A peer's replica push passes: its owner admitted the register, and
		// shedding it would lose a replica (or, pushes crossing, deadlock).
		gated := h.adm != nil && op != opReplicateTag
		if gated && !h.adm.admit() {
			// Load shed: the request queue is full. Answering with a typed
			// error (instead of stalling or dropping the conn) is the
			// brownout contract — the client knows to back off, define
			// inline, or try a replica, and the connection stays usable.
			status, reply = statusTaggedErr, fmt.Appendf(scratch.reply[:0], "%v: request shed", ErrOverloaded)
		} else {
			status, reply = scratch.handle(h, op, payload)
			if gated {
				h.adm.release()
			}
		}
		scratch.reply = reply[:0]
		if err := writeTaggedFrame(bw, status, tag, reply); err != nil {
			bw.Flush()
			return err
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// serverErr turns an error-response payload back into a client-side
// error. The unknown-id failure is re-typed so it matches
// ErrUnknownGlobalID under errors.Is even after a wire crossing — the
// cluster client's replica fallback and read-repair key on exactly that
// distinction ("this replica doesn't have it" vs "the call failed").
func serverErr(payload []byte) error {
	const marker = "taintmap: unknown global id"
	if len(payload) >= len(marker) && string(payload[:len(marker)]) == marker {
		return fmt.Errorf("taintmap: server error: %w%s", ErrUnknownGlobalID, payload[len(marker):])
	}
	// Overload sheds are re-typed the same way: a stream send's inline
	// fallback keys on ErrOverloaded.
	const overMarker = "taintmap: server overloaded"
	if len(payload) >= len(overMarker) && string(payload[:len(overMarker)]) == overMarker {
		return fmt.Errorf("taintmap: server error: %w%s", ErrOverloaded, payload[len(overMarker):])
	}
	return fmt.Errorf("taintmap: server error: %s", payload)
}
