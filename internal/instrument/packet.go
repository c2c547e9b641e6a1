package instrument

import (
	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
)

// Type 2 wrappers (Fig. 7): packet-oriented natives. The sender fetches
// the data and its taints out of the packet, serializes them into a new
// payload, and sends that via the original native — deliberately *not*
// mutating the caller's packet, whose fields may be reused by following
// code (§III-C). The receiver allocates an enlarged buffer, receives the
// full encoded packet, and splits it back into data and taints.

// rawHeadRoom is the pooled capacity set aside, beside the payload, for
// the header and metadata of a raw-body frame; a longer head only grows
// the buffer.
const rawHeadRoom = 256

// PacketSend transmits one datagram payload with its labels: exactly one
// frame, no stream magic, on the cheapest tier that fits it (pickTier) —
// none of which is larger than the groups form the receiver sizes its
// buffer for, so none defines a taint: one the Taint Map cannot register
// now fails the send, typed (ErrDegraded), and nothing is sent.
func PacketSend(agent *tracker.Agent, sock *netsim.UDPSocket, data taint.Bytes, dst string) error {
	if agent.Mode() != tracker.ModeDista {
		agent.AddTraffic(len(data.Data), len(data.Data))
		return jni.DatagramSend(sock, data.Data, dst)
	}
	t, s := pickTier(data)
	size := s.N + rawHeadRoom
	if wire.Tiers[t].Groups {
		size = wire.GroupsFrameLen(s.N) + wire.EncodeSlack
	}
	buf := wire.GetBuf(size)
	defer wire.PutBuf(buf)
	runs, _, err := coverRuns(agent, data, t, s, new(sendScratch), nil, nil, nil)
	if err != nil {
		return err
	}
	raw, err := appendFrame(agent, *buf, data, t, s.N, runs, nil)
	if err != nil {
		return err
	}
	if !wire.Tiers[t].Groups {
		raw = append(raw, data.Data...)
	}
	agent.AddTraffic(s.N, len(raw))
	return jni.DatagramSend(sock, raw, dst)
}

// PacketPeek inspects the next datagram without consuming it — the
// Type 2 wrapper over the peekData native. Decoding is identical to
// PacketReceive.
func PacketPeek(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes) (int, string, error) {
	return receiveInto(agent, sock, buf, jni.DatagramPeekData)
}

// PacketReceive blocks for one datagram and fills buf with up to
// len(buf.Data) payload bytes and their labels, returning the payload
// length actually stored and the sender address.
func PacketReceive(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes) (int, string, error) {
	return receiveInto(agent, sock, buf, jni.DatagramReceive0)
}

// receiveInto runs one datagram native — outside dista mode into buf as
// it is — into a pooled, enlarged receive buffer — a frame header plus
// one group per expected byte, which no tier's frame for that many bytes
// exceeds — and splits the frame into
// buf's data and labels as a stream read would: labels first, bytes
// second. A whole passthrough or fragmented groups frame that fits buf
// takes the stream's whole-frame lane (FrameDecoder.Whole), out of the
// receive buffer where it lies; the rest is decoded. A datagram longer
// than buf is cut to fit, labels included.
func receiveInto(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes,
	native func(*netsim.UDPSocket, []byte) (int, string, error)) (int, string, error) {
	if agent.Mode() != tracker.ModeDista {
		// The original native; in phosphor mode the buffer's stale labels
		// survive (Fig. 4 behaviour).
		return native(sock, buf.Data)
	}
	size := wire.GroupsFrameLen(len(buf.Data))
	pooled := wire.GetBuf(size)
	defer wire.PutBuf(pooled)
	enlarged := (*pooled)[:size]
	n, from, err := native(sock, enlarged)
	if err != nil {
		return 0, "", err
	}
	var r streamReader
	raw := r.dec.Datagram(enlarged[:n])
	p := r.dec.Whole(raw, len(buf.Data))
	if p != nil && raw[0] == wire.FramePassthrough {
		clearStale(buf, 0, len(p))
		return copy(buf.Data, p), from, nil
	}
	// A labelled delivery's ids and their taints share one allocation.
	scratch := new(struct {
		ids    [8]uint32
		labels [8]taint.Taint
	})
	r.seen.keys, r.labels = scratch.ids[:0], scratch.labels[:0]
	if p != nil {
		if k, err := r.adoptGroups(agent, buf, 0, p); err != nil {
			return 0, "", err
		} else if k > 0 {
			return k, from, nil
		}
	}
	if err := r.dec.FeedDatagram(raw); err != nil {
		return 0, "", err
	}
	stored, err := r.read(agent, nil, buf, 0, len(buf.Data))
	if err != nil {
		return 0, "", err
	}
	return stored, from, nil
}
