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

// PacketSend transmits one datagram payload with its labels.
func PacketSend(agent *tracker.Agent, sock *netsim.UDPSocket, data taint.Bytes, dst string) error {
	if agent.Mode() != tracker.ModeDista {
		agent.AddTraffic(len(data.Data), len(data.Data))
		return jni.DatagramSend(sock, data.Data, dst)
	}
	if data.Clean() {
		// Clean-path datagram: the passthrough flavour costs the
		// packet header instead of 5x the payload.
		raw := wire.EncodePacketPassthrough(data.Data)
		agent.AddTraffic(len(data.Data), len(raw))
		return jni.DatagramSend(sock, raw, dst)
	}
	return sendGroupsPacket(agent, sock, data, dst)
}

// sendGroupsPacket transmits one datagram in the group-encoded flavour:
// the packet header, then the groups writer's encoding of the payload.
func sendGroupsPacket(agent *tracker.Agent, sock *netsim.UDPSocket, data taint.Bytes, dst string) error {
	buf := wire.GetBuf(wire.PacketOverhead + wire.WireLen(len(data.Data)) + wire.EncodeSlack)
	defer wire.PutBuf(buf)
	raw, err := appendGroups(agent, wire.AppendPacketHeader(*buf, len(data.Data)), data)
	if err != nil {
		return err
	}
	agent.AddTraffic(len(data.Data), len(raw))
	return jni.DatagramSend(sock, raw, dst)
}

// PacketSendAdaptive transmits one datagram payload with its labels,
// opting into the tiered per-datagram encodings. Datagrams carry no
// stream state, so there is no density tracker to consult: each packet
// independently takes the cheapest sound form — passthrough when clean,
// uniform when wholly single-labelled, sparse when the dirty runs fit a
// range table, full groups otherwise. The receiver decodes every form
// unconditionally (packet magics are self-describing), so the only
// compatibility requirement is that the peer runs a decoder that knows
// the uniform/sparse magics; pre-tiering peers must be sent PacketSend
// traffic instead.
func PacketSendAdaptive(agent *tracker.Agent, sock *netsim.UDPSocket, data taint.Bytes, dst string) error {
	if agent.Mode() != tracker.ModeDista {
		agent.AddTraffic(len(data.Data), len(data.Data))
		return jni.DatagramSend(sock, data.Data, dst)
	}
	if data.Clean() {
		raw := wire.EncodePacketPassthrough(data.Data)
		agent.AddTraffic(len(data.Data), len(raw))
		return jni.DatagramSend(sock, raw, dst)
	}
	st, exact := data.Stats(tierScanLimit)
	if exact && st.Uniform(len(data.Data)) {
		id, err := registerOne(agent, st.One)
		if err != nil {
			return err
		}
		raw := wire.EncodePacketUniform(data.Data, id)
		agent.AddTraffic(len(data.Data), len(raw))
		return jni.DatagramSend(sock, raw, dst)
	}
	if exact && st.DirtyRuns <= sparseMaxRanges {
		ranges, err := registerDirty(agent, data, nil)
		if err != nil {
			return err
		}
		raw := wire.EncodePacketSparse(data.Data, ranges)
		agent.AddTraffic(len(data.Data), len(raw))
		return jni.DatagramSend(sock, raw, dst)
	}
	return sendGroupsPacket(agent, sock, data, dst)
}

// PacketPeek inspects the next datagram without consuming it — the
// Type 2 wrapper over the peekData native. Decoding is identical to
// PacketReceive.
func PacketPeek(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes) (int, string, error) {
	if agent.Mode() != tracker.ModeDista {
		return jni.DatagramPeekData(sock, buf.Data)
	}
	return receiveInto(agent, sock, buf, jni.DatagramPeekData)
}

// PacketReceive blocks for one datagram and fills buf with up to
// len(buf.Data) payload bytes and their labels, returning the payload
// length actually stored and the sender address.
func PacketReceive(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes) (int, string, error) {
	if agent.Mode() != tracker.ModeDista {
		// Original native; in phosphor mode the buffer's stale labels
		// survive (Fig. 4 behaviour).
		return jni.DatagramReceive0(sock, buf.Data)
	}
	return receiveInto(agent, sock, buf, jni.DatagramReceive0)
}

// receiveInto runs one datagram native into a pooled, enlarged receive
// buffer — header plus one group per expected byte — and splits the
// encoded datagram into buf's data and labels. The decoded payload is a
// copy, so the enlarged buffer goes back to the pool on return.
func receiveInto(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes,
	native func(*netsim.UDPSocket, []byte) (int, string, error)) (int, string, error) {
	size := wire.PacketOverhead + wire.WireLen(len(buf.Data))
	pooled := wire.GetBuf(size)
	defer wire.PutBuf(pooled)
	enlarged := (*pooled)[:size]
	n, from, err := native(sock, enlarged)
	if err != nil {
		return 0, "", err
	}
	data, runs, err := wire.DecodePacketPrefixRuns(enlarged[:n])
	if err != nil {
		return 0, "", err
	}
	// A datagram longer than buf is cut to fit, labels included.
	stored := min(len(data), len(buf.Data))
	if err := adoptRuns(agent, buf, 0, runs, stored); err != nil {
		return 0, "", err
	}
	copy(buf.Data, data[:stored])
	return stored, from, nil
}
