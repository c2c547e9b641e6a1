package instrument

import (
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
)

// Vectored Type 3 wrappers: the writev0/readv0 dispatcher natives used
// by NIO gathering writes and scattering reads. The dista wrapper
// encodes each source buffer into its own group run and hands the runs
// to the vectored native, preserving the original call shape.

// WritevBuffers performs a gathering write of the [0,lens[i]) prefix of
// each direct buffer, returning the total data bytes consumed.
//
// On the framed path adjacent clean sources coalesce into a single
// passthrough frame whose payload entries are the raw buffer slices —
// one 5-byte header for the whole stretch and zero copies — while
// tainted sources each travel as their own groups frame. An adaptive
// endpoint additionally coalesces adjacent sources that carry the same
// single label into one uniform frame (one header plus one Global ID
// for the stretch, payloads still uncopied); tainted sources too
// fragmented for the uniform tier fall back to groups frames — the
// vectored path never emits sparse frames, since per-source tables
// would cost more than the per-source groups frame they replace.
func (e *Endpoint) WritevBuffers(srcs []*jni.DirectBuffer, lens []int) (int64, error) {
	if len(srcs) != len(lens) {
		panic("instrument: srcs/lens length mismatch")
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()

	if e.agent.Mode() != tracker.ModeDista {
		raw := make([][]byte, len(srcs))
		total := 0
		for i, src := range srcs {
			if err := src.CheckRange(0, lens[i]); err != nil {
				return 0, err
			}
			raw[i] = src.Data[:lens[i]]
			total += lens[i]
		}
		e.agent.AddTraffic(total, total)
		return jni.DispatcherWritev0(e.conn, raw)
	}

	if e.legacy {
		encoded := make([][]byte, len(srcs))
		total := 0
		for i, src := range srcs {
			if err := src.CheckRange(0, lens[i]); err != nil {
				return 0, err
			}
			raw, err := appendGroups(e.agent, nil, src.View(0, lens[i]))
			if err != nil {
				return 0, err
			}
			encoded[i] = raw
			total += lens[i]
			e.agent.AddTraffic(lens[i], len(encoded[i]))
		}
		if _, err := jni.DispatcherWritev0(e.conn, encoded); err != nil {
			return 0, err
		}
		return int64(total), nil
	}

	// Pass 1: classify sources and size the shared scratch exactly so
	// pass 2 can alias into it without any append ever reallocating
	// (which would invalidate earlier vector entries).
	clean := make([]bool, len(srcs))
	var uids []uint32 // adaptive: uniform-frame Global ID per source (0 = not uniform)
	if e.adaptive {
		uids = make([]uint32, len(srcs))
	}
	scratchLen := 0
	if !e.wroteMagic {
		scratchLen += wire.StreamMagicLen
	}
	total, wireBytes := 0, 0
	for i, src := range srcs {
		if err := src.CheckRange(0, lens[i]); err != nil {
			return 0, err
		}
		total += lens[i]
		if src.Clean(0, lens[i]) {
			clean[i] = true
			if e.adaptive {
				e.tier.observeClean(lens[i])
			}
			if i == 0 || !clean[i-1] {
				scratchLen += wire.FrameHeaderLen
			}
			continue
		}
		if e.adaptive {
			st, exact := src.View(0, lens[i]).Stats(tierScanLimit)
			e.tier.observe(st, lens[i], exact)
			if e.tier.frameTier(st, lens[i], exact) == tierUniform {
				id, err := registerOne(e.agent, st.One)
				if err != nil {
					return 0, err
				}
				uids[i] = id
				if i == 0 || uids[i-1] != id {
					scratchLen += wire.FrameHeaderLen + wire.GlobalIDLen
				}
				continue
			}
		}
		scratchLen += wire.GroupsFrameLen(lens[i])
	}

	// Pass 2: assemble headers and group bodies in the pooled scratch;
	// clean payloads enter the vector as raw slices, uncopied. Nothing
	// has reached the connection yet, so a taint that fails to register
	// here fails the whole call.
	buf := wire.GetBuf(scratchLen + wire.EncodeSlack)
	defer wire.PutBuf(buf)
	out := *buf
	vec := make([][]byte, 0, 2*len(srcs))
	for i := 0; i < len(srcs); {
		mark := len(out)
		if !e.wroteMagic && mark == 0 {
			// The magic rides in the first frame's header slice.
			out = e.appendMagic(out)
		}
		if clean[i] {
			j, n := i, 0
			for j < len(srcs) && clean[j] {
				n += lens[j]
				j++
			}
			out = wire.AppendFrameHeader(out, wire.FramePassthrough, n)
			vec = append(vec, out[mark:len(out):len(out)])
			for k := i; k < j; k++ {
				vec = append(vec, srcs[k].Data[:lens[k]])
			}
			wireBytes += len(out) - mark + n
			i = j
			continue
		}
		if uids != nil && uids[i] != 0 {
			j, n := i, 0
			for j < len(srcs) && uids[j] == uids[i] {
				n += lens[j]
				j++
			}
			out = wire.AppendUniformHeader(out, n, uids[i])
			vec = append(vec, out[mark:len(out):len(out)])
			for k := i; k < j; k++ {
				vec = append(vec, srcs[k].Data[:lens[k]])
			}
			wireBytes += len(out) - mark + n
			i = j
			continue
		}
		var err error
		if out, err = appendGroupsFrame(e.agent, out, srcs[i].View(0, lens[i])); err != nil {
			return 0, err
		}
		vec = append(vec, out[mark:len(out):len(out)])
		wireBytes += len(out) - mark
		i++
	}
	e.agent.AddTraffic(total, wireBytes)
	if _, err := jni.DispatcherWritev0(e.conn, vec); err != nil {
		return 0, err
	}
	if len(vec) > 0 {
		e.wroteMagic = true
	}
	return int64(total), nil
}

// ReadvBuffers performs a scattering read into the [0,lens[i]) prefixes
// of the direct buffers, returning the total data bytes stored.
func (e *Endpoint) ReadvBuffers(dsts []*jni.DirectBuffer, lens []int) (int64, error) {
	if len(dsts) != len(lens) {
		panic("instrument: dsts/lens length mismatch")
	}
	if e.agent.Mode() != tracker.ModeDista {
		raw := make([][]byte, len(dsts))
		for i, dst := range dsts {
			if err := dst.CheckRange(0, lens[i]); err != nil {
				return 0, err
			}
			raw[i] = dst.Data[:lens[i]]
		}
		return jni.DispatcherReadv0(e.conn, raw)
	}

	// One read's worth of frames, scattered across the buffers in order.
	var total int64
	for i, dst := range dsts {
		if err := dst.CheckRange(0, lens[i]); err != nil {
			return 0, err
		}
		n, err := e.ReadBuffer(dst, 0, lens[i])
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		total += int64(n)
		if n < lens[i] {
			break
		}
		// Single-read semantics: continue into the next buffer only with
		// data already decoded; never block for a second wire read.
		if i+1 < len(dsts) && e.bufferedData() == 0 {
			break
		}
	}
	return total, nil
}

// bufferedData reports how many decoded bytes are ready without
// blocking.
func (e *Endpoint) bufferedData() int {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	return e.rd.dec.Buffered()
}
