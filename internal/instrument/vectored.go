package instrument

import (
	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
)

// Vectored Type 3 wrappers: the writev0/readv0 dispatcher natives used
// by NIO gathering writes and scattering reads. The dista wrapper frames
// each source buffer and hands the pieces to the vectored native,
// preserving the original call shape.

// vframe is one frame of a gathering write.
type vframe struct {
	t, n     int // tier and payload bytes
	src, end int // sources [src, end) are its payload
	c0, c1   int // its run cover is cover[c0:c1] of the shared scratch
	headEnd  int // where its head ends in the pooled scratch
}

// WritevBuffers performs a gathering write of the [0,lens[i]) prefix of
// each direct buffer, returning the total data bytes consumed.
//
// Every source picks its tier through the stream's send ladder, as a
// write of its own would. Adjacent sources under one label throughout —
// clean ones, or ones carrying the same single taint — share a frame:
// one header (plus one Global ID) for the whole stretch. Raw-body
// payloads enter the vector as the buffers' own slices, uncopied; only
// heads and group bodies are assembled, in one pooled scratch.
func (e *Endpoint) WritevBuffers(srcs []*jni.DirectBuffer, lens []int) (_ int64, err error) {
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

	// Pass 0: the taints the sources meet without a Global ID are scoped,
	// or registered, at once (registerOrScope): the call is one send to
	// the agent's queue. Scoped source by source, a later source's batch
	// could register a taint an earlier one scoped, and a third source
	// would then send its Global ID bare, costing the receiver a lookup
	// (TestDefinitionsDifferential counts it). A call that fails forgets
	// the taints it scoped: their definitions never left.
	e.wr.scope.from = e.wr.scope.k
	defer func() {
		if err != nil {
			e.wr.scope.rollback()
		}
	}()
	x := &e.wr.x
	x.pending.reset()
	for i, src := range srcs {
		if err := src.CheckRange(0, lens[i]); err != nil {
			return 0, err
		}
		src.View(0, lens[i]).ForEachRun(func(_, _ int, t taint.Taint) {
			if t.GlobalID() == 0 && !t.Empty() {
				x.pending.index(t)
			}
		})
	}
	var defs []byte // definitions units of what pass 0 scoped or registered
	if len(x.pending.keys) > 0 && e.agent.TaintMap() != nil {
		if _, defs, err = registerOrScope(e.agent, x.pending.keys, &e.wr.scope, defs); err != nil {
			return 0, err
		}
	}

	// Pass 1: tiers, run covers and frame boundaries.
	frames := make([]vframe, 0, len(srcs))
	cover := e.wr.cover[:0]
	total, room := 0, wire.StreamMagicLen+wire.EncodeSlack
	for i, src := range srcs {
		total += lens[i]
		v := src.View(0, lens[i])
		t, s := pickTier(v)
		f := vframe{t: t, n: lens[i], src: i, end: i + 1, c0: len(cover)}
		if cover, defs, err = coverRuns(e.agent, v, t, s, &e.wr.x, cover, defs, &e.wr.scope); err != nil {
			return 0, err
		}
		f.c1 = len(cover)
		if k := len(frames) - 1; k >= 0 && frames[k].t == t && f.c1-f.c0 == 1 &&
			frames[k].c1-frames[k].c0 == 1 && cover[f.c0].ID == cover[frames[k].c0].ID {
			cover[frames[k].c0].N += f.n
			cover = cover[:f.c0]
			frames[k].n += f.n
			frames[k].end = f.end
			continue
		}
		frames = append(frames, f)
		room += rawHeadRoom
		if wire.Tiers[t].Groups {
			room += wire.GroupsFrameLen(f.n)
		}
	}
	e.wr.cover = cover[:0]

	// Pass 2: heads and group bodies into the pooled scratch. Nothing has
	// reached the connection yet, so a taint that fails to register here
	// fails the whole call. The magic rides in the first frame's head.
	buf := wire.GetBuf(room)
	defer wire.PutBuf(buf)
	out := *buf
	if !e.wr.wroteMagic {
		out = wire.AppendAdaptiveStreamMagic(out)
	}
	out = append(out, defs...)
	for k := range frames {
		f := &frames[k]
		if out, err = appendFrame(e.agent, out, srcs[f.src].View(0, lens[f.src]), f.t, f.n, cover[f.c0:f.c1], &e.wr.scope); err != nil {
			return 0, err
		}
		f.headEnd = len(out)
	}

	// The scratch no longer moves: alias the heads into the vector.
	vec := make([][]byte, 0, len(frames)+len(srcs))
	wireBytes, mark := 0, 0
	for _, f := range frames {
		vec = append(vec, out[mark:f.headEnd:f.headEnd])
		wireBytes += f.headEnd - mark
		mark = f.headEnd
		if !wire.Tiers[f.t].Groups {
			for k := f.src; k < f.end; k++ {
				vec = append(vec, srcs[k].Data[:lens[k]])
			}
			wireBytes += f.n
		}
	}
	e.agent.AddTraffic(total, wireBytes)
	if n, err := jni.DispatcherWritev0(e.conn, vec); err != nil {
		return 0, e.torn(int(n), err)
	}
	if len(vec) > 0 {
		e.wr.wroteMagic = true
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
