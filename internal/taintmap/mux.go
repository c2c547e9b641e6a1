package taintmap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
)

// RemoteClient talks to a Taint Map server over a reliable stream (a
// netsim conn or a real TCP connection), pipelined: every request
// carries a tag, a demultiplexing goroutine routes each response to its
// waiting caller, and so any number of goroutines share one connection
// with their requests in flight concurrently.
//
// Two further layers keep concurrent traffic off the wire entirely:
// a singleflight table collapses simultaneous registrations of the
// same taint blob into one request, and the id -> taint memo is read
// under an RWMutex so warm lookups never serialize.
type RemoteClient struct {
	conn io.ReadWriteCloser
	tree *taint.Tree
	memo *cache

	// timeout bounds each call's wait for a response. It is enforced
	// out-of-band: a watchdog goroutine scans the pending table at
	// timeout/4 granularity and declares the whole connection wedged
	// (ErrCallTimeout) when any call has waited longer than timeout.
	// The per-call cost is one time.Now() on the wire path — no timer
	// churn, no extra select cases — so the deadline-bearing client is
	// as fast as the bare one. Zero disables enforcement entirely.
	timeout time.Duration

	bw      *bufio.Writer // owned by the writer goroutine
	writeCh chan muxWrite

	nextTag atomic.Uint32

	pmu     sync.Mutex
	pending map[uint32]pendingCall
	// regBatch maps the tag of a writer-coalesced register batch to the
	// member tags whose single-register requests it absorbed; the demux
	// goroutine fans the id-list reply back out to the members.
	regBatch map[uint32][]uint32
	broken   error // set once the connection is unusable

	done chan struct{} // closed when the demux goroutine exits

	closeOnce sync.Once
	closeErr  error

	sfMu sync.Mutex
	sf   map[string]*regFlight
}

var _ Client = (*RemoteClient)(nil)

// muxReply is one tagged response routed to its caller.
type muxReply struct {
	status  byte
	payload []byte
}

// pendingCall is one outstanding tagged request: the channel its caller
// waits on and, when a per-call deadline is configured, the time the
// request was issued (zero otherwise — the watchdog never runs then).
type pendingCall struct {
	ch chan muxReply
	at time.Time
}

// muxWrite is one queued request frame handed to the writer goroutine.
type muxWrite struct {
	op      byte
	tag     uint32
	payload []byte
}

// regFlight is one in-flight registration shared by every goroutine
// registering the same blob (singleflight).
type regFlight struct {
	done chan struct{}
	id   uint32
	err  error
}

// ErrClientClosed reports use of a RemoteClient whose connection is
// gone — closed by the caller or lost to a transport error. Every call
// pending at the moment of failure and every call issued afterwards
// fails with an error matching it under errors.Is, so wrappers like
// ResilientClient can tell "the connection died" apart from "the server
// rejected this request".
var ErrClientClosed = errors.New("taintmap: client closed")

// ErrCallTimeout reports a call that exceeded the client's per-call
// deadline. The connection is presumed wedged (stalled peer, silent
// drop): the caller should tear the client down and reconnect.
var ErrCallTimeout = errors.New("taintmap: call timed out")

// ErrDeadlineExceeded reports a call abandoned at its caller-supplied
// deadline (see call). Unlike ErrCallTimeout it says nothing
// about the connection — the request may still complete server-side and
// its reply is silently discarded — so the resilience layer does NOT
// treat it as a connection failure.
var ErrDeadlineExceeded = errors.New("taintmap: call deadline exceeded")

// replyChans recycles the one-shot reply channels used by call: each
// channel carries exactly one response and comes back empty, so reuse
// is safe and saves an allocation per request. Channels are NOT
// returned on failure paths — a dying demux goroutine closes pending
// channels, and a closed channel must never re-enter the pool.
var replyChans = sync.Pool{
	New: func() any { return make(chan muxReply, 1) },
}

// NewRemoteClient wraps an established connection to a Taint Map
// server and starts the response demultiplexer.
func NewRemoteClient(conn io.ReadWriteCloser, tree *taint.Tree) *RemoteClient {
	return newRemoteClientWith(conn, tree, &cache{}, 0)
}

// newRemoteClientWith is NewRemoteClient with an injected memo cache
// and per-call timeout. ResilientClient threads one cache through every
// connection epoch so taints resolved before a reconnect stay warm
// after it.
func newRemoteClientWith(conn io.ReadWriteCloser, tree *taint.Tree, memo *cache, timeout time.Duration) *RemoteClient {
	c := &RemoteClient{
		conn:     conn,
		tree:     tree,
		memo:     memo,
		timeout:  timeout,
		bw:       bufio.NewWriterSize(conn, 64<<10),
		writeCh:  make(chan muxWrite, 128),
		pending:  make(map[uint32]pendingCall),
		regBatch: make(map[uint32][]uint32),
		done:     make(chan struct{}),
	}
	go c.demux()
	go c.writer()
	if timeout > 0 {
		go c.watchdog()
	}
	return c
}

// watchdog enforces the per-call deadline out-of-band: every timeout/4
// it scans the pending table, and the moment any call has been waiting
// longer than timeout it declares the connection wedged — broken is set
// to an ErrCallTimeout-wrapping error and the connection is torn down,
// which fails every pending and future call with that error. Detection
// granularity is timeout/4, which is plenty for a liveness deadline;
// in exchange the wire path pays nothing per call.
func (c *RemoteClient) watchdog() {
	tick := c.timeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tk.C:
		}
		now := time.Now()
		wedged := false
		c.pmu.Lock()
		if c.broken == nil {
			for _, pc := range c.pending {
				if now.Sub(pc.at) > c.timeout {
					wedged = true
					break
				}
			}
			if wedged {
				c.broken = fmt.Errorf("%w: no response within %v", ErrCallTimeout, c.timeout)
			}
		}
		c.pmu.Unlock()
		if wedged {
			c.conn.Close() // demux observes the failure and sweeps pending
		}
	}
}

// muxLingerSpins bounds how many scheduler yields the writer spends
// waiting for more frames before flushing a non-empty buffer. A handful
// of yields (~1µs) is enough to let goroutines that just received
// coalesced replies enqueue their next request, which keeps the batch
// convoy alive; it is far below the cost of the write syscall it saves.
const muxLingerSpins = 16

// writer owns the outbound half of the connection: it drains queued
// request frames into the buffered writer and flushes only once the
// queue stays dry, so a burst of concurrent callers shares one write
// syscall (group commit) instead of paying one per request. When the
// queue momentarily runs dry the writer lingers for a few scheduler
// yields: callers woken by a coalesced reply batch need about that long
// to enqueue their next request, and folding those stragglers into the
// pending flush is what lets batches self-sustain instead of decaying
// back to one syscall per frame.
//
// The writer also coalesces at the *operation* level: single-register
// frames collected in one burst are rewritten as one batch-register
// frame (registration dominates the send path — every instrumented
// Write registers its taints — so bursts of registers are the common
// case). The server then parses one frame and answers with one id
// list, which the demux goroutine fans back out to the member tags
// recorded in regBatch. Lookups are not coalesced: the server may
// answer a batch lookup partially, which single-op callers are not
// prepared to re-request.
func (c *RemoteClient) writer() {
	var err error
	var regs []muxWrite // register frames folded into the next batch
	var regBytes int    // encoded blob-list size of regs
	var scratch []byte  // batch payload buffer, reused across batches
	var blobs [][]byte  // batch blob list, reused across batches

	// flushRegs rewrites the collected register frames: one goes out
	// verbatim, two or more become a batch-register frame whose tag maps
	// to the member tags.
	flushRegs := func() {
		if err != nil || len(regs) == 0 {
			regs = regs[:0]
			return
		}
		if len(regs) == 1 {
			err = writeTaggedFrame(c.bw, opRegisterTag, regs[0].tag, regs[0].payload)
			regs = regs[:0]
			regBytes = 0
			return
		}
		members := make([]uint32, len(regs))
		blobs = blobs[:0]
		for i := range regs {
			members[i] = regs[i].tag
			blobs = append(blobs, regs[i].payload)
		}
		btag := c.nextTag.Add(1)
		c.pmu.Lock()
		if c.broken == nil {
			c.regBatch[btag] = members
		}
		c.pmu.Unlock()
		scratch = appendBlobList(scratch[:0], blobs)
		err = writeTaggedFrame(c.bw, opRegisterBatchTag, btag, scratch)
		regs = regs[:0]
		regBytes = 0
	}
	// enqueue routes one request frame: registers accumulate (spilling
	// into a batch frame at the payload budget), everything else flushes
	// the pending registers first and goes out verbatim.
	enqueue := func(w muxWrite) {
		if err != nil {
			return
		}
		if w.op == opRegisterTag {
			if regBytes == 0 {
				regBytes = 4 // blob-list count prefix
			}
			if regBytes+4+len(w.payload) > maxFrame {
				flushRegs()
				regBytes = 4
			}
			regs = append(regs, w)
			regBytes += 4 + len(w.payload)
			return
		}
		flushRegs()
		if err == nil {
			err = writeTaggedFrame(c.bw, w.op, w.tag, w.payload)
		}
	}

	for {
		var w muxWrite
		select {
		case w = <-c.writeCh:
		case <-c.done:
			return
		}
		enqueue(w)
		spins := 0
	drain:
		for err == nil {
			select {
			case w = <-c.writeCh:
				enqueue(w)
				spins = 0
			default:
				if spins < muxLingerSpins {
					spins++
					runtime.Gosched()
					continue
				}
				flushRegs()
				if err == nil {
					err = c.bw.Flush()
				}
				break drain
			}
		}
		if err != nil {
			// Tear the connection down; the demux goroutine observes the
			// read error and fails every pending call. Keep draining the
			// queue so senders never block on a dead client.
			c.conn.Close()
			for {
				select {
				case <-c.writeCh:
				case <-c.done:
					return
				}
			}
		}
	}
}

// demux reads responses and hands each to the caller waiting on
// its tag. On connection loss it fails every pending and future call.
func (c *RemoteClient) demux() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var err error
	var chans []chan muxReply // batch fan-out scratch, reused
loop:
	for {
		// A fresh payload per reply: it is handed to the waiting caller.
		status, tag, payload, rerr := readTaggedFrame(br, nil, isReplyStatus, maxReplyFrame)
		if rerr != nil {
			err = rerr
			break
		}
		c.pmu.Lock()
		ch := c.pending[tag].ch
		delete(c.pending, tag)
		var members []uint32
		if ch == nil {
			if members = c.regBatch[tag]; members != nil {
				// Validate before dequeuing the members: on a malformed
				// reply they stay in pending, so the exit sweep below
				// fails them instead of leaving their callers hanging.
				if status == statusTaggedOK && len(payload) != 4*len(members) {
					c.pmu.Unlock()
					err = fmt.Errorf("%w: batch register reply of %d bytes for %d members",
						errProtocol, len(payload), len(members))
					break loop
				}
				delete(c.regBatch, tag)
				chans = chans[:0]
				for _, mt := range members {
					chans = append(chans, c.pending[mt].ch)
					delete(c.pending, mt)
				}
			}
		}
		c.pmu.Unlock()
		switch {
		case ch != nil:
			ch <- muxReply{status: status, payload: payload}
		case members != nil:
			c.fanOut(chans, status, payload)
		}
	}
	c.pmu.Lock()
	if c.broken == nil {
		c.broken = fmt.Errorf("%w: connection lost: %v", ErrClientClosed, err)
	}
	for tag, pc := range c.pending {
		delete(c.pending, tag)
		close(pc.ch)
	}
	clear(c.regBatch)
	c.pmu.Unlock()
	close(c.done)
}

// fanOut routes a coalesced batch-register reply to the member calls.
// On error status every member receives the whole error payload; on OK
// the payload is a bare id list (no count prefix — see appendIDList)
// and member i receives its own 4-byte slice. Length was validated by
// demux before the members were dequeued.
func (c *RemoteClient) fanOut(chans []chan muxReply, status byte, payload []byte) {
	if status != statusTaggedOK {
		for _, ch := range chans {
			if ch != nil {
				ch <- muxReply{status: status, payload: payload}
			}
		}
		return
	}
	for i, ch := range chans {
		if ch != nil {
			ch <- muxReply{status: status, payload: payload[4*i : 4*i+4]}
		}
	}
}

// call issues one request and waits for its response — the one place a
// pending call is registered and awaited. A non-zero deadline is
// enforced inline: when it passes before the reply arrives, the call
// withdraws its pending entry and returns ErrDeadlineExceeded — the
// connection stays up, the request stays in flight server-side, and its
// late reply is discarded by the demux goroutine. This is the hedged
// read's cancellation primitive: unlike the watchdog (which declares the
// whole connection wedged), an expired deadline here says only "this
// caller stopped waiting". With a zero deadline no timer is armed and
// only the watchdog bounds the wait.
func (c *RemoteClient) call(op byte, payload []byte, deadline time.Time) ([]byte, error) {
	if len(payload) > maxFrame {
		return nil, fmt.Errorf("taintmap: send request: %w: frame of %d bytes", errProtocol, len(payload))
	}
	var d time.Duration
	var expired <-chan time.Time // nil (never ready) without a deadline
	if !deadline.IsZero() {
		if d = time.Until(deadline); d <= 0 {
			return nil, fmt.Errorf("%w: deadline already passed", ErrDeadlineExceeded)
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		expired = timer.C
	}
	ch := replyChans.Get().(chan muxReply)
	// The timestamp exists only when a call timeout is configured; it is
	// the watchdog's input and the timeout's entire per-call cost.
	var at time.Time
	if c.timeout > 0 {
		at = time.Now()
	}
	c.pmu.Lock()
	if c.broken != nil {
		err := c.broken
		c.pmu.Unlock()
		return nil, err
	}
	tag := c.nextTag.Add(1)
	c.pending[tag] = pendingCall{ch: ch, at: at}
	c.pmu.Unlock()

	select {
	case c.writeCh <- muxWrite{op: op, tag: tag, payload: payload}:
	case <-c.done:
		c.pmu.Lock()
		err := c.broken
		delete(c.pending, tag)
		c.pmu.Unlock()
		return nil, err
	case <-expired:
		// Never sent: withdraw the pending entry. The channel saw no
		// send and no close, so it may re-enter the pool.
		c.pmu.Lock()
		delete(c.pending, tag)
		c.pmu.Unlock()
		replyChans.Put(ch)
		return nil, fmt.Errorf("%w: request not sent within %v", ErrDeadlineExceeded, d)
	}

	select {
	case reply, ok := <-ch:
		return c.finishReply(ch, reply, ok)
	case <-expired:
		c.pmu.Lock()
		_, mine := c.pending[tag]
		if mine {
			delete(c.pending, tag)
		}
		c.pmu.Unlock()
		if !mine {
			// The reply raced the deadline: the demux already dequeued the
			// entry, so a send (buffered) or close is guaranteed — take it.
			reply, ok := <-ch
			return c.finishReply(ch, reply, ok)
		}
		replyChans.Put(ch)
		return nil, fmt.Errorf("%w: no response within %v", ErrDeadlineExceeded, d)
	}
}

// finishReply converts one received reply into the call result and
// recycles the channel. ok=false means the demux goroutine died and
// closed the channel (which must then never re-enter the pool).
func (c *RemoteClient) finishReply(ch chan muxReply, reply muxReply, ok bool) ([]byte, error) {
	if !ok {
		c.pmu.Lock()
		err := c.broken
		c.pmu.Unlock()
		return nil, err
	}
	replyChans.Put(ch)
	if reply.status != statusTaggedOK {
		return nil, serverErr(reply.payload)
	}
	return reply.payload, nil
}

// registerBlob resolves one blob to its Global ID with singleflight
// dedup: N goroutines registering the same blob issue one request.
func (c *RemoteClient) registerBlob(blob []byte) (uint32, error) {
	key := string(blob)
	c.sfMu.Lock()
	if f, ok := c.sf[key]; ok {
		c.sfMu.Unlock()
		<-f.done
		return f.id, f.err
	}
	f := &regFlight{done: make(chan struct{})}
	if c.sf == nil {
		c.sf = make(map[string]*regFlight)
	}
	c.sf[key] = f
	c.sfMu.Unlock()

	reply, err := c.call(opRegisterTag, blob, time.Time{})
	switch {
	case err != nil:
		f.err = err
	case len(reply) != 4:
		f.err = fmt.Errorf("taintmap: register reply of %d bytes", len(reply))
	default:
		f.id = binary.BigEndian.Uint32(reply)
	}
	c.sfMu.Lock()
	delete(c.sf, key)
	c.sfMu.Unlock()
	close(f.done)
	return f.id, f.err
}

// Register implements Client: the batch of one.
func (c *RemoteClient) Register(t taint.Taint) (uint32, error) {
	if t.Empty() {
		return 0, nil
	}
	if id := t.GlobalID(); id != 0 {
		return id, nil
	}
	ids, err := c.RegisterBatch([]taint.Taint{t})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// registerBlobs resolves pre-marshaled blobs to the parallel id slice,
// picking the wire op by batch size: a lone blob goes out as a single
// register — deduplicated by singleflight, and coalesced by the writer
// with whatever other goroutines are registering at the same moment —
// while several go as batch frames, chunked transparently. The back
// half shared by RegisterBatch and the resilient client's batches.
func (c *RemoteClient) registerBlobs(blobs [][]byte) ([]uint32, error) {
	if len(blobs) == 1 {
		id, err := c.registerBlob(blobs[0])
		if err != nil {
			return nil, err
		}
		return []uint32{id}, nil
	}
	chunks, err := splitBlobChunks(blobs)
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, 0, len(blobs))
	for _, chunk := range chunks {
		reply, err := c.call(opRegisterBatchTag, appendBlobList(nil, chunk), time.Time{})
		if err != nil {
			return nil, err
		}
		got, err := parseIDList(reply)
		if err != nil || len(got) != len(chunk) {
			return nil, fmt.Errorf("taintmap: register batch reply of %d bytes", len(reply))
		}
		ids = append(ids, got...)
	}
	return ids, nil
}

// Lookup implements Client: the batch of one.
func (c *RemoteClient) Lookup(id uint32) (taint.Taint, error) {
	if id == 0 {
		return taint.Taint{}, nil
	}
	if t, ok := c.memo.get(id); ok {
		return t, nil
	}
	ts, err := c.LookupBatch([]uint32{id})
	if err != nil {
		return taint.Taint{}, err
	}
	return ts[0], nil
}

// RegisterBatch implements Client: all unregistered distinct taints go
// to the server in one round trip — or several, transparently, when the
// encoded batch would overflow the frame limit.
func (c *RemoteClient) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	ids, pending, posOf := collectRegister(ts)
	if len(pending) == 0 {
		return ids, nil
	}
	blobs, err := marshalAll(pending)
	if err != nil {
		return nil, err
	}
	fresh, err := c.registerBlobs(blobs)
	if err != nil {
		return nil, err
	}
	adoptFresh(c.memo, ids, fresh, pending, posOf)
	return ids, nil
}

// LookupBatch implements Client: all memo misses go to the server in
// one round trip — chunked when the id list overflows a frame,
// and re-requesting the tail when the server answers with a partial
// blob list to respect the reply frame budget.
func (c *RemoteClient) LookupBatch(ids []uint32) ([]taint.Taint, error) {
	return c.lookupBatchDeadline(ids, time.Time{})
}

// lookupBatchDeadline is LookupBatch bounded by an absolute deadline
// (zero = no deadline) covering every chunk round trip — the per-member
// leg of the cluster client's hedged reads.
func (c *RemoteClient) lookupBatchDeadline(ids []uint32, deadline time.Time) ([]taint.Taint, error) {
	ts, missing := c.memo.splitBatch(ids)
	if len(missing) == 0 {
		return ts, nil
	}
	blobs := make([][]byte, 0, len(missing))
	for _, chunk := range splitIDChunks(missing) {
		for len(chunk) > 0 {
			reply, err := c.call(opLookupBatchTag, appendIDList(nil, chunk), deadline)
			if err != nil {
				return nil, err
			}
			got, err := parseBlobList(reply)
			if err != nil {
				return nil, err
			}
			if len(got) == 0 || len(got) > len(chunk) {
				return nil, fmt.Errorf("taintmap: lookup batch returned %d of %d blobs", len(got), len(chunk))
			}
			blobs = append(blobs, got...)
			chunk = chunk[len(got):]
		}
	}
	if err := adoptBlobs(c.tree, c.memo, ts, ids, missing, blobs); err != nil {
		return nil, err
	}
	return ts, nil
}

// Stats fetches the server-side counters.
func (c *RemoteClient) Stats() (Stats, error) {
	reply, err := c.call(opStatsTag, nil, time.Time{})
	if err != nil {
		return Stats{}, err
	}
	if len(reply) != 24 {
		return Stats{}, fmt.Errorf("taintmap: stats reply of %d bytes", len(reply))
	}
	return Stats{
		GlobalTaints:  int(binary.BigEndian.Uint64(reply[0:8])),
		Registrations: int64(binary.BigEndian.Uint64(reply[8:16])),
		Lookups:       int64(binary.BigEndian.Uint64(reply[16:24])),
	}, nil
}

// Close implements Client: it tears down the connection and waits for
// the demux goroutine to drain, failing any in-flight calls. Close is
// idempotent — second and later calls return the first call's result
// without touching the connection again.
func (c *RemoteClient) Close() error {
	c.closeOnce.Do(func() {
		c.pmu.Lock()
		if c.broken == nil {
			c.broken = ErrClientClosed
		}
		c.pmu.Unlock()
		c.closeErr = c.conn.Close()
		<-c.done
	})
	return c.closeErr
}
