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
// same taint into one request, and the id -> taint memo is read
// under an RWMutex so warm lookups never serialize.
type RemoteClient struct {
	conn io.ReadWriteCloser
	front

	// timeout bounds each call's wait for a response. It is enforced
	// out-of-band: a watchdog goroutine scans the pending table at
	// timeout/4 granularity and declares the whole connection wedged
	// (ErrCallTimeout) when any call has waited longer than timeout.
	// The per-call cost is one time.Now() on the wire path — no timer
	// churn, no extra select cases — so the deadline-bearing client is
	// as fast as the bare one. Zero disables enforcement entirely.
	timeout time.Duration

	// The outbound half (see send). sendMu is a leaf: it is never held
	// across conn.Write, another lock or a blocking channel operation
	// (distavet lockorder pins this).
	sendMu   sync.Mutex
	out      []byte        // request frames appended since the last write began
	spare    []byte        // the buffer the previous write used, recycled at the next swap
	flushing bool          // a caller is writing; frames appended now ride its next write
	room     chan struct{} // non-nil while a caller waits for out to drain; closed after each write

	nextTag atomic.Uint32

	pmu     sync.Mutex
	pending map[uint32]pendingCall
	broken  error // set once the connection is unusable

	done chan struct{} // closed when the demux goroutine exits

	closeOnce sync.Once
	closeErr  error

	sfMu sync.Mutex
	sf   map[taint.Taint]*regFlight
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

// regFlight is one in-flight registration shared by every goroutine
// registering the same taint (singleflight).
type regFlight struct {
	done sync.WaitGroup
	id   uint32
	err  error
}

// ErrClientClosed reports use of a RemoteClient whose connection is
// gone — closed by the caller or lost to a transport error. Every call
// pending at the moment of failure and every call issued afterwards
// fails with an error matching it under errors.Is, so the cluster
// client's members can tell "the connection died" apart from "the server
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
// and per-call timeout. A cluster client threads its one cache through
// every connection of every member, so taints resolved before a
// reconnect stay warm after it.
func newRemoteClientWith(conn io.ReadWriteCloser, tree *taint.Tree, memo *cache, timeout time.Duration) *RemoteClient {
	c := &RemoteClient{
		conn:    conn,
		timeout: timeout,
		pending: make(map[uint32]pendingCall),
		done:    make(chan struct{}),
	}
	c.front = front{tree, memo, c}
	go c.demux()
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

// muxLingerSpins bounds how many scheduler yields a flusher spends
// waiting for more frames before it writes, when other calls are in
// flight. A handful of yields (~1µs) is enough to let goroutines that
// just received a batch of replies append their next request, which
// keeps the batch convoy alive; it is far below the cost of the write
// syscall it saves.
const muxLingerSpins = 16

// sendHighWater is how many unwritten bytes may sit behind a write in
// progress before further callers wait for it to finish: out never
// exceeds sendHighWater plus one frame, however slow the transport.
const sendHighWater = 64 << 10

// send puts one request frame on the connection by caller-driven group
// commit. The frame is appended to out under sendMu; a caller that finds
// a write in progress is done — its frame rides that flusher's next
// write. Otherwise the caller becomes the flusher: it swaps the buffers,
// writes with sendMu released, and repeats until out stays empty, so a
// burst of concurrent callers shares one write syscall instead of paying
// one each, and nobody hands a frame to another goroutine.
//
// alone says no other call was pending when this one registered: such a
// caller writes at once. With other calls in flight the flusher first
// lingers a few scheduler yields (callers woken by one batch of replies
// need about that long to append their next request), which is what
// lets batches sustain themselves instead of decaying to one syscall per
// frame.
//
// Only the flusher can block in conn.Write, and it does so for as long
// as the transport does: its own deadline is not consulted, and the
// watchdog (or Close) releases it by closing the connection. Callers
// that merely appended stay free to give up at their deadlines. When out
// already holds sendHighWater bytes behind a write, a caller waits for
// that write before appending — giving up at expired, or when the
// connection dies — so the buffer is bounded whatever the transport
// does. A write error closes the connection and keeps the flusher role
// for good: the demux goroutine fails every pending call, and frames
// appended in the moment before it does are never written.
//
// send reports false when it gave up waiting for room and appended
// nothing.
func (c *RemoteClient) send(op byte, tag uint32, payload []byte, alone bool, expired <-chan time.Time) bool {
	c.sendMu.Lock()
	for c.flushing && len(c.out) >= sendHighWater {
		if c.room == nil {
			c.room = make(chan struct{})
		}
		room := c.room
		c.sendMu.Unlock()
		select {
		case <-room:
		case <-c.done:
			return false
		case <-expired:
			return false
		}
		c.sendMu.Lock()
	}
	c.out = append(appendFrameHeader(c.out, op, tag, len(payload)), payload...)
	if c.flushing {
		c.sendMu.Unlock()
		return true
	}
	c.flushing = true
	for {
		if !alone {
			for spins, n := 0, len(c.out); spins < muxLingerSpins; spins++ {
				c.sendMu.Unlock()
				runtime.Gosched()
				c.sendMu.Lock()
				if len(c.out) != n {
					spins, n = 0, len(c.out)
				}
			}
		}
		buf := c.out
		c.out, c.spare = c.spare[:0], nil
		c.sendMu.Unlock()
		_, err := c.conn.Write(buf)
		if err != nil {
			// The demux goroutine observes the closed connection and
			// fails every pending call, this caller's included.
			c.conn.Close()
			return true
		}
		c.sendMu.Lock()
		if cap(buf) <= sendHighWater {
			c.spare = buf[:0] // an oversize frame's buffer is not kept
		}
		if c.room != nil {
			close(c.room)
			c.room = nil
		}
		if len(c.out) == 0 {
			c.flushing = false
			c.sendMu.Unlock()
			return true
		}
		alone = false // frames arrived during the write
	}
}

// demux reads responses and hands each to the caller waiting on
// its tag. On connection loss it fails every pending and future call.
func (c *RemoteClient) demux() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var err error
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
		c.pmu.Unlock()
		if ch != nil { // nil: the caller gave up at its deadline
			ch <- muxReply{status: status, payload: payload}
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
	c.pmu.Unlock()
	close(c.done)
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
	alone := len(c.pending) == 1
	c.pmu.Unlock()

	if !c.send(op, tag, payload, alone, expired) {
		// Never appended, so no reply can come: the entry is gone only if
		// the dying demux swept it (and closed ch).
		if !c.withdraw(tag) {
			return c.finishReply(ch, muxReply{}, false)
		}
		replyChans.Put(ch)
		return nil, fmt.Errorf("%w: request not sent within %v", ErrDeadlineExceeded, d)
	}

	select {
	case reply, ok := <-ch:
		return c.finishReply(ch, reply, ok)
	case <-expired:
		if !c.withdraw(tag) {
			// The reply raced the deadline: the demux already dequeued the
			// entry, so a send (buffered) or close is guaranteed — take it.
			reply, ok := <-ch
			return c.finishReply(ch, reply, ok)
		}
		replyChans.Put(ch)
		return nil, fmt.Errorf("%w: no response within %v", ErrDeadlineExceeded, d)
	}
}

// withdraw removes the pending entry of a call that stopped waiting and
// reports whether it was still there. False means the demux goroutine
// dequeued it first and a send or close on its channel is guaranteed;
// true means the channel saw neither and may re-enter the pool.
func (c *RemoteClient) withdraw(tag uint32) bool {
	c.pmu.Lock()
	_, mine := c.pending[tag]
	delete(c.pending, tag)
	c.pmu.Unlock()
	return mine
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

// registerBlob resolves t (serialized: blob) with singleflight dedup: N
// goroutines registering the same taint issue one request. The tree
// interns, so the taint is the blob's identity and keys the table.
func (c *RemoteClient) registerBlob(t taint.Taint, blob []byte) (uint32, error) {
	c.sfMu.Lock()
	if f, ok := c.sf[t]; ok {
		c.sfMu.Unlock()
		f.done.Wait()
		return f.id, f.err
	}
	f := &regFlight{}
	f.done.Add(1)
	if c.sf == nil {
		c.sf = make(map[taint.Taint]*regFlight)
	}
	c.sf[t] = f
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
	delete(c.sf, t)
	c.sfMu.Unlock()
	f.done.Done()
	return f.id, f.err
}

// register implements transport, picking the wire op by batch size: a
// lone blob goes out as a single register, deduplicated by singleflight
// against other goroutines registering the same blob at the same moment,
// while several go as batch frames, chunked transparently — several round
// trips when the encoded batch would overflow the frame limit.
func (c *RemoteClient) register(ts []taint.Taint, blobs [][]byte) ([]uint32, error) {
	if len(blobs) == 1 {
		id, err := c.registerBlob(ts[0], blobs[0])
		if err != nil {
			return nil, err
		}
		ids := []uint32{id}
		c.stamp(ts, ids)
		return ids, nil
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
	c.stamp(ts, ids)
	return ids, nil
}

// lookup implements transport.
func (c *RemoteClient) lookup(ids []uint32) ([]taint.Taint, error) {
	return c.lookupDeadline(ids, time.Time{})
}

// lookupDeadline fetches and adopts ids in one round trip — chunked when
// the id list overflows a frame, and re-requesting the tail when the
// server answers with a partial blob list to respect the reply frame
// budget — bounded by an absolute deadline (zero = none) covering every
// chunk: the per-member leg of the cluster client's hedged reads.
func (c *RemoteClient) lookupDeadline(ids []uint32, deadline time.Time) ([]taint.Taint, error) {
	blobs := make([][]byte, 0, len(ids))
	for _, chunk := range splitIDChunks(ids) {
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
	return c.adopt(ids, blobs, false)
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
