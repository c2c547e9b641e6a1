// Package load is the closed-loop load plane behind cmd/dista-load and
// the soak invariant of `make invariants` (DESIGN.md §12): it drives
// tens of thousands of concurrent instrumented connections over the
// netsim scheduler fabric and reports tail latency out of the shared
// log-scale histogram.
//
// The generator is closed-loop — every connection has exactly one
// operation outstanding: write a payload through its instrumented
// endpoint, wait for the sink's echo to decode back, record the
// round-trip, issue the next op. Closed loops measure the latency the
// system actually delivers under a fixed concurrency rather than the
// latency of an overload queue, which is the shape the paper's testbed
// workloads (and The Taint Rabbit's mixed-payload argument) call for.
//
// Sessions are multiplexed, not goroutine-per-connection: a handful of
// worker goroutines drive all sessions off a netsim.Poller run queue,
// and the echo sink drains its side the same way. That is what lets a
// race-enabled soak hold 50k concurrent connections — the race
// runtime's ~8k goroutine ceiling would kill a thread-per-conn design
// long before the fabric itself became the limit.
package load

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/hist"
	"dista/internal/instrument"
	"dista/internal/jni"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Path selects the transport a session drives.
type Path int

const (
	PathStream   Path = iota // instrument.Endpoint over a stream conn
	PathDatagram             // PacketSend/PacketReceive over UDP
	PathVectored             // WritevBuffers (scatter/gather) over a stream conn
)

// Kind selects the taint shape of a session's payload — the four
// density classes the wire tiers price differently.
type Kind int

const (
	KindClean   Kind = iota // untainted: passthrough tier
	KindUniform             // one label over the whole payload
	KindSparse              // a few dirty islands
	KindDense               // alternating labels, maximal fragmentation
)

// Mix is a percentage split. Fields must sum to 100.
type Mix struct {
	Clean, Uniform, Sparse, Dense int
}

// PathMix is a percentage split across transports. Sums to 100.
type PathMix struct {
	Stream, Datagram, Vectored int
}

// Config parameterizes one load run.
type Config struct {
	Conns   int // concurrent sessions (= connections), required
	Ops     int // operations per session (default 8)
	Payload int // payload bytes per op (default 1024)

	Workers     int // driver goroutines multiplexing the sessions (default 4)
	SinkWorkers int // echo-sink goroutines in polled mode (default 4)

	Mix   Mix     // taint-shape split (default 70/10/10/10)
	Paths PathMix // transport split (default 60/20/20)

	// ClusterMembers > 0 stands up a live simulated taintmap cluster of
	// that many members (replication factor 2 when possible) and routes
	// every agent's registrations and lookups through it. Zero shares
	// one in-process store — the fabric is the system under test.
	ClusterMembers int

	// SinkGoroutinePerConn switches the echo sink to the pre-fabric
	// shape — one parked reader goroutine per accepted connection —
	// for the goroutine-headroom comparison. The default sink is
	// poller-based.
	SinkGoroutinePerConn bool

	// Agents bounds the tracker.Agent pool sessions share (default 16).
	Agents int

	// Hist, when non-nil, receives every per-op latency sample in
	// addition to the run's own report quantiles.
	Hist *hist.Hist
}

// Report is the outcome of one run.
type Report struct {
	Conns          int
	Ops            int64         // operations completed
	Bytes          int64         // payload bytes echoed back and decoded
	TaintBytes     int64         // tainted payload bytes carried
	Elapsed        time.Duration // wall time for the whole run
	P50, P99, P999 time.Duration // per-op round-trip quantiles
	SinkGoroutines int           // goroutines the echo sink used
	PeakGoroutines int           // max runtime.NumGoroutine() observed
}

// OpsPerSec is the closed-loop throughput.
func (r Report) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// BytesPerSec is the decoded payload throughput.
func (r Report) BytesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds()
}

// TaintsPerSec is the tainted-byte throughput — how much labelled data
// the tracker moved per second.
func (r Report) TaintsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TaintBytes) / r.Elapsed.Seconds()
}

func (r Report) String() string {
	return fmt.Sprintf(
		"conns=%d ops=%d bytes=%d elapsed=%v\n"+
			"latency p50=%v p99=%v p999=%v\n"+
			"throughput %.0f ops/sec, %.0f bytes/sec, %.0f taints/sec\n"+
			"goroutines sink=%d peak=%d",
		r.Conns, r.Ops, r.Bytes, r.Elapsed.Round(time.Millisecond),
		r.P50, r.P99, r.P999,
		r.OpsPerSec(), r.BytesPerSec(), r.TaintsPerSec(),
		r.SinkGoroutines, r.PeakGoroutines)
}

// udpSinkShard bounds how many datagram sessions share one sink socket:
// closed-loop, each session has one datagram outstanding, so the shard
// size keeps the sink queue safely under netsim's per-socket cap.
const udpSinkShard = 512

// session is one closed-loop connection's state machine. A session is
// owned by exactly one driver goroutine at a time: the poller's oneshot
// delivery hands it over, and it is not rearmed until the owner is done
// with it.
type session struct {
	id   int
	path Path
	kind Kind

	// stream/vectored
	ep   *instrument.Endpoint
	conn *netsim.Conn
	vsrc []*jni.DirectBuffer // vectored write halves
	vlen []int

	// datagram
	agent *tracker.Agent
	sock  *netsim.UDPSocket
	dst   string

	payload taint.Bytes
	rbuf    taint.Bytes
	h       *netsim.PollHandle

	started time.Time
	got     int
	opsLeft int
}

// engine is the shared run state.
type engine struct {
	cfg   Config
	net   *netsim.Network
	h     *hist.Hist
	extra *hist.Hist // cfg.Hist, may be nil

	poller *netsim.Poller

	ops        atomic.Int64
	bytes      atomic.Int64
	taintBytes atomic.Int64
	remaining  atomic.Int64
	peakGoro   atomic.Int64

	errOnce sync.Once
	err     error
	done    chan struct{} // closed when remaining hits zero or on error
}

func (e *engine) fail(err error) {
	e.errOnce.Do(func() {
		e.err = err
		close(e.done)
		e.poller.Close()
	})
}

func (e *engine) finishSession() {
	if e.remaining.Add(-1) == 0 {
		e.errOnce.Do(func() {
			close(e.done)
			e.poller.Close()
		})
	}
}

// withDefaults fills the zero values in.
func (c Config) withDefaults() (Config, error) {
	if c.Conns <= 0 {
		return c, fmt.Errorf("load: Conns must be positive, got %d", c.Conns)
	}
	if c.Ops == 0 {
		c.Ops = 8
	}
	if c.Payload == 0 {
		c.Payload = 1024
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.SinkWorkers == 0 {
		c.SinkWorkers = 4
	}
	if c.Mix == (Mix{}) {
		c.Mix = Mix{Clean: 70, Uniform: 10, Sparse: 10, Dense: 10}
	}
	if c.Paths == (PathMix{}) {
		c.Paths = PathMix{Stream: 60, Datagram: 20, Vectored: 20}
	}
	if s := c.Mix.Clean + c.Mix.Uniform + c.Mix.Sparse + c.Mix.Dense; s != 100 {
		return c, fmt.Errorf("load: taint mix sums to %d, want 100", s)
	}
	if s := c.Paths.Stream + c.Paths.Datagram + c.Paths.Vectored; s != 100 {
		return c, fmt.Errorf("load: path mix sums to %d, want 100", s)
	}
	if c.Agents == 0 {
		c.Agents = 16
	}
	if c.Agents > c.Conns {
		c.Agents = c.Conns
	}
	return c, nil
}

// pathOf deterministically assigns session i a transport so the split
// holds within every window of 100 sessions.
func pathOf(i int, m PathMix) Path {
	r := i % 100
	switch {
	case r < m.Stream:
		return PathStream
	case r < m.Stream+m.Datagram:
		return PathDatagram
	default:
		return PathVectored
	}
}

// kindOf spreads the taint shapes on a stride coprime with pathOf's so
// every (path, kind) pair occurs.
func kindOf(i int, m Mix) Kind {
	r := (i * 37) % 100
	switch {
	case r < m.Clean:
		return KindClean
	case r < m.Clean+m.Uniform:
		return KindUniform
	case r < m.Clean+m.Uniform+m.Sparse:
		return KindSparse
	default:
		return KindDense
	}
}

// buildPayload constructs one payload of the given shape, tagging its
// labels from the agent, and reports how many bytes carry taint.
func buildPayload(a *tracker.Agent, kind Kind, size int) (taint.Bytes, int64) {
	p := taint.MakeBytes(size)
	for i := range p.Data {
		p.Data[i] = byte(i)
	}
	switch kind {
	case KindClean:
		return p, 0
	case KindUniform:
		p.SetRange(0, size, a.Source("load.uniform", "u"))
		return p, int64(size)
	case KindSparse:
		// Four dirty islands of size/64 bytes each (1 KiB of a 64 KiB
		// payload, scaled down with the payload).
		isle := size / 64
		if isle == 0 {
			isle = 1
		}
		src := a.Source("load.sparse", "s")
		var tainted int64
		for off := 0; off+isle <= size && tainted < int64(4*isle); off += size / 4 {
			p.SetRange(off, off+isle, src)
			tainted += int64(isle)
		}
		return p, tainted
	default: // KindDense
		s1, s2 := a.Source("load.dense", "d1"), a.Source("load.dense", "d2")
		for i := 0; i+1 < size; i += 2 {
			p.SetLabel(i, s1)
			p.SetLabel(i+1, s2)
		}
		return p, int64(size)
	}
}

// Run executes one load run and blocks until every session has
// completed its ops (or the first error).
func Run(cfg Config) (Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}
	net := netsim.New()
	e := &engine{
		cfg:    cfg,
		net:    net,
		h:      &hist.Hist{},
		extra:  cfg.Hist,
		poller: netsim.NewPoller(),
		done:   make(chan struct{}),
	}
	e.remaining.Store(int64(cfg.Conns))

	// --- taint map: shared local store or a live simulated cluster ---
	var newAgent func(name string) *tracker.Agent
	if cfg.ClusterMembers > 0 {
		rf := 2
		if cfg.ClusterMembers < 2 {
			rf = 1
		}
		servers, ring, err := taintmap.StartSimCluster(net, cfg.ClusterMembers, rf)
		if err != nil {
			return Report{}, fmt.Errorf("load: cluster: %w", err)
		}
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		newAgent = func(name string) *tracker.Agent {
			cc, err := taintmap.DialSimCluster(net, name, ring, taint.NewTree(), taintmap.ClusterOptions{})
			if err != nil {
				panic(fmt.Sprintf("load: dial cluster: %v", err))
			}
			return tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(cc))
		}
	} else {
		store := taintmap.NewStore()
		newAgent = func(name string) *tracker.Agent {
			return tracker.New(name, tracker.ModeDista,
				tracker.WithTaintMap(taintmap.NewLocalClient(store, taint.NewTree())))
		}
	}

	// --- agent pool and shared per-(agent, kind) payloads ---
	agents := make([]*tracker.Agent, cfg.Agents)
	payloads := make([][4]taint.Bytes, cfg.Agents)
	for i := range agents {
		agents[i] = newAgent(fmt.Sprintf("lg%d", i))
		for k := 0; k < 4; k++ {
			payloads[i][k], _ = buildPayload(agents[i], Kind(k), cfg.Payload)
		}
	}

	// --- echo sinks ---
	sinkGoroutines, stopSinks, err := e.startSinks()
	if err != nil {
		return Report{}, err
	}
	defer stopSinks()

	// --- goroutine watermark sampler ---
	stopSampler := make(chan struct{})
	defer close(stopSampler)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if g := int64(runtime.NumGoroutine()); g > e.peakGoro.Load() {
					e.peakGoro.Store(g)
				}
			}
		}
	}()

	// --- sessions ---
	sessions := make([]*session, cfg.Conns)
	dgIdx := 0 // datagram-session ordinal, maps sessions onto sink shards
	for i := 0; i < cfg.Conns; i++ {
		s := &session{
			id:      i,
			path:    pathOf(i, cfg.Paths),
			kind:    kindOf(i, cfg.Mix),
			agent:   agents[i%cfg.Agents],
			payload: payloads[i%cfg.Agents][kindOf(i, cfg.Mix)],
			rbuf:    taint.MakeBytes(cfg.Payload),
			opsLeft: cfg.Ops,
		}
		switch s.path {
		case PathDatagram:
			sock, err := net.ListenPacket(fmt.Sprintf("lc%d:1", i))
			if err != nil {
				return Report{}, fmt.Errorf("load: session %d: %w", i, err)
			}
			s.sock = sock
			s.dst = fmt.Sprintf("usink%d:1", dgIdx/udpSinkShard)
			dgIdx++
		default:
			conn, err := net.DialFrom(fmt.Sprintf("lg%d:c%d", i%cfg.Agents, i), "sink:1")
			if err != nil {
				return Report{}, fmt.Errorf("load: session %d: %w", i, err)
			}
			s.conn = conn
			s.ep = instrument.NewAdaptiveEndpoint(s.agent, conn)
			if s.path == PathVectored {
				s.initVectored()
			}
		}
		sessions[i] = s
	}

	// --- drive ---
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker()
		}()
	}
	// Fire op #1 and only then register each session with the poller:
	// registration arms the handle, and from that instant the session
	// belongs to whichever worker the echo's readiness wakes — the
	// setup loop must not touch it again.
	for _, s := range sessions {
		if err := e.writeOp(s); err != nil {
			e.fail(fmt.Errorf("load: session %d first op: %w", s.id, err))
			break
		}
		// Register disarmed, publish the handle, then arm: with auto-arm
		// the echo could be delivered — and the worker chase s.h — before
		// the assignment below lands.
		switch s.path {
		case PathDatagram:
			s.h = e.poller.RegisterUDP(s.sock, s)
		default:
			s.h = e.poller.RegisterConn(s.conn, s)
		}
		s.h.Rearm()
	}

	if g := int64(runtime.NumGoroutine()); g > e.peakGoro.Load() {
		e.peakGoro.Store(g)
	}
	<-e.done
	elapsed := time.Since(start)
	wg.Wait()
	for _, s := range sessions {
		s.close()
	}
	if e.err != nil {
		return Report{}, e.err
	}

	r := Report{
		Conns:          cfg.Conns,
		Ops:            e.ops.Load(),
		Bytes:          e.bytes.Load(),
		TaintBytes:     e.taintBytes.Load(),
		Elapsed:        elapsed,
		SinkGoroutines: sinkGoroutines,
		PeakGoroutines: int(e.peakGoro.Load()),
	}
	if q, ok := e.h.Quantile(0.50); ok {
		r.P50 = q
	}
	if q, ok := e.h.Quantile(0.99); ok {
		r.P99 = q
	}
	if q, ok := e.h.Quantile(0.999); ok {
		r.P999 = q
	}
	return r, nil
}

// countPath returns how many of the configured sessions use path p.
func (e *engine) countPath(p Path) int {
	n := 0
	for i := 0; i < e.cfg.Conns; i++ {
		if pathOf(i, e.cfg.Paths) == p {
			n++
		}
	}
	return n
}

// initVectored splits the session payload into two DirectBuffer halves
// for scatter/gather writes.
func (s *session) initVectored() {
	size := len(s.payload.Data)
	half := size / 2
	mk := func(from, to int) *jni.DirectBuffer {
		db := jni.NewDirectBuffer(to - from)
		copy(db.Data, s.payload.Data[from:to])
		src := s.payload.Slice(from, to)
		src.ForEachDirtyRun(func(rfrom, rto int, t taint.Taint) {
			db.B.SetRange(rfrom, rto, t)
		})
		return db
	}
	s.vsrc = []*jni.DirectBuffer{mk(0, half), mk(half, size)}
	s.vlen = []int{half, size - half}
}

// writeOp starts one op on s: stamp the clock and write the payload.
// The caller re-arms (or first registers) the poller handle afterwards.
func (e *engine) writeOp(s *session) error {
	s.started = time.Now()
	s.got = 0
	switch s.path {
	case PathDatagram:
		if err := instrument.PacketSend(s.agent, s.sock, s.payload, s.dst); err != nil {
			return err
		}
	case PathVectored:
		if _, err := s.ep.WritevBuffers(s.vsrc, s.vlen); err != nil {
			return err
		}
	default:
		if err := s.ep.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// issue is writeOp plus re-arming the echo wakeup — the steady-state
// worker path.
func (e *engine) issue(s *session) error {
	if err := e.writeOp(s); err != nil {
		return err
	}
	s.h.Rearm()
	return nil
}

// complete consumes one op's echo. For streams it reads until the whole
// payload has decoded back — any blocking is bounded, because the
// remainder is already in flight in the closed loop. For datagrams one
// receive is one op. A session's first echo is verified byte for byte and
// label for label: that op carries whatever the session had to register
// out to the sink and back — its definitions included — so it is where a
// dropped or misattributed label would show. Later ops check the count
// alone, which keeps the verification out of the steady-state latencies.
func (e *engine) complete(s *session) error {
	want := len(s.payload.Data)
	switch s.path {
	case PathDatagram:
		n, _, err := instrument.PacketReceive(s.agent, s.sock, &s.rbuf)
		if err != nil {
			return err
		}
		s.got = n
	default:
		for s.got < want {
			sub := s.rbuf.Slice(s.got, want)
			n, err := s.ep.Read(&sub)
			if err != nil {
				return err
			}
			s.got += n
		}
	}
	if s.got != want {
		return fmt.Errorf("load: session %d echoed %d bytes, want %d", s.id, s.got, want)
	}
	lat := time.Since(s.started)
	e.h.Observe(lat)
	if e.extra != nil {
		e.extra.Observe(lat)
	}
	if s.opsLeft == e.cfg.Ops {
		if !bytes.Equal(s.rbuf.Data, s.payload.Data) {
			return fmt.Errorf("load: session %d: the first echo came back with other bytes", s.id)
		}
		if at := labelMismatch(s.rbuf, s.payload); at >= 0 {
			return fmt.Errorf("load: session %d: byte %d of the first echo came back under %v, sent under %v",
				s.id, at, s.rbuf.LabelAt(at), s.payload.LabelAt(at))
		}
	}
	e.ops.Add(1)
	e.bytes.Add(int64(want))
	e.taintBytes.Add(taintSizeOf(s))
	return nil
}

// labelMismatch returns the first byte that got and want hold under
// different tag sets, or -1. Both are walked by runs, so a match costs a
// compare per run rather than per byte.
func labelMismatch(got, want taint.Bytes) int {
	type run struct {
		to int
		t  taint.Taint
	}
	var runs []run
	want.ForEachRun(func(_, to int, t taint.Taint) { runs = append(runs, run{to, t}) })
	at, k := -1, 0
	got.ForEachRun(func(from, to int, t taint.Taint) {
		for at < 0 && from < to {
			if !taint.SameSet(t, runs[k].t) {
				at = from
				return
			}
			if from = min(to, runs[k].to); from == runs[k].to {
				k++
			}
		}
	})
	return at
}

// taintSizeOf is the tainted byte count one of s's ops carries.
func taintSizeOf(s *session) int64 {
	size := len(s.payload.Data)
	switch s.kind {
	case KindClean:
		return 0
	case KindSparse:
		isle := size / 64
		if isle == 0 {
			isle = 1
		}
		n := int64(0)
		for off := 0; off+isle <= size && n < int64(4*isle); off += size / 4 {
			n += int64(isle)
		}
		return n
	default:
		return int64(size)
	}
}

// worker drives sessions off the poller run queue until the run ends.
func (e *engine) worker() {
	for {
		h, ok := e.poller.Wait()
		if !ok {
			return
		}
		s := h.Tag.(*session)
		if err := e.complete(s); err != nil {
			e.fail(fmt.Errorf("load: session %d: %w", s.id, err))
			return
		}
		s.opsLeft--
		if s.opsLeft <= 0 {
			s.close()
			e.finishSession()
			continue
		}
		if err := e.issue(s); err != nil {
			e.fail(fmt.Errorf("load: session %d: %w", s.id, err))
			return
		}
	}
}

func (s *session) close() {
	if s.h != nil {
		s.h.Close()
		s.h = nil
	}
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	if s.sock != nil {
		s.sock.Close()
		s.sock = nil
	}
}

// startSinks brings up the echo plane: a stream listener at sink:1
// drained either by a poller worker pool or (for the headroom
// comparison) a goroutine per connection, plus one UDP echo socket per
// shard of datagram sessions. It returns the sink's goroutine count and
// a stop function.
func (e *engine) startSinks() (goroutines int, stop func(), err error) {
	var closers []func()
	stop = func() {
		for _, c := range closers {
			c()
		}
	}

	streamConns := e.countPath(PathStream) + e.countPath(PathVectored)
	if streamConns > 0 {
		l, lerr := e.net.Listen("sink:1")
		if lerr != nil {
			return 0, stop, lerr
		}
		closers = append(closers, func() { l.Close() })
		if e.cfg.SinkGoroutinePerConn {
			goroutines += streamConns + 1
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					go echoConn(c)
				}
			}()
		} else {
			sp := netsim.NewPoller()
			closers = append(closers, sp.Close)
			goroutines += e.cfg.SinkWorkers + 1
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					sp.AddConn(c, c)
				}
			}()
			for w := 0; w < e.cfg.SinkWorkers; w++ {
				go func() {
					buf := make([]byte, 64<<10)
					for {
						h, ok := sp.Wait()
						if !ok {
							return
						}
						c := h.Tag.(*netsim.Conn)
						n, err := c.Read(buf)
						if err != nil {
							h.Close()
							c.Close()
							continue
						}
						if _, err := c.Write(buf[:n]); err != nil {
							h.Close()
							c.Close()
							continue
						}
						h.Rearm()
					}
				}()
			}
		}
	}

	dgramConns := e.countPath(PathDatagram)
	if dgramConns > 0 {
		shards := (dgramConns + udpSinkShard - 1) / udpSinkShard
		for j := 0; j < shards; j++ {
			sock, serr := e.net.ListenPacket(fmt.Sprintf("usink%d:1", j))
			if serr != nil {
				return goroutines, stop, serr
			}
			closers = append(closers, func() { sock.Close() })
			goroutines++
			go func(sock *netsim.UDPSocket) {
				buf := make([]byte, 128<<10)
				for {
					n, from, err := sock.ReceiveFrom(buf)
					if err != nil {
						return
					}
					if err := sock.SendTo(buf[:n], from); err != nil {
						return
					}
				}
			}(sock)
		}
	}
	return goroutines, stop, nil
}

// echoConn is the goroutine-per-connection sink body: park on read,
// echo, repeat — the pre-fabric shape whose goroutine bill the poller
// sink is measured against.
func echoConn(c *netsim.Conn) {
	buf := make([]byte, 64<<10)
	for {
		n, err := c.Read(buf)
		if err != nil {
			c.Close()
			return
		}
		if _, err := c.Write(buf[:n]); err != nil {
			c.Close()
			return
		}
	}
}
