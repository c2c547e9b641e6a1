package dista

import (
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/instrument"
	"dista/internal/jni"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Clean-path benchmarks backing BENCH_5.json: untainted traffic through
// an instrumented endpoint must cost a small constant over the plain
// netsim copy loop (and allocate nothing per write), while the same
// payload with every byte group-encoded pays the full 5x codec — the
// ratio the passthrough frame exists to win.
func BenchmarkCleanPath(b *testing.B) {
	const size = 64 << 10

	// NetsimCopy is the uninstrumented floor: a raw []byte write with a
	// persistent goroutine draining the peer. Everything the bypass adds
	// is measured against this.
	b.Run("NetsimCopy", func(b *testing.B) {
		net := netsim.New()
		cs, cr := net.Pipe()
		go drainRaw(cr)
		payload := make([]byte, size)
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cs.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		cs.Close()
	})

	// PassthroughWrite is the same shape with the full dista endpoint in
	// front: clean gate, frame header, two socket writes. The allocs/op
	// figure is the pool-leak check — it must be 0.
	b.Run("PassthroughWrite", func(b *testing.B) {
		net := netsim.New()
		store := taintmap.NewStore()
		agent := benchAgent("s", store)
		cs, cr := net.Pipe()
		go drainRaw(cr)
		sender := instrument.NewAdaptiveEndpoint(agent, cs)
		payload := taint.MakeBytes(size) // shadowed: exercises the epoch memo
		// Warm up the endpoint scratch and the pipe's backing array so
		// steady state is what gets measured.
		for i := 0; i < 4; i++ {
			if err := sender.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sender.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		cs.Close()
	})

	// PassthroughExchange is the full round trip: clean write, framed
	// decode, stale-label clear on a reused receive buffer.
	b.Run("PassthroughExchange", func(b *testing.B) {
		benchExchange(b, size)
	})

	// AlwaysEncodeExchange pushes the identical clean payload across with
	// every byte a group — what the paper's format charges traffic that
	// carries no taint at all — measured in the same run. No endpoint
	// does this any more, so the comparator is the codec on the raw
	// natives: EncodeRuns into a reused buffer and one socket write;
	// socket reads into the group decoder, popped into a reused buffer.
	b.Run("AlwaysEncodeExchange", func(b *testing.B) {
		net := netsim.New()
		cs, cr := net.Pipe()
		payload := make([]byte, size)
		done := make(chan error, 1)
		go func() {
			var dec wire.StreamDecoder
			raw, into := make([]byte, wire.WireLen(size)), make([]byte, size)
			for {
				n, err := jni.SocketRead0(cr, raw)
				dec.Feed(raw[:n])
				for dec.Buffered() > 0 {
					dec.NextRunsInto(into)
				}
				if err != nil {
					if err == io.EOF {
						err = nil
					}
					done <- err
					return
				}
			}
		}()
		var enc []byte
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc = wire.EncodeRuns(enc[:0], payload, nil)
			if err := jni.SocketWrite0(cs, enc); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		cs.Close()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	})
}

// benchAgent builds a dista-mode agent on a shared local Taint Map.
func benchAgent(name string, store *taintmap.Store) *tracker.Agent {
	a := tracker.New(name, tracker.ModeDista)
	return tracker.New(name, tracker.ModeDista,
		tracker.WithTaintMap(taintmap.NewLocalClient(store, a.Tree())))
}

// drainRaw reads and discards the peer's bytes until the stream closes,
// allocation-free (it runs inside -benchmem's accounting).
func drainRaw(c *netsim.Conn) {
	buf := make([]byte, 64<<10)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// benchExchange round-trips a clean payload through endpoint write +
// endpoint read.
func benchExchange(b *testing.B, size int) {
	net := netsim.New()
	store := taintmap.NewStore()
	sAgent, rAgent := benchAgent("s", store), benchAgent("r", store)
	cs, cr := net.Pipe()
	sender := instrument.NewAdaptiveEndpoint(sAgent, cs)
	receiver := instrument.NewAdaptiveEndpoint(rAgent, cr)
	payload := taint.MakeBytes(size)

	done := make(chan error, 1)
	go func() {
		buf := taint.MakeBytes(size)
		var total int64
		for {
			n, err := receiver.Read(&buf)
			if err != nil {
				if err == io.EOF {
					done <- nil
				} else {
					done <- err
				}
				return
			}
			total += int64(n)
		}
	}()

	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cs.Close()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
