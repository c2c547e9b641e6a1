package load

import (
	"strings"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/hist"
	"dista/internal/instrument"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// TestRunSmall exercises every (path, kind) combination end to end:
// payloads must echo back byte- and label-intact through all three
// transports against the shared local store.
func TestRunSmall(t *testing.T) {
	var h hist.Hist
	r, err := Run(Config{Conns: 200, Ops: 4, Payload: 2048, Hist: &h})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 200*4 {
		t.Fatalf("ops = %d, want %d", r.Ops, 200*4)
	}
	if r.Bytes != 200*4*2048 {
		t.Fatalf("bytes = %d, want %d", r.Bytes, 200*4*2048)
	}
	if r.TaintBytes == 0 {
		t.Fatal("no tainted bytes carried — the mix should include tainted kinds")
	}
	if r.P50 <= 0 || r.P999 < r.P50 {
		t.Fatalf("quantiles implausible: p50=%v p999=%v", r.P50, r.P999)
	}
	if h.Count() != r.Ops {
		t.Fatalf("external hist got %d samples, want %d", h.Count(), r.Ops)
	}
	if r.HeapPerConn <= 0 {
		t.Fatalf("heap per idle connection = %d B, want > 0: an open connection holds heap", r.HeapPerConn)
	}
}

// TestRunCluster routes registrations and lookups through a live
// 3-member simulated taintmap cluster.
func TestRunCluster(t *testing.T) {
	r, err := Run(Config{Conns: 60, Ops: 2, Payload: 512, ClusterMembers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 60*2 {
		t.Fatalf("ops = %d, want %d", r.Ops, 60*2)
	}
}

// TestRunGoroutinePerConnSink pins the comparison sink shape: its
// goroutine bill must scale with connections, the polled default's must
// not.
func TestRunGoroutinePerConnSink(t *testing.T) {
	polled, err := Run(Config{Conns: 300, Ops: 2, Payload: 512,
		Paths: PathMix{Stream: 100}})
	if err != nil {
		t.Fatal(err)
	}
	perConn, err := Run(Config{Conns: 300, Ops: 2, Payload: 512,
		Paths: PathMix{Stream: 100}, SinkGoroutinePerConn: true})
	if err != nil {
		t.Fatal(err)
	}
	if perConn.SinkGoroutines <= 300 {
		t.Fatalf("per-conn sink goroutines = %d, want > conns", perConn.SinkGoroutines)
	}
	if polled.SinkGoroutines >= perConn.SinkGoroutines/5 {
		t.Fatalf("polled sink goroutines = %d, want >=5x headroom vs %d",
			polled.SinkGoroutines, perConn.SinkGoroutines)
	}
}

// TestSoak50k is the PR 10 acceptance soak: 50,000 concurrent
// instrumented connections through the scheduler fabric, every payload
// echoed and decoded label-intact. Run under -race by `make soak-load`;
// the whole run multiplexes over a few dozen goroutines, which is the
// point — the race runtime's goroutine ceiling would kill a
// goroutine-per-connection design at a fraction of this fan-in.
func TestSoak50k(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 50k-connection soak")
	}
	r, err := Run(Config{Conns: 50000, Ops: 2, Payload: 512})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 50000*2 {
		t.Fatalf("ops = %d, want %d", r.Ops, 50000*2)
	}
	if r.PeakGoroutines > 1000 {
		t.Fatalf("peak goroutines = %d — the fabric is supposed to multiplex, not spawn", r.PeakGoroutines)
	}
	t.Logf("%v", r)
}

// TestSoak50kChecksLabels holds the soak to its claim, "echoed and
// decoded label-intact": an echo with the right bytes and one label
// wrong, or one label dropped, fails the op, a session's first or a
// later one; the intact echo passes. Named for `make soak-load` to run
// it beside the soak: the 50k run goes through the same complete.
func TestSoak50kChecksLabels(t *testing.T) {
	net := netsim.New()
	defer net.Shutdown()
	store := taintmap.NewStore()
	agent := func(name string) *tracker.Agent {
		a := tracker.New(name, tracker.ModeDista)
		return tracker.New(name, tracker.ModeDista, tracker.WithTaintMap(taintmap.NewLocalClient(store, a.Tree())))
	}
	a, sink := agent("lg0"), agent("sink")
	const size = 512
	for kind := KindClean; kind <= KindDense; kind++ {
		payload, _ := buildPayload(a, kind, size)
		for name, tc := range map[string]struct {
			relabel func(echo *taint.Bytes)
			opsLeft int
			fails   bool
		}{
			"intact":                  {func(*taint.Bytes) {}, 2, false},
			"wrong label":             {func(b *taint.Bytes) { b.SetLabel(size/2, sink.Source("load.wrong", "w")) }, 2, true},
			"dropped label":           {func(b *taint.Bytes) { b.SetLabel(0, taint.Taint{}) }, 2, kind != KindClean},
			"wrong label, later op":   {func(b *taint.Bytes) { b.SetLabel(size/2, sink.Source("load.wrong", "w")) }, 1, true},
			"dropped label, vectored": {func(b *taint.Bytes) { b.SetLabel(size-1, taint.Taint{}) }, 2, kind == KindUniform || kind == KindDense},
		} {
			ca, cb := net.Pipe()
			s := &session{id: 7, path: PathStream, kind: kind, ep: instrument.NewAdaptiveEndpoint(a, ca),
				payload: payload, rbuf: taint.MakeBytes(size), opsLeft: tc.opsLeft}
			if strings.HasSuffix(name, "vectored") {
				s.path = PathVectored
			}
			e := &engine{cfg: Config{Ops: 2}, h: &hist.Hist{}}
			echo := payload.Clone()
			tc.relabel(&echo)
			if err := instrument.NewAdaptiveEndpoint(sink, cb).Write(echo); err != nil {
				t.Fatal(err)
			}
			if err := e.complete(s); (err != nil) != tc.fails {
				t.Fatalf("kind %d, %s: complete = %v, want failure = %v", kind, name, err, tc.fails)
			}
		}
	}
}

// TestConfigValidation rejects malformed mixes.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero Conns accepted")
	}
	if _, err := Run(Config{Conns: 1, Mix: Mix{Clean: 50}}); err == nil {
		t.Fatal("mix not summing to 100 accepted")
	}
	if _, err := Run(Config{Conns: 1, Paths: PathMix{Stream: 150}}); err == nil {
		t.Fatal("path mix not summing to 100 accepted")
	}
}

// TestLabelMismatch: the first echo's label check finds the first byte
// whose tag set differs — inside a run, at a run boundary, in an
// untainted gap — and walks both buffers in place: no allocation.
func TestLabelMismatch(t *testing.T) {
	tree := taint.NewTree()
	a, b := tree.NewSource("a", "load:1"), tree.NewSource("b", "load:1")
	want := taint.WrapBytes(make([]byte, 256))
	for off := 0; off < 256; off += 32 {
		want.TaintRange(off, off+16, a)
		want.TaintRange(off+16, off+24, b)
	}
	if at := labelMismatch(want.Clone(), want); at != -1 {
		t.Fatalf("a buffer against its clone mismatches at %d", at)
	}
	for _, at := range []int{0, 5, 16, 23, 24, 200, 255} {
		got := want.Clone()
		got.SetLabel(at, tree.NewSource("other", "load:1"))
		if got := labelMismatch(got, want); got != at {
			t.Fatalf("relabelled byte %d: mismatch at %d", at, got)
		}
	}
	got := want.Clone()
	if allocs := testing.AllocsPerRun(100, func() { labelMismatch(got, want) }); allocs != 0 {
		t.Fatalf("labelMismatch allocates %.1f times per check, want 0", allocs)
	}
}
