package microbench

import (
	"reflect"
	"testing"

	"dista/internal/core/tracker"
)

// testSize keeps the integration runs fast; the benchmark runs 64 KiB.
const testSize = 32 << 10

// TestMicroCaseInventory checks the Table II shape (experiment E2): 30
// cases, 22 of them JRE Socket, one group per row of the table.
func TestMicroCaseInventory(t *testing.T) {
	cases := Cases()
	if len(cases) != 30 {
		t.Fatalf("got %d cases, Table II has 30", len(cases))
	}
	seen := make(map[int]bool)
	for i, c := range cases {
		if c.ID != i+1 {
			t.Fatalf("case %d has id %d; ids must be 1..30 in order", i, c.ID)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate id %d", c.ID)
		}
		seen[c.ID] = true
		if c.Name == "" || c.Group == "" || c.Run == nil {
			t.Fatalf("case %d is incomplete: %+v", c.ID, c)
		}
	}
	want := []GroupInfo{
		{Name: "JRE Socket", Count: 22},
		{Name: "JRE Datagram", Count: 1},
		{Name: "JRE SocketChannel", Count: 1},
		{Name: "JRE DatagramChannel", Count: 1},
		{Name: "JRE AsyncSocketChannel", Count: 1},
		{Name: "JRE HTTP", Count: 1},
		{Name: "Netty Socket", Count: 1},
		{Name: "Netty DatagramSocket", Count: 1},
		{Name: "Netty HTTP", Count: 1},
	}
	if got := Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

func TestCaseByID(t *testing.T) {
	c, ok := CaseByID(27)
	if !ok || c.Group != "JRE HTTP" {
		t.Fatalf("CaseByID(27) = %+v, %v", c, ok)
	}
	if _, ok := CaseByID(99); ok {
		t.Fatal("unknown id must return false")
	}
}

// TestAllCasesDistaSoundAndPrecise is the RQ1 check (experiment E3)
// over the whole micro benchmark: under DisTA, check() observes exactly
// {Data1, Data2} — nothing dropped (soundness), nothing extra
// (precision).
func TestAllCasesDistaSoundAndPrecise(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			h, err := RunCase(c, tracker.ModeDista, testSize)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"Data1", "Data2"}
			if got := h.SinkTags(); !reflect.DeepEqual(got, want) {
				t.Fatalf("sink tags = %v, want %v", got, want)
			}
		})
	}
}

// TestAllCasesPhosphorLosesTaints confirms the baseline's limitation on
// every case: intra-node-only tracking never reproduces the correct
// {Data1, Data2} answer at check(). Most cases observe nothing (the
// sender's taint is dropped at the JNI boundary); the NIO-based minette
// cases observe a *wrong* stale taint instead, because the reused
// direct buffer keeps the labels of the previous write — exactly the
// "taint of the parameter" flow of Fig. 4.
func TestAllCasesPhosphorLosesTaints(t *testing.T) {
	want := []string{"Data1", "Data2"}
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			h, err := RunCase(c, tracker.ModePhosphor, testSize)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.SinkTags(); reflect.DeepEqual(got, want) {
				t.Fatalf("phosphor produced the correct taints %v; the baseline must be unsound here", got)
			}
			// Data2 is generated on Node2 and can only reach Node1's sink
			// over the network; pure intra-node tracking can never carry it.
			for _, tag := range h.SinkTags() {
				if tag == "Data2" {
					t.Fatal("phosphor mode transported Node2's taint across the wire")
				}
			}
		})
	}
}

// TestAllCasesOffMode confirms every case runs cleanly untracked.
func TestAllCasesOffMode(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			h, err := RunCase(c, tracker.ModeOff, testSize)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.SinkTags(); len(got) != 0 {
				t.Fatalf("off-mode sink tags = %v", got)
			}
		})
	}
}

// wireFactor runs c and returns wire bytes per payload byte over both
// nodes, logging the row; a dista run must also be sound and precise at
// the sink.
func wireFactor(t *testing.T, c Case, mode tracker.Mode, size int) float64 {
	t.Helper()
	h, err := RunCase(c, mode, size)
	if err != nil {
		t.Fatal(err)
	}
	data1, wire1 := h.Node1.Agent.Traffic()
	data2, wire2 := h.Node2.Agent.Traffic()
	if data1+data2 == 0 {
		t.Fatal("no traffic recorded")
	}
	if mode == tracker.ModeDista && !reflect.DeepEqual(h.SinkTags(), []string{"Data1", "Data2"}) {
		t.Fatalf("%s: sink observed %v", c.Name, h.SinkTags())
	}
	f := float64(wire1+wire2) / float64(data1+data2)
	t.Logf("mode %-8s %-46s payload %8d B   wire %8d B   factor %.2fx", mode, c.Name, data1+data2, wire1+wire2, f)
	return f
}

// TestWireOverheadFactor is experiment E7 on a stream case. The format
// §V-F prices — every byte beside the Global ID of its own taint — is
// what traffic whose label changes on every byte crosses in, at 5x plus
// constant framing. The paper's own case 1, each payload uniformly
// tainted, needs the id once per label run and crosses at no more than
// 1.01x; so does everything with tracking off, at exactly 1. With -v it
// logs payload, wire and factor of the three rows.
func TestWireOverheadFactor(t *testing.T) {
	// The stream magic per connection and one 5-byte header per write
	// put the measured factor just above 5.
	if f := wireFactor(t, PerByteCase(), tracker.ModeDista, testSize); f < 5.0 || f > 5.01 {
		t.Fatalf("per-byte labels: wire factor = %.4f, want 5.0 plus constant framing (§V-F)", f)
	}
	c, _ := CaseByID(1)
	if f := wireFactor(t, c, tracker.ModeDista, testSize); f < 1.0 || f > 1.01 {
		t.Fatalf("uniform payloads: wire factor = %.4f, want at most 1.01", f)
	}
	if f := wireFactor(t, c, tracker.ModeOff, testSize); f != 1 {
		t.Fatalf("off-mode wire factor = %.4f, want 1", f)
	}
}

// TestCaseWireFactors pins what each Table II case puts on the wire at
// the benchmark's 64 KiB: every write takes the sound minimum of its own
// buffer, whatever the connection carried before it, and the cases'
// buffers are whole label runs — so a short tainted connection costs its
// framing, at most 1.03x, from its first write on. Two cases owe more to
// what they send, not to when they send it:
//
//   - case 3 writes a byte at a time: each byte is a frame of its own, a
//     5-byte header and a 4-byte id beside it — 10x;
//   - case 14 sends 13-byte records — a tainted int, a clean long, a
//     tainted flag — so a buffered flush holds two label runs a record,
//     far more than a range table pays for: its sound minimum is the
//     groups tier, the paper's 5x.
func TestCaseWireFactors(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			lo, hi := 1.0, 1.03
			switch c.ID {
			case 3:
				lo, hi = 9.9, 10.1
			case 14:
				lo, hi = 4.95, 5.05
			}
			if f := wireFactor(t, c, tracker.ModeDista, 64<<10); f < lo || f > hi {
				t.Fatalf("case %d: %.4f wire bytes per payload byte, want %.2f to %.2f", c.ID, f, lo, hi)
			}
		})
	}
}

// TestGlobalTaintCountSmallForSDT mirrors the §V-F observation that the
// micro/SDT style workloads register very few global taints (1-6).
func TestGlobalTaintCountSmallForSDT(t *testing.T) {
	c, _ := CaseByID(1)
	h, err := RunCase(c, tracker.ModeDista, testSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*tracker.Agent{h.Node1.Agent, h.Node2.Agent} {
		if err := a.Flush(); err != nil { // the taints streams defined inline
			t.Fatal(err)
		}
	}
	n := h.Store.Stats().GlobalTaints
	if n < 1 || n > 6 {
		t.Fatalf("global taints = %d, want 1..6 like the paper's SDT scenarios", n)
	}
}

// TestSizeDivApplies checks the byte-at-a-time cases shrink their
// payload rather than run size writes.
func TestSizeDivApplies(t *testing.T) {
	c, _ := CaseByID(3)
	if c.SizeDiv <= 1 {
		t.Fatal("single-byte case must declare a size divisor")
	}
	h, err := RunCase(c, tracker.ModeDista, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size != 64 {
		t.Fatalf("harness size = %d, want 64", h.Size)
	}
}

func TestHarnessPayloads(t *testing.T) {
	h := NewHarness(tracker.ModeDista, 8)
	d1 := h.Data1(8)
	d2 := h.Data2(8)
	if d1.Len() != 8 || d2.Len() != 8 {
		t.Fatalf("sizes %d/%d", d1.Len(), d2.Len())
	}
	if !d1.Union().Has("Data1") || !d2.Union().Has("Data2") {
		t.Fatal("payloads must carry their source tags")
	}
	if d1.Data[0] == d2.Data[0] {
		t.Fatal("payload fill patterns must differ")
	}
	// Off-mode payloads stay clean.
	off := NewHarness(tracker.ModeOff, 8)
	if off.Data1(8).HasShadow() {
		t.Fatal("off-mode payload must be shadow-free")
	}
}

func TestHarnessCheckTaints(t *testing.T) {
	h := NewHarness(tracker.ModeDista, 4)
	h.CheckTaints(h.Data1Taint(), h.Data2Taint())
	want := []string{"Data1", "Data2"}
	if got := h.SinkTags(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tags = %v", got)
	}
}
