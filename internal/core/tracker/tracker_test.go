package tracker

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/taintmap"
)

func TestModeParseRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeOff, ModePhosphor, ModeDista} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("want error for unknown mode")
	}
	if got := Mode(99).String(); got != "Mode(99)" {
		t.Fatalf("unknown mode String() = %q", got)
	}
}

func TestAgentDefaults(t *testing.T) {
	a := New("node1", ModeDista)
	if a.Node() != "node1" || a.LocalID() != "node1:1" {
		t.Fatalf("node=%q localID=%q", a.Node(), a.LocalID())
	}
	if !a.Tracking() || !a.InterNode() {
		t.Fatal("dista agent must track and be inter-node")
	}
	p := New("n", ModePhosphor)
	if !p.Tracking() || p.InterNode() {
		t.Fatal("phosphor agent tracks intra-node only")
	}
	o := New("n", ModeOff)
	if o.Tracking() {
		t.Fatal("off agent must not track")
	}
}

func TestSourceRespectsMode(t *testing.T) {
	off := New("n", ModeOff)
	if !off.Source("X#y", "tag").Empty() {
		t.Fatal("off mode must not generate taints")
	}
	on := New("n", ModeDista)
	tt := on.Source("X#y", "tag")
	if tt.Empty() || !tt.Has("tag") {
		t.Fatalf("source taint = %v", tt)
	}
	keys := tt.Keys()
	if keys[0].LocalID != "n:1" {
		t.Fatalf("taint LocalID = %q", keys[0].LocalID)
	}
}

func TestSourceRespectsSpec(t *testing.T) {
	spec := NewSpec([]string{"FileTxnLog#read"}, []string{"LOG#info"})
	a := New("n", ModeDista, WithSpec(spec))
	if !a.Source("Other#method", "t").Empty() {
		t.Fatal("unlisted source must not fire")
	}
	if a.Source("FileTxnLog#read", "t").Empty() {
		t.Fatal("listed source must fire")
	}
}

func TestSourceSeq(t *testing.T) {
	a := New("n", ModeDista)
	t1 := a.SourceSeq("F#read", "zxid")
	t2 := a.SourceSeq("F#read", "zxid")
	t3 := a.SourceSeq("F#read", "zxid")
	if !t1.Has("zxid1") || !t2.Has("zxid2") || !t3.Has("zxid3") {
		t.Fatalf("seq tags = %v %v %v", t1, t2, t3)
	}
	if off := New("n", ModeOff); !off.SourceSeq("F#read", "z").Empty() {
		t.Fatal("off mode SourceSeq must be empty")
	}
}

func TestCheckSinkRecordsOnlyTainted(t *testing.T) {
	a := New("n2", ModeDista)
	tt := a.Source("src", "vote")
	if hit := a.CheckSink("checkLeader", taint.Taint{}); hit {
		t.Fatal("untainted check must not hit")
	}
	if hit := a.CheckSink("checkLeader", tt, taint.Taint{}); !hit {
		t.Fatal("tainted check must hit")
	}
	obs := a.Observations()
	if len(obs) != 1 || obs[0].Sink != "checkLeader" || obs[0].Node != "n2" {
		t.Fatalf("observations = %+v", obs)
	}
	if got := a.SinkFireCount("checkLeader"); got != 2 {
		t.Fatalf("fire count = %d", got)
	}
	if got := a.SinkTagValues("checkLeader"); !reflect.DeepEqual(got, []string{"vote"}) {
		t.Fatalf("tag values = %v", got)
	}
}

func TestCheckSinkRespectsSpec(t *testing.T) {
	a := New("n", ModeDista, WithSpec(NewSpec(nil, []string{"LOG#info"})))
	tt := a.Source("s", "x")
	if a.CheckSink("other", tt) {
		t.Fatal("unlisted sink must be ignored")
	}
	if !a.CheckSink("LOG#info", tt) {
		t.Fatal("listed sink must record")
	}
}

func TestCheckSinkBytes(t *testing.T) {
	a := New("n", ModeDista)
	b := taint.FromString("secret", a.Source("s", "leak"))
	if !a.CheckSinkBytes("LOG#info", b) {
		t.Fatal("tainted bytes must hit the sink")
	}
	if a.CheckSinkBytes("LOG#info", taint.WrapBytes([]byte("clean"))) {
		t.Fatal("clean bytes must not hit")
	}
	off := New("n", ModeOff)
	if off.CheckSinkBytes("LOG#info", b) {
		t.Fatal("off mode must not hit")
	}
}

func TestTrafficCounters(t *testing.T) {
	a := New("n", ModeDista)
	a.AddTraffic(100, 500)
	a.AddTraffic(1, 5)
	data, wire := a.Traffic()
	if data != 101 || wire != 505 {
		t.Fatalf("traffic = %d/%d", data, wire)
	}
}

func TestWithTaintMap(t *testing.T) {
	store := taintmap.NewStore()
	a := New("n", ModeDista)
	c := taintmap.NewLocalClient(store, a.Tree())
	a2 := New("n", ModeDista, WithTaintMap(c))
	if a2.TaintMap() == nil {
		t.Fatal("taint map client not installed")
	}
	if a.TaintMap() != nil {
		t.Fatal("default agent must have no taint map")
	}
}

func TestParseSpec(t *testing.T) {
	text := `
# ZooKeeper SIM scenario
source FileTxnLog#read
source Config#load

sink LOG#info
`
	spec, err := ParseSpec(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.SourceEnabled("FileTxnLog#read") || !spec.SourceEnabled("Config#load") {
		t.Fatal("sources missing")
	}
	if spec.SourceEnabled("Other#x") {
		t.Fatal("unlisted source enabled")
	}
	if !spec.SinkEnabled("LOG#info") || spec.SinkEnabled("Other#x") {
		t.Fatal("sink set wrong")
	}
	if len(spec.Sources()) != 2 || len(spec.Sinks()) != 1 {
		t.Fatalf("lists = %v / %v", spec.Sources(), spec.Sinks())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"source", "sink ", "taint X#y", "source\tX"} {
		if _, err := ParseSpec(strings.NewReader(bad)); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
}

func TestLoadSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.txt")
	if err := os.WriteFile(path, []byte("source A#b\nsink C#d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.SourceEnabled("A#b") || !spec.SinkEnabled("C#d") {
		t.Fatal("spec not loaded")
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestZeroSpecEnablesEverything(t *testing.T) {
	var s Spec
	if !s.SourceEnabled("anything") || !s.SinkEnabled("anything") {
		t.Fatal("zero spec must enable all points")
	}
	if s.Sources() != nil || s.Sinks() != nil {
		t.Fatal("zero spec lists must be nil")
	}
}

func TestParseAgentArgs(t *testing.T) {
	args, err := ParseAgentArgs("mode=phosphor,taintmap=tm:7,spec=/tmp/s.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := AgentArgs{Mode: ModePhosphor, TaintMap: "tm:7", SpecPath: "/tmp/s.txt"}
	if args != want {
		t.Fatalf("args = %+v", args)
	}
}

func TestParseAgentArgsDefaults(t *testing.T) {
	args, err := ParseAgentArgs("")
	if err != nil || args.Mode != ModeDista {
		t.Fatalf("args = %+v, %v", args, err)
	}
	// The paper's own flag spelling.
	args, err = ParseAgentArgs("sources=3")
	if err != nil || args.SpecPath != "3" {
		t.Fatalf("args = %+v, %v", args, err)
	}
}

func TestTaintMapAddrs(t *testing.T) {
	cases := []struct {
		taintmap string
		want     []string
	}{
		{"", nil},
		{"tm:7431", []string{"tm:7431"}},
		{"tm1:7431;tm2:7431;tm3:7431", []string{"tm1:7431", "tm2:7431", "tm3:7431"}},
		{" tm1:7431 ; ;tm2:7431; ", []string{"tm1:7431", "tm2:7431"}},
	}
	for _, tc := range cases {
		args, err := ParseAgentArgs("mode=dista,taintmap=" + tc.taintmap)
		if err != nil {
			t.Fatalf("ParseAgentArgs(taintmap=%q): %v", tc.taintmap, err)
		}
		got := args.TaintMapAddrs()
		if len(got) != len(tc.want) {
			t.Fatalf("TaintMapAddrs(%q) = %q, want %q", tc.taintmap, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("TaintMapAddrs(%q) = %q, want %q", tc.taintmap, got, tc.want)
			}
		}
	}
}

func TestParseAgentArgsErrors(t *testing.T) {
	for _, bad := range []string{"mode", "mode=warp", "color=blue"} {
		if _, err := ParseAgentArgs(bad); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
}

// lagging is a Taint Map client whose registrations are in flight from
// Issue to Collect: it registers with the store only when collected, and
// answers answer then, if set, registering nothing.
type lagging struct {
	*taintmap.LocalClient
	ts      []taint.Taint
	blobs   [][]byte
	issues  []int // the size of each batch issued
	collect int   // collections of an issued batch
	answer  error
}

func (l *lagging) Issue(_ *taintmap.Registration, ts []taint.Taint, blobs [][]byte) {
	l.ts, l.blobs, l.issues = ts, blobs, append(l.issues, len(ts))
}

func (l *lagging) Collect(r *taintmap.Registration) error {
	l.collect++
	if l.answer != nil {
		return l.answer
	}
	l.LocalClient.Issue(r, l.ts, l.blobs)
	return l.LocalClient.Collect(r)
}

// TestDeferInFlight walks an agent's queue through its flush points with
// a batch in flight: a full queue issues its oldest RegisterQueueLen and
// collects nothing; the next full queue collects them, then issues; a
// taint that crosses again collects the batch it is in, and is issued
// and collected at once when it is only queued; a failed batch stays
// queued, its answer taken once, and is not re-sent until a reuse or the
// next RegisterQueueLen; Flush collects the batch in flight and
// registers the rest. The store ends holding every taint deferred.
func TestDeferInFlight(t *testing.T) {
	store := taintmap.NewStore()
	tree := taint.NewTree()
	l := &lagging{LocalClient: taintmap.NewLocalClient(store, tree)}
	a := New("a", ModeDista, WithTaintMap(l))
	var sent []taint.Taint
	fresh := func(n int) {
		t.Helper()
		for range n {
			x := a.SourceSeq("in-flight", "f")
			blob, err := taint.MarshalTaint(x)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, x)
			if err := a.Defer([]taint.Taint{x}, [][]byte{blob}); err != nil && !errors.Is(err, l.answer) {
				t.Fatal(err)
			}
		}
	}
	reuse := func(x taint.Taint) error {
		blob, _ := taint.MarshalTaint(x)
		return a.Defer([]taint.Taint{x}, [][]byte{blob})
	}
	want := func(step string, issues []int, collect, stored int) {
		t.Helper()
		if !reflect.DeepEqual(l.issues, issues) || l.collect != collect || store.Stats().GlobalTaints != stored {
			t.Fatalf("%s: batches issued %v, %d collected, %d taints stored; want %v, %d and %d",
				step, l.issues, l.collect, store.Stats().GlobalTaints, issues, collect, stored)
		}
	}
	fresh(RegisterQueueLen + 1)
	want("a full queue", []int{RegisterQueueLen}, 0, 0)
	if sent[0].GlobalID() != 0 {
		t.Fatal("a taint in flight has a Global ID before its batch is collected")
	}
	fresh(RegisterQueueLen - 1)
	want("the queue refilling beside the batch in flight", []int{RegisterQueueLen}, 0, 0)
	fresh(1)
	want("the next full queue", []int{RegisterQueueLen, RegisterQueueLen}, 1, RegisterQueueLen)
	if sent[0].GlobalID() == 0 {
		t.Fatal("a collected batch left its taints unstamped")
	}
	if err := reuse(sent[RegisterQueueLen]); err != nil {
		t.Fatal(err)
	}
	want("a reuse of a taint in flight", []int{RegisterQueueLen, RegisterQueueLen}, 2, 2*RegisterQueueLen)
	if err := reuse(sent[2*RegisterQueueLen]); err != nil || sent[2*RegisterQueueLen].GlobalID() == 0 {
		t.Fatalf("a reuse of a queued taint: %v, Global ID %#x", err, sent[2*RegisterQueueLen].GlobalID())
	}
	want("a reuse of a queued taint", []int{RegisterQueueLen, RegisterQueueLen, 1}, 3, 2*RegisterQueueLen+1)

	// The Taint Map sheds: the batch a full queue issued fails when the
	// next full queue collects it, and stays queued; nothing is issued
	// again before the queue has grown by RegisterQueueLen. Healed, a
	// reuse collects the batch then in flight, and registers the reused
	// taint at the head of a batch of its own.
	fresh(RegisterQueueLen)
	l.answer = taintmap.ErrOverloaded
	fresh(RegisterQueueLen + 1)
	n := 2*RegisterQueueLen + 1
	want("a batch failed in flight", []int{RegisterQueueLen, RegisterQueueLen, 1, RegisterQueueLen}, 4, n)
	fresh(RegisterQueueLen)
	want("the queue grown by a batch", []int{RegisterQueueLen, RegisterQueueLen, 1, RegisterQueueLen, RegisterQueueLen}, 4, n)
	l.answer = nil
	if err := reuse(sent[len(sent)-1]); err != nil {
		t.Fatal(err)
	}
	want("a reuse once healed", []int{RegisterQueueLen, RegisterQueueLen, 1, RegisterQueueLen, RegisterQueueLen, RegisterQueueLen}, 6, n+2*RegisterQueueLen)
	if sent[len(sent)-1].GlobalID() == 0 {
		t.Fatal("the reused taint is not registered")
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().GlobalTaints; got != len(sent) {
		t.Fatalf("flushed, the store holds %d taints; %d were deferred", got, len(sent))
	}
	for _, x := range sent {
		if x.GlobalID() == 0 {
			t.Fatalf("%v has no Global ID after Flush", x)
		}
	}
}

// TestDeferDropsRegistered: a queued taint that is registered elsewhere
// meanwhile — a datagram's RegisterBatch — leaves the queue at the next
// flush point, in flight or not, and no issued batch carries it.
func TestDeferDropsRegistered(t *testing.T) {
	l := &lagging{LocalClient: taintmap.NewLocalClient(taintmap.NewStore(), taint.NewTree())}
	a := New("a", ModeDista, WithTaintMap(l))
	var x taint.Taint
	for i := range RegisterQueueLen + 2 {
		y := a.SourceSeq("dropped", "f")
		blob, err := taint.MarshalTaint(y)
		if err == nil {
			err = a.Defer([]taint.Taint{y}, [][]byte{blob})
		}
		if i == 0 && err == nil {
			x = y
			_, err = l.RegisterBatch([]taint.Taint{x})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(l.issues, []int{RegisterQueueLen}) || slices.Contains(l.ts, x) {
		t.Fatalf("batches issued %v, the taint registered meanwhile among them: %v; want one of %d without it",
			l.issues, slices.Contains(l.ts, x), RegisterQueueLen)
	}
}
