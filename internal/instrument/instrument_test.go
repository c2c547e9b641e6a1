package instrument

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// rig is a two-node test rig sharing one simulated network and one
// Taint Map store.
type rig struct {
	net   *netsim.Network
	store *taintmap.Store
	a, b  *tracker.Agent
}

func newRig(t *testing.T, mode tracker.Mode) *rig {
	t.Helper()
	r := &rig{net: netsim.New(), store: taintmap.NewStore()}
	r.a = agentFor("node1", mode, r.store)
	r.b = agentFor("node2", mode, r.store)
	return r
}

func agentFor(name string, mode tracker.Mode, store *taintmap.Store) *tracker.Agent {
	a := tracker.New(name, mode)
	// Wire the client after the agent so it resolves into the agent tree.
	c := taintmap.NewLocalClient(store, a.Tree())
	return tracker.New(name, mode, tracker.WithTaintMap(c), tracker.WithLocalID(a.LocalID()))
}

func (r *rig) endpoints(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	ca, cb := r.net.Pipe()
	return NewAdaptiveEndpoint(r.a, ca), NewAdaptiveEndpoint(r.b, cb)
}

func TestRegistryMatchesPaperTableI(t *testing.T) {
	if got := len(Registry); got != 23 {
		t.Fatalf("registry has %d methods, paper instruments 23", got)
	}
	if got := len(JNIMethods()); got != 13 {
		t.Fatalf("registry has %d JNI natives, paper finds 13", got)
	}
	if got := len(JNIClasses()); got != 5 {
		t.Fatalf("JNI natives span %d classes, paper finds 5", got)
	}
	// Every row of the paper's (partial) Table I must be present with
	// the right type.
	wantRows := []struct {
		class, name string
		typ         MethodType
	}{
		{"SocketInputStream", "socketRead0", TypeStream},
		{"SocketOutputStream", "socketWrite0", TypeStream},
		{"LinuxVirtualMachine", "read", TypeStream},
		{"LinuxVirtualMachine", "write", TypeStream},
		{"PlainDatagramSocketImpl", "send", TypePacket},
		{"PlainDatagramSocketImpl", "receive0", TypePacket},
		{"DirectByteBuffer", "get", TypeDirectBuffer},
		{"DirectByteBuffer", "put", TypeDirectBuffer},
		{"IOUtil", "writeFromNativeBuffer", TypeDirectBuffer},
		{"IOUtil", "readIntoNativeBuffer", TypeDirectBuffer},
		{"WindowsAsynchronousSocketChannelImpl", "implRead", TypeDirectBuffer},
		{"WindowsAsynchronousSocketChannelImpl", "implWrite", TypeDirectBuffer},
	}
	for _, w := range wantRows {
		found := false
		for _, m := range Registry {
			if m.Class == w.class && m.Name == w.name {
				found = true
				if m.Type != w.typ {
					t.Errorf("%s.%s has type %s, want %s", m.Class, m.Name, m.Type, w.typ)
				}
			}
		}
		if !found {
			t.Errorf("registry missing Table I row %s.%s", w.class, w.name)
		}
	}
	for _, m := range Registry {
		if m.Direction != "send" && m.Direction != "receive" && m.Direction != "both" {
			t.Errorf("%s.%s has bad direction %q", m.Class, m.Name, m.Direction)
		}
	}
}

func TestMethodTypeString(t *testing.T) {
	if TypeStream.String() != "1" || TypePacket.String() != "2" || TypeDirectBuffer.String() != "3" {
		t.Fatal("type numerals must match Table I")
	}
	if MethodType(9).String() != "?" {
		t.Fatal("unknown type")
	}
}

func TestStreamDistaPropagatesTaint(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	secret := taint.FromString("vote:1", r.a.Source("src", "vote"))
	if err := sender.Write(secret); err != nil {
		t.Fatal(err)
	}

	buf := taint.MakeBytes(len(secret.Data))
	n, err := receiver.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != secret.Len() || string(buf.Data[:n]) != "vote:1" {
		t.Fatalf("read %q (%d)", buf.Data[:n], n)
	}
	for i := 0; i < n; i++ {
		if !buf.LabelAt(i).Has("vote") {
			t.Fatalf("byte %d lost its taint", i)
		}
	}
	// The receiver's taint must carry the sender's LocalID.
	keys := buf.LabelAt(0).Keys()
	if keys[0].LocalID != r.a.LocalID() {
		t.Fatalf("taint origin = %q, want %q", keys[0].LocalID, r.a.LocalID())
	}
}

func TestStreamDistaByteLevelPrecision(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	// Mixed payload: only bytes 2..3 are tainted.
	payload := taint.MakeBytes(5)
	copy(payload.Data, "abcde")
	tt := r.a.Source("src", "mid")
	payload.SetLabel(2, tt)
	payload.SetLabel(3, tt)
	if err := sender.Write(payload); err != nil {
		t.Fatal(err)
	}

	buf := taint.MakeBytes(5)
	if _, err := io.ReadFull(readFullAdapter{receiver, &buf}, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tainted := buf.LabelAt(i).Has("mid")
		want := i == 2 || i == 3
		if tainted != want {
			t.Fatalf("byte %d tainted=%v want %v (over/under-tainting)", i, tainted, want)
		}
	}
}

// readFullAdapter drives Endpoint.Read through io.ReadFull while
// keeping the labels in buf.
type readFullAdapter struct {
	e   *Endpoint
	buf *taint.Bytes
}

func (r readFullAdapter) Read(p []byte) (int, error) {
	sub := r.buf.Slice(len(r.buf.Data)-len(p), len(r.buf.Data))
	n, err := r.e.Read(&sub)
	return n, err
}

func TestStreamOffModeNoTaintNoOverhead(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sender, receiver := r.endpoints(t)
	if err := sender.Write(taint.WrapBytes([]byte("plain"))); err != nil {
		t.Fatal(err)
	}
	buf := taint.WrapBytes(make([]byte, 5))
	n, err := receiver.Read(&buf)
	if err != nil || n != 5 || string(buf.Data) != "plain" {
		t.Fatalf("read %q (%d) %v", buf.Data, n, err)
	}
	if buf.HasShadow() {
		t.Fatal("off mode must not allocate shadows")
	}
	data, wireBytes := r.a.Traffic()
	if data != 5 || wireBytes != 5 {
		t.Fatalf("traffic = %d/%d, want 5/5", data, wireBytes)
	}
}

// TestPhosphorModeLosesInterNodeTaint reproduces the Fig. 4 limitation
// (experiment E11): under intra-node-only tracking the sender's taint
// vanishes and the receiver instead keeps the stale taint of its own
// buffer.
func TestPhosphorModeLosesInterNodeTaint(t *testing.T) {
	r := newRig(t, tracker.ModePhosphor)
	sender, receiver := r.endpoints(t)

	secret := taint.FromString("x", r.a.Source("src", "real-taint"))
	if err := sender.Write(secret); err != nil {
		t.Fatal(err)
	}

	buf := taint.MakeBytes(1)
	stale := r.b.Source("src", "stale-buffer-taint")
	buf.SetLabel(0, stale)
	if _, err := receiver.Read(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.LabelAt(0).Has("real-taint") {
		t.Fatal("phosphor mode must NOT propagate inter-node taint (unsound by design)")
	}
	if !buf.LabelAt(0).Has("stale-buffer-taint") {
		t.Fatal("phosphor mode must keep the parameter's stale taint (Fig. 4)")
	}
}

// TestFigure9Protocol walks the five steps of Figure 9 (experiment E8):
// two tainted bytes sent, one received; the shared taint is registered
// once; a receiver resolves it through the Taint Map. Registration is
// deferred (DESIGN.md §7): the first crossing defines t1 inline under a
// stream-scoped id and registers nothing, the second — another
// connection — registers it (①②) and defines it under its Global ID,
// and a third, which carries the bare id, is resolved by a lookup (④⑤).
func TestFigure9Protocol(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	t1 := r.a.Source("src", "t1")
	payload := taint.MakeBytes(2) // b1, b2 both tainted by t1
	payload.Data[0], payload.Data[1] = 'A', 'B'
	payload.SetLabel(0, t1)
	payload.SetLabel(1, t1)

	// Step ③ alone: t1 crosses under its stream-scoped id, defined ahead
	// of the frame, and waits on its agent's queue.
	if err := sender.Write(payload); err != nil {
		t.Fatal(err)
	}
	if st := r.store.Stats(); st.GlobalTaints != 0 || st.Registrations != 0 {
		t.Fatalf("after the first send: %+v, want nothing registered yet", st)
	}
	if t1.GlobalID() != 0 {
		t.Fatal("a first crossing must not wait for a Global ID")
	}

	// Node2 receives only b1 and resolves its taint from the definition:
	// no lookup reaches the store, and b2 later reuses it.
	buf := taint.MakeBytes(1)
	n, err := receiver.Read(&buf)
	if err != nil || n != 1 || buf.Data[0] != 'A' || !buf.LabelAt(0).Has("t1") {
		t.Fatalf("read %q (%d) %v: %v", buf.Data[:n], n, err, buf.LabelAt(0))
	}
	if _, err := receiver.Read(&buf); err != nil || !buf.LabelAt(0).Has("t1") {
		t.Fatalf("second read: %v, %v", err, buf.LabelAt(0))
	}

	// Steps ①② at the second crossing: t1 is registered once, its id
	// cached on the taint, and defined under it ahead of the frame, so
	// node3 learns the id without a lookup.
	send := func(node *tracker.Agent) *Endpoint {
		ca, cb := r.net.Pipe()
		if err := NewAdaptiveEndpoint(r.a, ca).Write(payload); err != nil {
			t.Fatal(err)
		}
		return NewAdaptiveEndpoint(node, cb)
	}
	third := send(agentFor("node3", tracker.ModeDista, r.store))
	if st := r.store.Stats(); st.GlobalTaints != 1 || st.Registrations != 1 {
		t.Fatalf("after the second send: %+v, want exactly one registration of t1", st)
	}
	if t1.GlobalID() == 0 {
		t.Fatal("sender must cache the Global ID on the taint (step ②)")
	}
	if n, err := third.Read(&buf); err != nil || n != 1 || buf.LabelAt(0).GlobalID() != t1.GlobalID() {
		t.Fatalf("node3 read %d, %v: %v, want t1 under its Global ID", n, err, buf.LabelAt(0))
	}
	if st := r.store.Stats(); st.Lookups != 0 {
		t.Fatalf("lookups = %d: the registering crossing carries the definition", st.Lookups)
	}

	// Steps ④⑤ are the paper's on a third connection, where the id crosses
	// bare: one lookup, then node4's cache.
	fourth := send(agentFor("node4", tracker.ModeDista, r.store))
	for range payload.Data {
		if n, err := fourth.Read(&buf); err != nil || n != 1 || !buf.LabelAt(0).Has("t1") {
			t.Fatalf("node4 read %d, %v: %v", n, err, buf.LabelAt(0))
		}
		if st := r.store.Stats(); st.Lookups != 1 {
			t.Fatalf("lookups = %d, want 1", st.Lookups)
		}
	}
	if st := r.store.Stats(); st.GlobalTaints != 1 || st.Registrations != 1 {
		t.Fatalf("at the end: %+v, want the one registration of t1", st)
	}
}

// TestStreamWireOverheadFactor pins §V-F on the wire. The paper's format
// — every byte with the Global ID of its taint — is the groups tier, the
// sound minimum of a payload whose label changes on every byte: 5.0x
// plus constant framing. The paper's own case 1, one taint over the
// whole payload, no longer pays it: the uniform tier carries the id
// once, at no more than 1.01x.
func TestStreamWireOverheadFactor(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		name   string
		fill   func(a *tracker.Agent, b *taint.Bytes)
		want   int64
		factor float64
	}{
		{"a label change on every byte", func(a *tracker.Agent, b *taint.Bytes) {
			pair := [2]taint.Taint{a.Source("s", "t0"), a.Source("s", "t1")}
			for i := range b.Data {
				b.SetLabel(i, pair[i&1])
			}
		}, wire.FrameHeaderLen + 5*n, 5.01},
		{"one taint throughout", func(a *tracker.Agent, b *taint.Bytes) {
			b.SetRange(0, n, a.Source("s", "t"))
		}, wire.FrameHeaderLen + wire.GlobalIDLen + n, 1.01},
	} {
		r := newRig(t, tracker.ModeDista)
		sender, receiver := r.endpoints(t)
		go func() {
			buf := taint.MakeBytes(n)
			for {
				if _, err := receiver.Read(&buf); err != nil {
					return
				}
			}
		}()
		payload := taint.MakeBytes(n)
		tc.fill(r.a, &payload)
		// The third write on the connection: the first also carries the
		// stream magic and defines its taints under stream-scoped ids, the
		// second, which registers them, under their Global IDs.
		var data, wireBytes int64
		for i := 0; i < 3; i++ {
			d0, w0 := r.a.Traffic()
			if err := sender.Write(payload); err != nil {
				t.Fatal(err)
			}
			data, wireBytes = r.a.Traffic()
			data, wireBytes = data-d0, wireBytes-w0
		}
		if data != n || wireBytes != tc.want || float64(wireBytes) > tc.factor*n {
			t.Fatalf("%s: traffic = %d/%d, want %d wire bytes, at most %.2fx", tc.name, data, wireBytes, tc.want, tc.factor)
		}
		sender.Conn().Close()
	}
}

func TestStreamFragmentedDelivery(t *testing.T) {
	// A dista read asking for more bytes than are in flight must return
	// the short count like the real native, and a second write must be
	// picked up by subsequent reads.
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)
	if err := sender.Write(taint.FromString("ab", r.a.Source("s", "g1"))); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(10)
	n, err := receiver.Read(&buf)
	if err != nil || n != 2 {
		t.Fatalf("first read = %d, %v", n, err)
	}
	if err := sender.Write(taint.FromString("cd", r.a.Source("s", "g2"))); err != nil {
		t.Fatal(err)
	}
	n, err = receiver.Read(&buf)
	if err != nil || n != 2 || string(buf.Data[:2]) != "cd" {
		t.Fatalf("second read = %q (%d), %v", buf.Data[:n], n, err)
	}
	if !buf.LabelAt(0).Has("g2") {
		t.Fatal("second group lost taint")
	}
}

func TestStreamEOF(t *testing.T) {
	for _, mode := range []tracker.Mode{tracker.ModeOff, tracker.ModeDista} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode)
			sender, receiver := r.endpoints(t)
			sender.Conn().Close()
			buf := taint.MakeBytes(4)
			if _, err := receiver.Read(&buf); err != io.EOF {
				t.Fatalf("err = %v, want io.EOF", err)
			}
			// EOF must be sticky.
			if _, err := receiver.Read(&buf); err != io.EOF {
				t.Fatalf("second err = %v, want io.EOF", err)
			}
		})
	}
}

func TestStreamTruncatedGroupIsError(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	receiver := NewAdaptiveEndpoint(r.b, cb)
	// Open a one-group frame, write a fraction of the group and close.
	cut := wire.AppendFrameHeader(wire.AppendAdaptiveStreamMagic(nil), wire.FrameGroups, wire.GroupLen)
	if err := jni.SocketWrite0(ca, append(cut, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	ca.Close()
	buf := taint.MakeBytes(4)
	if _, err := receiver.Read(&buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestDistaWithoutTaintMapErrors(t *testing.T) {
	net := netsim.New()
	a := tracker.New("n", tracker.ModeDista) // no taint map client
	ca, cb := net.Pipe()
	sender := NewAdaptiveEndpoint(a, ca)
	err := sender.Write(taint.FromString("x", a.Source("s", "t")))
	if !errors.Is(err, ErrNoTaintMap) {
		t.Fatalf("err = %v, want ErrNoTaintMap", err)
	}
	// Reads fail the same way once groups arrive.
	go jni.SocketWrite0(cb, wire.AppendGroupsFrame(wire.AppendAdaptiveStreamMagic(nil), []byte{1}, []wire.Run{{N: 1, ID: 1}}))
	buf := taint.MakeBytes(1)
	receiver := NewAdaptiveEndpoint(a, ca)
	if _, err := receiver.Read(&buf); !errors.Is(err, ErrNoTaintMap) {
		t.Fatalf("read err = %v, want ErrNoTaintMap", err)
	}
}

func TestPacketDistaRoundTrip(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, err := r.net.ListenPacket("a:1")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.net.ListenPacket("b:1")
	if err != nil {
		t.Fatal(err)
	}

	payload := taint.FromString("udp-secret", r.a.Source("s", "udp"))
	if err := PacketSend(r.a, sa, payload, "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(32)
	n, from, err := PacketReceive(r.b, sb, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf.Data[:n]) != "udp-secret" || from != "a:1" {
		t.Fatalf("got %q from %q", buf.Data[:n], from)
	}
	for i := 0; i < n; i++ {
		if !buf.LabelAt(i).Has("udp") {
			t.Fatalf("byte %d lost taint", i)
		}
	}
}

func TestPacketDistaTruncation(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	payload := taint.FromString("0123456789", r.a.Source("s", "u"))
	if err := PacketSend(r.a, sa, payload, "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(4) // receiver asks for fewer bytes than sent
	n, _, err := PacketReceive(r.b, sb, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || string(buf.Data[:n]) != "0123" {
		t.Fatalf("truncated read = %q (%d)", buf.Data[:n], n)
	}
	if !buf.LabelAt(3).Has("u") {
		t.Fatal("truncated bytes must keep their taints")
	}
}

// TestPacketWholeFrameAllocs: a datagram is one whole frame in the
// pooled receive buffer, and a fragmented groups or a passthrough one
// that fits the caller's buffer is adopted where it lies, through the
// stream's whole-frame lane, with no decoder copy. Warm 4 KiB receives —
// a label change on every byte into a dense buffer, then clean — allocate
// at most the one scratch a delivery's ids and their taints share, a
// hundred bytes, and every byte arrives under its label (2 allocations
// while the memo's answer was a slice of its own; 4 allocations and 42 KB
// a round, 20 KB of them the receive's, while each fed a fresh decoder).
func TestPacketWholeFrameAllocs(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	const n, rounds = 4 << 10, 50
	pair := [2]taint.Taint{r.a.Source("s", "even"), r.a.Source("s", "odd")}
	dense, clean := taint.MakeBytes(n), taint.MakeBytes(n)
	for i := range dense.Data {
		dense.Data[i], clean.Data[i] = byte(i), byte(i>>3)
		dense.SetLabel(i, pair[i&1])
	}
	buf := taint.MakeBytes(n)
	for _, tc := range []struct {
		name   string
		msg    taint.Bytes
		tag    func(i int) string
		allocs uint64
	}{
		{"a label change on every byte", dense, func(i int) string { return [2]string{"even", "odd"}[i&1] }, 1},
		{"clean", clean, func(int) string { return "" }, 0},
	} {
		// The datagrams queue up first, so that only receives are counted,
		// on one P as testing.AllocsPerRun counts.
		for range rounds + 1 {
			if err := PacketSend(r.a, sa, tc.msg, "b:1"); err != nil {
				t.Fatal(err)
			}
		}
		receive := func() {
			if got, _, err := PacketReceive(r.b, sb, &buf); err != nil || got != n {
				t.Fatalf("%s: receive = %d, %v", tc.name, got, err)
			}
		}
		// One P from before the warm-up (a P count that changes renews the
		// buffer pool's per-P lists), and no GC cycle to end inside the
		// count and empty them.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		receive()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range rounds {
			receive()
		}
		runtime.ReadMemStats(&m1)
		mallocs, bytesAlloc := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		if !bytes.Equal(buf.Data, tc.msg.Data) {
			t.Fatalf("%s: the bytes differ from what was sent", tc.name)
		}
		for i := range buf.Data {
			if l, want := buf.LabelAt(i), tc.tag(i); want == "" && !l.Empty() || want != "" && (l.Len() != 1 || !l.Has(want)) {
				t.Fatalf("%s: byte %d arrived under %v, want %q", tc.name, i, l.Values(), want)
			}
		}
		t.Logf("%s: %.1f allocs, %d B per warm 4 KiB receive", tc.name, float64(mallocs)/rounds, bytesAlloc/rounds)
		if (mallocs > tc.allocs*rounds || bytesAlloc > 512*rounds) && !raceEnabled {
			t.Fatalf("%s: a warm 4 KiB receive allocates %.1f times, %d B; want at most %d, 512 B",
				tc.name, float64(mallocs)/rounds, bytesAlloc/rounds, tc.allocs)
		}
	}
}

func TestPacketOffMode(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	if err := PacketSend(r.a, sa, taint.WrapBytes([]byte("plain")), "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.WrapBytes(make([]byte, 8))
	n, _, err := PacketReceive(r.b, sb, &buf)
	if err != nil || string(buf.Data[:n]) != "plain" {
		t.Fatalf("read %q %v", buf.Data[:n], err)
	}
	if buf.HasShadow() {
		t.Fatal("off mode must stay shadow-free")
	}
}

func TestPacketPhosphorStaleLabels(t *testing.T) {
	r := newRig(t, tracker.ModePhosphor)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	if err := PacketSend(r.a, sa, taint.FromString("x", r.a.Source("s", "real")), "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(1)
	buf.SetLabel(0, r.b.Source("s", "stale"))
	if _, _, err := PacketReceive(r.b, sb, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.LabelAt(0).Has("real") || !buf.LabelAt(0).Has("stale") {
		t.Fatalf("phosphor packet labels = %v", buf.LabelAt(0))
	}
}

func TestBufferWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	src := jni.NewDirectBuffer(8)
	copy(src.Data, "nio-data")
	tt := r.a.Source("s", "nio")
	for i := 4; i < 8; i++ {
		src.SetLabel(i, tt)
	}
	n, err := sender.WriteBuffer(src, 0, 8)
	if err != nil || n != 8 {
		t.Fatalf("WriteBuffer = %d, %v", n, err)
	}

	dst := jni.NewDirectBuffer(8)
	total := 0
	for total < 8 {
		n, err := receiver.ReadBuffer(dst, total, 8)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if string(dst.Data) != "nio-data" {
		t.Fatalf("data = %q", dst.Data)
	}
	for i := 0; i < 8; i++ {
		want := i >= 4
		if got := dst.Label(i).Has("nio"); got != want {
			t.Fatalf("shadow[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestBufferRangeChecks(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sender, _ := r.endpoints(t)
	src := jni.NewDirectBuffer(4)
	if _, err := sender.WriteBuffer(src, 2, 9); !errors.Is(err, jni.ErrRange) {
		t.Fatalf("out-of-range buffer write: err = %v, want jni.ErrRange", err)
	}
	if _, err := sender.ReadBuffer(src, -1, 2); !errors.Is(err, jni.ErrRange) {
		t.Fatalf("out-of-range buffer read: err = %v, want jni.ErrRange", err)
	}
}

func TestMixedTaintedAndCleanTrafficSharesConnection(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)
	// Alternate tainted and clean writes; all must decode correctly.
	for i := 0; i < 10; i++ {
		var b taint.Bytes
		if i%2 == 0 {
			b = taint.FromString("T", r.a.Source("s", "alt"))
		} else {
			b = taint.WrapBytes([]byte("c"))
		}
		if err := sender.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		buf := taint.MakeBytes(1)
		if _, err := receiver.Read(&buf); err != nil {
			t.Fatal(err)
		}
		wantTaint := i%2 == 0
		if got := buf.LabelAt(0).Has("alt"); got != wantTaint {
			t.Fatalf("msg %d taint=%v want %v", i, got, wantTaint)
		}
	}
}
