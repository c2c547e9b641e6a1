package jni

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

func pipe(t *testing.T) (*netsim.Conn, *netsim.Conn) {
	t.Helper()
	n := netsim.New()
	a, b := n.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestSocketWriteReadRoundTrip(t *testing.T) {
	a, b := pipe(t)
	if err := SocketWrite0(a, []byte("native")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := SocketRead0(b, buf)
	if err != nil || string(buf[:n]) != "native" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
}

func TestSocketReadEOF(t *testing.T) {
	a, b := pipe(t)
	a.Close()
	if _, err := SocketRead0(b, make([]byte, 1)); err != io.EOF {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramNatives(t *testing.T) {
	n := netsim.New()
	sa, err := n.ListenPacket("a:1")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := n.ListenPacket("b:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := DatagramSend(sa, []byte("pkt"), "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	nr, from, err := DatagramReceive0(sb, buf)
	if err != nil || string(buf[:nr]) != "pkt" || from != "a:1" {
		t.Fatalf("recv %q from %q, %v", buf[:nr], from, err)
	}
}

func TestDispatcherWritevGathersInOrder(t *testing.T) {
	a, b := pipe(t)
	bufs := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
	written, err := DispatcherWritev0(a, bufs)
	if err != nil || written != 6 {
		t.Fatalf("writev = %d, %v", written, err)
	}
	got := make([]byte, 6)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aabbcc" {
		t.Fatalf("got %q", got)
	}
}

func TestDispatcherReadvScattersInOrder(t *testing.T) {
	a, b := pipe(t)
	if err := SocketWrite0(a, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	b1, b2, b3 := make([]byte, 3), make([]byte, 3), make([]byte, 10)
	n, err := DispatcherReadv0(b, [][]byte{b1, b2, b3})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || string(b1) != "012" || string(b2) != "345" || string(b3[:4]) != "6789" {
		t.Fatalf("readv n=%d %q %q %q", n, b1, b2, b3[:4])
	}
}

func TestDispatcherReadvShortData(t *testing.T) {
	a, b := pipe(t)
	if err := SocketWrite0(a, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	b1, b2 := make([]byte, 4), make([]byte, 4)
	n, err := DispatcherReadv0(b, [][]byte{b1, b2})
	if err != nil || n != 2 {
		t.Fatalf("short readv = %d, %v", n, err)
	}
}

func TestDispatcherReadvEOFAfterData(t *testing.T) {
	a, b := pipe(t)
	if err := SocketWrite0(a, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b1, b2 := make([]byte, 4), make([]byte, 4)
	// First buffer fills completely; the second read hits EOF: the
	// vectored native must report the partial count, not the error.
	n, err := DispatcherReadv0(b, [][]byte{b1, b2})
	if err != nil || n != 4 {
		t.Fatalf("readv at EOF = %d, %v", n, err)
	}
	if _, err := DispatcherReadv0(b, [][]byte{b1}); err != io.EOF {
		t.Fatalf("drained readv err = %v", err)
	}
}

func TestDirectBufferRangeCheck(t *testing.T) {
	db := NewDirectBuffer(4)
	if db.Len() != 4 || !db.B.HasShadow() || db.B.Len() != 4 {
		t.Fatalf("buffer %d, shadow %v/%d", db.Len(), db.B.HasShadow(), db.B.Len())
	}
	if err := db.CheckRange(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckRange(2, 2); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		if err := db.CheckRange(r[0], r[1]); !errors.Is(err, ErrRange) {
			t.Errorf("CheckRange%v = %v, want ErrRange", r, err)
		}
		// View keeps the unchecked-accessor panic contract, but the
		// panic value must be the same typed error.
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrRange) {
					t.Errorf("View%v panicked with %v, want ErrRange", r, err)
				}
			}()
			db.View(r[0], r[1])
		}()
	}
}

func TestDirectBufferPoolResetsLabels(t *testing.T) {
	db := AcquireDirectBuffer(600)
	if db.Len() < 600 {
		t.Fatalf("acquired %d bytes, want >= 600", db.Len())
	}
	db.SetLabel(3, taint.NewTree().NewSource("pooled", "t1"))
	if db.View(0, db.Len()).Clean() {
		t.Fatal("buffer with a label reads clean")
	}
	ReleaseDirectBuffer(db)
	// The pool must never hand back stale labels, whichever buffer
	// comes out next.
	again := AcquireDirectBuffer(600)
	if !again.View(0, again.Len()).Clean() {
		t.Fatal("pooled buffer came back with stale labels")
	}
	ReleaseDirectBuffer(again)
}

func TestSocketWriteLargePayload(t *testing.T) {
	a, b := pipe(t)
	payload := bytes.Repeat([]byte{0xAB}, 1<<20)
	done := make(chan error, 1)
	go func() {
		done <- SocketWrite0(a, payload)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestDirectBufferTierAccessors(t *testing.T) {
	tr := taint.NewTree()
	a, b := tr.NewSource("buf", "a"), tr.NewSource("buf", "b")
	db := NewDirectBuffer(128)
	db.B.SetRange(10, 20, a)
	db.B.SetRange(40, 44, b)

	st, exact := db.Stats(0, 128, 8)
	if !exact || st.DirtyBytes != 14 || st.DirtyRuns != 2 || !st.One.Empty() {
		t.Fatalf("Stats = %+v exact=%v", st, exact)
	}
	// A sub-range covering only one island sees it alone, rebased.
	st, _ = db.Stats(8, 24, 8)
	if st.DirtyBytes != 10 || st.DirtyRuns != 1 || st.One != a {
		t.Fatalf("ranged Stats = %+v", st)
	}
	if lbl, ok := db.Uniform(10, 20); !ok || lbl != a {
		t.Fatalf("Uniform = %v %v", lbl, ok)
	}
	if _, ok := db.Uniform(0, 128); ok {
		t.Fatal("mixed buffer reported uniform")
	}
	var got [][3]int
	db.ForEachDirtyRun(8, 128, func(rfrom, rto int, lbl taint.Taint) {
		id := 1
		if lbl == b {
			id = 2
		}
		got = append(got, [3]int{rfrom, rto, id})
	})
	want := [][3]int{{2, 12, 1}, {32, 36, 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ForEachDirtyRun = %v, want %v", got, want)
	}

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("bad range did not panic")
		} else if err, ok := r.(error); !ok || !errors.Is(err, ErrRange) {
			t.Fatalf("panic = %v, want ErrRange", r)
		}
	}()
	db.Stats(-1, 5, 8)
}
