package instrument

import (
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/jni"
)

func TestWritevReadvDistaTaint(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	t1 := r.a.Source("s", "vec1")
	t2 := r.a.Source("s", "vec2")
	src1, src2 := jni.NewDirectBuffer(4), jni.NewDirectBuffer(4)
	copy(src1.Data, "AAAA")
	copy(src2.Data, "BBBB")
	for i := 0; i < 4; i++ {
		src1.SetLabel(i, t1)
		src2.SetLabel(i, t2)
	}
	n, err := sender.WritevBuffers([]*jni.DirectBuffer{src1, src2}, []int{4, 4})
	if err != nil || n != 8 {
		t.Fatalf("writev = %d, %v", n, err)
	}

	// One scattering read takes what a single wire read delivers — how
	// much depends on where that read cuts the stream, which opens with the
	// definitions of the two taints — and plain reads take the rest.
	dst1, dst2 := jni.NewDirectBuffer(4), jni.NewDirectBuffer(4)
	dsts := []*jni.DirectBuffer{dst1, dst2}
	total, err := receiver.ReadvBuffers(dsts, []int{4, 4})
	if err != nil || total == 0 {
		t.Fatalf("readv = %d, %v", total, err)
	}
	for total < 8 {
		got, err := receiver.ReadBuffer(dsts[total/4], int(total%4), 4)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(got)
	}
	if string(dst1.Data) != "AAAA" || string(dst2.Data) != "BBBB" {
		t.Fatalf("scattered %q %q", dst1.Data, dst2.Data)
	}
	for i := 0; i < 4; i++ {
		if !dst1.Label(i).Has("vec1") || !dst2.Label(i).Has("vec2") {
			t.Fatalf("shadow %d lost: %v %v", i, dst1.Label(i), dst2.Label(i))
		}
	}
}

func TestWritevReadvOffMode(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sender, receiver := r.endpoints(t)
	src := jni.NewDirectBuffer(6)
	copy(src.Data, "abcdef")
	if _, err := sender.WritevBuffers([]*jni.DirectBuffer{src}, []int{6}); err != nil {
		t.Fatal(err)
	}
	d1, d2 := jni.NewDirectBuffer(3), jni.NewDirectBuffer(3)
	n, err := receiver.ReadvBuffers([]*jni.DirectBuffer{d1, d2}, []int{3, 3})
	if err != nil || n != 6 {
		t.Fatalf("readv = %d, %v", n, err)
	}
	if string(d1.Data)+string(d2.Data) != "abcdef" {
		t.Fatalf("got %q%q", d1.Data, d2.Data)
	}
}

func TestWritevLengthMismatchPanics(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sender, _ := r.endpoints(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	sender.WritevBuffers([]*jni.DirectBuffer{jni.NewDirectBuffer(1)}, []int{1, 2})
}

func TestReadvDoesNotBlockAcrossBuffers(t *testing.T) {
	// Only 2 bytes in flight; a scatter into two 2-byte buffers must
	// return 2 and not block waiting to fill the second buffer.
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)
	if err := sender.Write(taint.FromString("xy", r.a.Source("s", "nb"))); err != nil {
		t.Fatal(err)
	}
	d1, d2 := jni.NewDirectBuffer(2), jni.NewDirectBuffer(2)
	n, err := receiver.ReadvBuffers([]*jni.DirectBuffer{d1, d2}, []int{2, 2})
	if err != nil || n != 2 {
		t.Fatalf("readv = %d, %v", n, err)
	}
	if string(d1.Data) != "xy" || !d1.Label(0).Has("nb") {
		t.Fatalf("d1 = %q %v", d1.Data, d1.Label(0))
	}
}
