package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func ids(vals ...uint32) []uint32 { return vals }

func TestWireLenFactor(t *testing.T) {
	// The 5x network-overhead prediction of §V-F.
	if WireLen(100) != 500 {
		t.Fatalf("WireLen(100) = %d", WireLen(100))
	}
	if DataLen(500) != 100 || DataLen(503) != 100 {
		t.Fatalf("DataLen = %d / %d", DataLen(500), DataLen(503))
	}
}

func TestEncodeDecodeGroups(t *testing.T) {
	raw := EncodeGroups(nil, []byte{0xAA, 0xBB}, ids(0, 0x01020304))
	want := []byte{0xAA, 0, 0, 0, 0, 0xBB, 1, 2, 3, 4}
	if !bytes.Equal(raw, want) {
		t.Fatalf("encoded = %x, want %x", raw, want)
	}
	data, gids, err := DecodeGroups(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{0xAA, 0xBB}) || !reflect.DeepEqual(gids, ids(0, 0x01020304)) {
		t.Fatalf("decoded %x %v", data, gids)
	}
}

func TestEncodeGroupsNilIDs(t *testing.T) {
	raw := EncodeGroups(nil, []byte{1, 2, 3}, nil)
	data, gids, err := DecodeGroups(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Fatalf("data = %v", data)
	}
	for _, id := range gids {
		if id != 0 {
			t.Fatalf("untainted ids = %v", gids)
		}
	}
}

func TestEncodeGroupsAppendsToDst(t *testing.T) {
	dst := []byte("header")
	out := EncodeGroups(dst, []byte{9}, ids(7))
	if string(out[:6]) != "header" || len(out) != 6+GroupLen {
		t.Fatalf("out = %x", out)
	}
}

func TestEncodeGroupsMismatchedIDsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for mismatched ids")
		}
	}()
	EncodeGroups(nil, []byte{1, 2}, ids(1))
}

func TestDecodeGroupsRejectsPartial(t *testing.T) {
	if _, _, err := DecodeGroups(make([]byte, 7)); err == nil {
		t.Fatal("want error for non-multiple length")
	}
}

func TestStreamDecoderFragmentation(t *testing.T) {
	payload := []byte("hello, taints!")
	gids := make([]uint32, len(payload))
	for i := range gids {
		gids[i] = uint32(i * 3)
	}
	raw := EncodeGroups(nil, payload, gids)

	// Feed in pathological fragments: 1 byte at a time.
	var d StreamDecoder
	for _, b := range raw {
		d.Feed([]byte{b})
	}
	if d.PendingPartial() {
		t.Fatal("no partial group should remain")
	}
	data, got := d.Next(1 << 20)
	if !bytes.Equal(data, payload) || !reflect.DeepEqual(got, gids) {
		t.Fatalf("decoded %q %v", data, got)
	}
}

func TestStreamDecoderPartialThenRest(t *testing.T) {
	raw := EncodeGroups(nil, []byte{0x42}, ids(0x11223344))
	var d StreamDecoder
	d.Feed(raw[:3])
	if d.Buffered() != 0 || !d.PendingPartial() {
		t.Fatalf("buffered=%d partial=%v", d.Buffered(), d.PendingPartial())
	}
	d.Feed(raw[3:])
	data, gids := d.Next(10)
	if len(data) != 1 || data[0] != 0x42 || gids[0] != 0x11223344 {
		t.Fatalf("decoded %x %v", data, gids)
	}
}

func TestStreamDecoderNextRespectsMax(t *testing.T) {
	raw := EncodeGroups(nil, []byte("abcdef"), nil)
	var d StreamDecoder
	d.Feed(raw)
	first, _ := d.Next(2)
	second, _ := d.Next(100)
	if string(first) != "ab" || string(second) != "cdef" {
		t.Fatalf("chunks %q %q", first, second)
	}
	if d.Buffered() != 0 {
		t.Fatalf("leftover %d", d.Buffered())
	}
}

func TestQuickStreamRoundTripUnderRandomFragmentation(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gids := make([]uint32, len(data))
		for i := range gids {
			gids[i] = rng.Uint32()
		}
		raw := EncodeGroups(nil, data, gids)
		var d StreamDecoder
		for len(raw) > 0 {
			n := 1 + rng.Intn(len(raw))
			d.Feed(raw[:n])
			raw = raw[n:]
		}
		gotData, gotIDs := d.Next(len(data) + 1)
		return bytes.Equal(gotData, data) && reflect.DeepEqual(gotIDs, gids) && !d.PendingPartial()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
