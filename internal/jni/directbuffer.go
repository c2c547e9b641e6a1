package jni

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"dista/internal/core/taint"
)

// ErrRange is the sentinel wrapped by every direct-buffer bounds
// failure; test with errors.Is. CheckRange returns it, View panics
// with it (see the View contract below).
var ErrRange = errors.New("jni: direct buffer range out of bounds")

// DirectBuffer models the off-heap memory block a DirectByteBuffer
// manages (§III-C Type 3): NIO natives read and write it directly.
// Because real native memory is invisible to a JVM tracker, DisTA
// instruments the get/put accessors instead; our simulation keeps a
// run-based shadow label store alongside so those accessors have
// somewhere to move labels to and from.
type DirectBuffer struct {
	Data []byte
	// B is the tainted view of the buffer: B.Data aliases Data, and
	// the labels live in B's shadow store. Accessors that move labels
	// in bulk should go through B (or View) to stay O(runs).
	B taint.Bytes
}

// NewDirectBuffer allocates an off-heap buffer of n bytes with shadow
// storage.
func NewDirectBuffer(n int) *DirectBuffer {
	b := taint.MakeBytes(n)
	return &DirectBuffer{Data: b.Data, B: b}
}

// Len returns the buffer's capacity.
func (b *DirectBuffer) Len() int { return len(b.Data) }

// Label returns the taint of byte i.
func (b *DirectBuffer) Label(i int) taint.Taint { return b.B.LabelAt(i) }

// SetLabel assigns taint t to byte i.
func (b *DirectBuffer) SetLabel(i int, t taint.Taint) { b.B.SetLabel(i, t) }

// ResetLabels clears every label, keeping the shadow store for reuse.
func (b *DirectBuffer) ResetLabels() { b.B.ResetLabels() }

// Stats aggregates the dirty structure of [from,to) for the wire
// tiering engine, scanning at most limit+1 dirty runs — see
// taint.Bytes.Stats for the memo and inexact-answer semantics. No
// allocation: the answer is computed (or recalled) on the shadow store
// in place. Like View, an invalid range panics.
func (b *DirectBuffer) Stats(from, to, limit int) (taint.RunStats, bool) {
	if err := b.CheckRange(from, to); err != nil {
		panic(err)
	}
	return b.B.Slice(from, to).Stats(limit)
}

// Uniform reports whether every byte of [from,to) carries the same
// label, returning it when so. Like View, an invalid range panics.
func (b *DirectBuffer) Uniform(from, to int) (taint.Taint, bool) {
	if err := b.CheckRange(from, to); err != nil {
		panic(err)
	}
	return b.B.Slice(from, to).Uniform()
}

// ForEachDirtyRun yields the tainted runs of [from,to) in order as
// range-relative offsets, skipping clean gaps — the allocation-free
// dirty-range extraction behind the sparse wire tier. Like View, an
// invalid range panics.
func (b *DirectBuffer) ForEachDirtyRun(from, to int, yield func(rfrom, rto int, t taint.Taint)) {
	if err := b.CheckRange(from, to); err != nil {
		panic(err)
	}
	b.B.Slice(from, to).ForEachDirtyRun(yield)
}

// View returns the tainted view of bytes [from,to), aliasing the
// buffer's data and labels.
//
// Contract: an invalid range panics with an error wrapping ErrRange —
// matching the unchecked runtime bounds failure of the real accessors,
// but typed so a recover can classify it. Callers that want an error
// instead call CheckRange first.
func (b *DirectBuffer) View(from, to int) taint.Bytes {
	if err := b.CheckRange(from, to); err != nil {
		panic(err)
	}
	return b.B.Slice(from, to)
}

// CheckRange reports whether [from,to) is a valid range of the buffer,
// returning an error wrapping ErrRange when not.
func (b *DirectBuffer) CheckRange(from, to int) error {
	if from < 0 || to < from || to > len(b.Data) {
		return fmt.Errorf("%w: [%d,%d) out of [0,%d)", ErrRange, from, to, len(b.Data))
	}
	return nil
}

// Size-classed pool of DirectBuffers: channels and wrappers acquire
// scratch buffers here instead of allocating a fresh data array and
// shadow store per instance. A pooled buffer's capacity is the class
// size, so AcquireDirectBuffer returns Len() >= n; callers address the
// [0,n) prefix they asked for.

const (
	minDirectShift = 9  // 512 B
	maxDirectShift = 20 // 1 MiB
)

var directPools [maxDirectShift - minDirectShift + 1]sync.Pool

// AcquireDirectBuffer returns a pooled buffer with Len() >= n, fully
// untainted. Release it with ReleaseDirectBuffer when no views of it
// can escape; n beyond the largest class falls back to allocation.
func AcquireDirectBuffer(n int) *DirectBuffer {
	if n > 1<<maxDirectShift {
		return NewDirectBuffer(n)
	}
	shift := minDirectShift
	if n > 1<<minDirectShift {
		shift = bits.Len(uint(n - 1))
	}
	if b, _ := directPools[shift-minDirectShift].Get().(*DirectBuffer); b != nil {
		return b
	}
	return NewDirectBuffer(1 << shift)
}

// ReleaseDirectBuffer resets the buffer's labels in O(1) and returns it
// to its size class. Off-class sizes are dropped. The caller must not
// retain the buffer or any View of it afterwards.
func ReleaseDirectBuffer(b *DirectBuffer) {
	c := len(b.Data)
	if c < 1<<minDirectShift || c > 1<<maxDirectShift || c&(c-1) != 0 {
		return
	}
	b.ResetLabels()
	directPools[bits.TrailingZeros(uint(c))-minDirectShift].Put(b)
}
