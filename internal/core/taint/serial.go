package taint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Taint serialization: a taint crosses nodes as the ordered list of its
// tag keys. The paper measures a single-tag serialized taint at over 200
// bytes (§III-D-2) — which is exactly why the Taint Map exists: the blob
// travels to/from the Taint Map once, and only the fixed-width GlobalID
// rides with the data bytes.
//
// Wire layout (all integers big-endian):
//
//	uint16 tagCount
//	repeated tagCount times:
//	  uint16 len(Value)   bytes Value
//	  uint16 len(LocalID) bytes LocalID

var (
	// ErrTruncatedTaint is returned when a serialized taint blob ends
	// before the declared number of tags has been decoded.
	ErrTruncatedTaint = errors.New("taint: truncated serialized taint")
)

const maxTagStringLen = 1<<16 - 1

// MarshalTaint serializes the taint's tag set. Size and bytes both come
// from the parent chain — leaf first, so the blob is filled from its end
// — and the blob is the only allocation. The tree keeps the blobs it
// built last (marshalMemo), and a taint marshalled again soon after gets
// the same bytes back: the blob is shared and must not be modified.
func MarshalTaint(t Taint) ([]byte, error) {
	if t.Empty() {
		return []byte{0, 0}, nil
	}
	if t.n.depth > maxTagStringLen {
		return nil, fmt.Errorf("taint: %d tags exceed wire limit", t.n.depth)
	}
	tr := t.n.tree()
	memo := lazy(&tr.memo)
	if blob := memo.get(t.n); blob != nil {
		return blob, nil
	}
	size := 2
	for n := t.n; n.id != 0; n = tr.node(n.parent) {
		k := tr.key(n)
		if len(k.Value) > maxTagStringLen || len(k.LocalID) > maxTagStringLen {
			return nil, fmt.Errorf("taint: tag string exceeds %d bytes", maxTagStringLen)
		}
		size += 4 + len(k.Value) + len(k.LocalID)
	}
	out := make([]byte, size)
	binary.BigEndian.PutUint16(out, uint16(t.n.depth))
	end := size
	for n := t.n; n.id != 0; n = tr.node(n.parent) {
		k := tr.key(n)
		end = putString(out, putString(out, end, k.LocalID), k.Value)
	}
	memo.put(t.n, out)
	return out, nil
}

// MarshalMemoLen is how many of its latest blobs a tree keeps.
const MarshalMemoLen = 64

// marshalMemo holds the blobs MarshalTaint built last on one tree. A
// stream send marshals a fresh taint to define it inline, and a send that
// soon meets it again — on another stream, or once its batch registered
// it, under its Global ID — defines it again: it finds the first
// definition's bytes instead of building them again.
type marshalMemo struct {
	mu   sync.Mutex
	next int
	n    [MarshalMemoLen]*node
	blob [MarshalMemoLen][]byte
}

// get returns n's blob, or nil if the memo does not hold it.
func (m *marshalMemo) get(n *node) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, k := range m.n {
		if k == n {
			return m.blob[i]
		}
	}
	return nil
}

// put keeps blob as n's, in place of the oldest entry.
func (m *marshalMemo) put(n *node, blob []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n[m.next], m.blob[m.next] = n, blob
	m.next = (m.next + 1) % MarshalMemoLen
}

// putString writes s behind its length so that it ends at out[end], and
// returns where the length starts.
func putString(out []byte, end int, s string) int {
	at := end - len(s)
	copy(out[at:], s)
	binary.BigEndian.PutUint16(out[at-2:], uint16(len(s)))
	return at - 2
}

// UnmarshalTaint decodes a taint blob into the receiver tree, interning
// the tag path so repeated arrivals of the same taint share nodes. The
// blob is checked whole first (a malformed one leaves the tree as it
// was), then walked down the tree straight from its bytes: a taint the
// tree already holds is found without allocating, and a new node builds
// only the strings it keeps. The result is FromKeys of the blob's keys.
func (tr *Tree) UnmarshalTaint(blob []byte) (Taint, error) {
	if len(blob) < 2 {
		return Taint{}, ErrTruncatedTaint
	}
	count := int(binary.BigEndian.Uint16(blob))
	blob = blob[2:]
	rest := blob
	for i := 0; i < 2*count; i++ {
		var err error
		if _, rest, err = readString(rest); err != nil {
			return Taint{}, err
		}
	}
	if len(rest) != 0 {
		return Taint{}, fmt.Errorf("taint: %d trailing bytes after taint blob", len(rest))
	}
	cur := &tr.root
	for i := 0; i < count; i++ {
		var value, localID []byte
		value, blob, _ = readString(blob)
		localID, blob, _ = readString(blob)
		cur = step(tr, cur, hashBytes(value, localID), value, localID)
	}
	if cur == &tr.root {
		return Taint{}, nil
	}
	return Taint{n: cur}, nil
}

// readString splits one length-prefixed string off the front of b.
func readString(b []byte) (s, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, ErrTruncatedTaint
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, ErrTruncatedTaint
	}
	return b[2 : 2+n], b[2+n:], nil
}
