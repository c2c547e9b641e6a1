// Package taint implements DisTA's taint storage: the Phosphor-style
// singleton tag tree (DSN'22 §II-B) extended with DisTA's quad tags
// <ID, Tag, LocalID, GlobalID> (§III-D-1), taints as references into the
// tree, taint combination, run-based shadow label stores and tainted
// value wrappers.
//
// A Taint is a set of tags represented as a node in a per-process Tree;
// the set is the list of tags on the path from the root to that node.
// Combining two taints appends the missing tags of one path under the
// other, interning nodes so that equal extensions share storage — the
// memory-saving property the paper attributes to Phosphor.
//
// Lock order: a Tree has one mutex, mu, held by whoever adds a node, its
// key bytes or a hub table slot, and never together with another tree's.
// Readers take no lock: records, arena bytes and table slots are published
// by atomic stores and never change after, and the combine cache's slots
// are sequence-counted.
package taint

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// TagKey identifies a source tag uniquely across the whole cluster: the
// user-chosen tag value plus the LocalID (ip:pid) of the node that
// generated it. Two nodes generating the same tag value produce distinct
// TagKeys, which is exactly the tag-conflict problem LocalID solves
// (§III-D-1).
type TagKey struct {
	Value   string // user-assigned tag value
	LocalID string // "ip:pid" of the generating node
}

// String returns "value@localID".
func (k TagKey) String() string {
	return k.Value + "@" + k.LocalID
}

// Tag keys are hashed with a per-process seed: they arrive from peers, so
// the hash must not be one a peer can aim at (no FNV), and nothing
// observable — node ids, Keys() order, marshalled bytes — depends on it.
// hashMask keeps every bit; a test keeps a few, or none, to make
// collisions the common case, in the key hash and in the tables alike.
var (
	hashSeed  = maphash.MakeSeed()
	hashMask  = ^uint64(0)
	tableSeed = maphash.String(maphash.MakeSeed(), "")
)

// mixHash joins the hashes of a key's two strings; the rotation keeps
// (a, b) and (b, a) apart.
func mixHash(value, localID uint64) uint32 {
	return uint32((bits.RotateLeft64(value, 31) ^ localID) & hashMask)
}

// hash is the key's hash: computed once by whoever walks the key down the
// tree, compared before any string is, and kept on the node it creates.
func (k TagKey) hash() uint32 {
	return mixHash(maphash.String(hashSeed, k.Value), maphash.String(hashSeed, k.LocalID))
}

// hashBytes is TagKey.hash of a key still in its wire bytes.
func hashBytes(value, localID []byte) uint32 {
	return mixHash(maphash.Bytes(hashSeed, value), maphash.Bytes(hashSeed, localID))
}

// mix spreads a pair of 32-bit words over 64 bits under the process seed
// (murmur3's finaliser), masked like the key hash: the hub table and the
// combine cache index by its low word.
func mix(a, b uint32) uint64 {
	x := (uint64(a)<<32 | uint64(b)) ^ tableSeed
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return (x ^ x>>33) & hashMask
}

// listMax is the fan-out up to which a node's children are a list. Most
// nodes have one or two (a received taint, what the node combined into
// it); only hubs — the root above all, one child per distinct first tag
// — grow past it.
const listMax = 8

// node is one record of the tag tree, 40 bytes and no pointer. The root
// has id 0 and lives in the Tree; every other node carries the tag
// appended at that tree level and lives in a chunk, at its id.
// Children are only ever added: the first listMax are a list, newest
// first, through newest/sibling, links that never change; past listMax
// every child is in the tree's hub table too, and lookups go there.
type node struct {
	globalID atomic.Uint32 // Taint Map id of the taint this node represents; 0 = unassigned
	id       uint32        // this node's index in its tree
	parent   uint32
	sibling  uint32        // next older child of parent on its list; 0 ends it
	newest   atomic.Uint32 // head of the child list; 0 = no child
	fan      atomic.Uint32 // number of children
	depth    uint32        // number of tags on the path (root = 0)
	hash     uint32        // the key's hash
	value    uint32        // arena ref of the tag value
	local    uint32        // arena ref of the LocalID, interned: one per distinct LocalID
}

// chunkNodes is how many records a chunk holds. Chunks never move, so a
// Taint can point into one, and a tree's slack is one chunk at most.
const chunkNodes = 8

// chunk is a run of node records behind the one pointer a Taint needs to
// find its tree, at the head so the collector reads one word of it.
type chunk struct {
	tree  *Tree
	nodes [chunkNodes]node
}

// tree returns the tree of a non-root node, read off the head of its chunk.
func (n *node) tree() *Tree {
	slot := uintptr(n.id%chunkNodes) * unsafe.Sizeof(*n)
	return (*chunk)(unsafe.Add(unsafe.Pointer(n), -int(slot+unsafe.Offsetof(chunk{}.nodes)))).tree
}

// list is an append-only slice readers index without a lock. The writer
// appends under Tree.mu; a reader indexes the whole backing array, as
// published when it was last reallocated, at an index it learned from a
// store made after the element's.
type list[T any] struct {
	view atomic.Pointer[[]T]
	all  []T
}

func (l *list[T]) at(i uint32) T { return (*l.view.Load())[i] }

func (l *list[T]) add(x T) {
	grown := len(l.all) == cap(l.all)
	l.all = append(l.all, x)
	if grown {
		whole := l.all[:cap(l.all)]
		l.view.Store(&whole)
	}
}

// blockBits sizes the arena's blocks: 64 B to begin with, doubling up
// to 1<<blockBits; a string longer than that gets a block of its own.
const blockBits = 12

// Tree is the per-process singleton tag tree. The zero value is an empty
// tree. A Tree is safe for concurrent use.
type Tree struct {
	root   node
	nodes  atomic.Uint32 // nodes added, the root not counted: the last id
	mu     sync.Mutex
	chunks list[*chunk]
	blocks list[[]byte]                    // the key arena: each string behind its uvarint length
	cur    []byte                          // the unfilled rest of the last block
	locals map[string]uint32               // LocalID -> its arena ref, keyed by arena views
	hubs   atomic.Pointer[[]atomic.Uint64] // hub table: child id << 32 | low word of mix(parent, hash), 0 free
	hubN   int                             // hub table slots in use
	pairs  atomic.Pointer[[pairSlots]pairSlot]
	memo   atomic.Pointer[marshalMemo]
}

// NewTree returns an empty tag tree. Its chunks, arena, tables and
// memos are allocated at first use.
func NewTree() *Tree { return &Tree{} }

// node returns the record with id i.
func (t *Tree) node(i uint32) *node {
	if i == 0 {
		return &t.root
	}
	return &t.chunks.at(i / chunkNodes).nodes[i%chunkNodes]
}

// str returns the arena string at ref, a view of bytes that never change.
func (t *Tree) str(ref uint32) string {
	b := t.blocks.at(ref >> blockBits)[ref&(1<<blockBits-1):]
	n, w := binary.Uvarint(b)
	b = b[w : w+int(n)]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// key returns n's tag.
func (t *Tree) key(n *node) TagKey {
	return TagKey{Value: t.str(n.value), LocalID: t.str(n.local)}
}

// keyText is a tag key's string in hand (string) or still in its wire
// bytes ([]byte). Comparing an arena string against string(b) does not
// allocate, so one walk serves FromKeys, Combine and UnmarshalTaint.
type keyText interface{ string | []byte }

// put copies s into the arena and returns its ref: block number <<
// blockBits | offset. Called with t.mu held.
func put[S keyText](t *Tree, s S) uint32 {
	need := max(1, (bits.Len(uint(len(s)))+6)/7) + len(s) // uvarint length, then s
	if len(t.cur)+need > cap(t.cur) {
		size := max(min(2*cap(t.cur), 1<<blockBits), 64, need)
		if len(t.blocks.all) >= 1<<(32-blockBits) {
			panic("taint: tag tree arena full")
		}
		t.blocks.add(make([]byte, size))
		t.cur = t.blocks.all[len(t.blocks.all)-1][:0]
	}
	ref := uint32(len(t.blocks.all)-1)<<blockBits | uint32(len(t.cur))
	t.cur = append(binary.AppendUvarint(t.cur, uint64(len(s))), s...)
	return ref
}

// intern returns the arena ref of localID, putting it there the first
// time. Called with t.mu held.
func intern[S keyText](t *Tree, localID S) uint32 {
	if ref, ok := t.locals[string(localID)]; ok {
		return ref
	}
	ref := put(t, localID)
	if t.locals == nil {
		t.locals = make(map[string]uint32)
	}
	t.locals[t.str(ref)] = ref
	return ref
}

// carries reports whether n, a node of t, carries (value, localID), whose
// hash is h.
func carries[S keyText](t *Tree, n *node, h uint32, value, localID S) bool {
	return n.hash == h && t.str(n.value) == string(value) && t.str(n.local) == string(localID)
}

// onPath reports whether a node from n up to the root carries (value,
// localID), whose hash is h.
func onPath[S keyText](t *Tree, n *node, h uint32, value, localID S) bool {
	for ; n.id != 0; n = t.node(n.parent) {
		if carries(t, n, h, value, localID) {
			return true
		}
	}
	return false
}

// child returns n's child carrying (value, localID), whose hash is h, or
// nil. It takes no lock.
func child[S keyText](t *Tree, n *node, h uint32, value, localID S) *node {
	if n.fan.Load() <= listMax {
		for i := n.newest.Load(); i != 0; {
			c := t.node(i)
			if carries(t, c, h, value, localID) {
				return c
			}
			i = c.sibling
		}
		return nil
	}
	slots := *t.hubs.Load()
	sh := uint32(mix(n.id, h))
	for i := sh; ; i++ {
		w := slots[i&uint32(len(slots)-1)].Load()
		if w == 0 {
			return nil
		}
		if uint32(w) == sh {
			if c := t.node(uint32(w >> 32)); c.parent == n.id && carries(t, c, h, value, localID) {
				return c
			}
		}
	}
}

// step walks one key down the tree: it returns n when n's path already
// carries (value, localID), whose hash is h, and otherwise n's child
// carrying it, created if missing.
func step[S keyText](t *Tree, n *node, h uint32, value, localID S) *node {
	if onPath(t, n, h, value, localID) {
		return n
	}
	if c := child(t, n, h, value, localID); c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := child(t, n, h, value, localID); c != nil {
		return c
	}
	return add(t, n, h, value, localID)
}

// add creates n's child carrying (value, localID), whose hash is h.
// Called with t.mu held, after the lookup missed. The record is written
// whole before the store that lets readers reach it.
func add[S keyText](t *Tree, n *node, h uint32, value, localID S) *node {
	id := t.nodes.Load() + 1
	if int(id/chunkNodes) == len(t.chunks.all) {
		t.chunks.add(&chunk{tree: t})
	}
	c := t.node(id)
	c.id, c.parent, c.depth, c.hash = id, n.id, n.depth+1, h
	c.value, c.local = put(t, value), intern(t, localID)
	if fan := n.fan.Load(); fan < listMax {
		c.sibling = n.newest.Load()
		n.newest.Store(id)
	} else {
		for i := n.newest.Load(); fan == listMax && i != 0; i = t.node(i).sibling {
			t.hubAdd(t.node(i)) // the list is full: the table takes it too
		}
		t.hubAdd(c)
	}
	t.nodes.Store(id)
	n.fan.Add(1)
	return c
}

// hubAdd puts c in the hub table, growing it past three quarters full.
// Called with t.mu held.
func (t *Tree) hubAdd(c *node) {
	slots := *lazy(&t.hubs)
	if 4*(t.hubN+1) > 3*len(slots) {
		grown := make([]atomic.Uint64, max(2*len(slots), 16))
		for i := range slots {
			place(grown, slots[i].Load())
		}
		slots = grown
		t.hubs.Store(&grown)
	}
	place(slots, uint64(c.id)<<32|mix(c.parent, c.hash)&(1<<32-1))
	t.hubN++
}

// place stores hub slot word w at the first free slot from where its
// hash points.
func place(slots []atomic.Uint64, w uint64) {
	if w == 0 {
		return
	}
	mask := uint32(len(slots) - 1)
	i := uint32(w) & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(w)
}

// extend returns the node below n, a node of t, that adds in path order
// the tags of b's path (b a node of bt) not yet on the way. b's nodes
// carry their hashes, so no key is hashed again.
func (t *Tree) extend(n *node, bt *Tree, b *node) *node {
	if b.id == 0 {
		return n
	}
	return step(t, t.extend(n, bt, bt.node(b.parent)), b.hash, bt.str(b.value), bt.str(b.local))
}

// pairSlots sizes the combine cache, a direct-mapped table of Combine
// results allocated at a tree's first same-tree union.
const pairSlots = 1 << 10

// pairSlot caches one ordered Combine(a, b) = r by node id. The result
// depends on operand order (b's missing tags are appended under a), so
// the key is ordered too. seq is odd while a writer fills the slot: a
// reader that loads the same even seq before and after its loads read
// one whole entry. seen is a fingerprint of the last pair that missed
// here; a pair is cached when it misses a second time in a row, so a pair
// seen once — a fresh taint's — costs no write.
type pairSlot struct {
	seq, a, b, r, seen atomic.Uint32
}

// cachedCombine returns the memoized union of the (a, b) node pair, and
// the slot a miss may fill.
func (t *Tree) cachedCombine(a, b uint32) (uint32, *pairSlot, uint64) {
	p, h := lazy(&t.pairs), mix(a, b)
	s := &p[h%pairSlots]
	seq := s.seq.Load()
	if seq&1 == 0 && s.a.Load() == a && s.b.Load() == b {
		if r := s.r.Load(); s.seq.Load() == seq {
			return r, s, h
		}
	}
	return 0, s, h
}

// storeCombine memoizes r as the union of (a, b) if the pair missed in s
// the last time too, unless another writer holds the slot.
func (s *pairSlot) storeCombine(a, b, r uint32, h uint64) {
	fp := uint32(h>>32) | 1
	if s.seen.Swap(fp) != fp {
		return
	}
	if seq := s.seq.Load(); seq&1 == 0 && s.seq.CompareAndSwap(seq, seq+1) {
		s.a.Store(a)
		s.b.Store(b)
		s.r.Store(r)
		s.seq.Store(seq + 2)
	}
}

// lazy returns *p, allocating it on first use.
func lazy[T any](p *atomic.Pointer[T]) *T {
	if v := p.Load(); v != nil {
		return v
	}
	p.CompareAndSwap(nil, new(T))
	return p.Load()
}

// NodeCount returns the number of nodes currently interned in the tree,
// excluding the root. Useful for memory-sharing assertions.
func (t *Tree) NodeCount() int {
	return int(t.nodes.Load())
}

func (t *Tree) String() string {
	return fmt.Sprintf("taint.Tree{nodes: %d}", t.NodeCount())
}
