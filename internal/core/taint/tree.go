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
// Lock order: at most one node mutex is held at a time (a node's own mu
// while reading or extending its children). The Tree itself has no
// mutex — node-ID allocation is a lock-free atomic counter, a node's
// globalID is an atomic — and the combine cache uses its own RWMutex,
// taken only while no node mutex is held.
package taint

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
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
// collisions the common case.
var (
	hashSeed = maphash.MakeSeed()
	hashMask = ^uint64(0)
)

// mixHash joins the hashes of a key's two strings; the rotation keeps
// (a, b) and (b, a) apart.
func mixHash(value, localID uint64) uint64 {
	return (bits.RotateLeft64(value, 31) ^ localID) & hashMask
}

// hash is the key's hash: computed once by whoever walks the key down the
// tree, compared before any string is, and kept on the node it creates.
func (k TagKey) hash() uint64 {
	return mixHash(maphash.String(hashSeed, k.Value), maphash.String(hashSeed, k.LocalID))
}

// hashBytes is TagKey.hash of a key still in its wire bytes.
func hashBytes(value, localID []byte) uint64 {
	return mixHash(maphash.Bytes(hashSeed, value), maphash.Bytes(hashSeed, localID))
}

// listMax is the fan-out up to which a node's children are a list. Most
// nodes have one or two (a received taint, what the node combined into
// it); only hubs — the root above all, one child per distinct first tag
// — grow past it.
const listMax = 8

// node is one entry of the tag tree. The root has an empty TagKey and
// id 0; every other node carries the tag appended at that tree level.
//
// Children are only ever added. Up to listMax they are an intrusive
// list, newest first, through newest/sibling: nothing is allocated but
// the child. Beyond, byHash maps a key's hash to the children carrying
// it, chained through sibling — equal hashes are told apart by comparing
// keys — so map growth moves uint64s and pointers and never touches a
// key string.
type node struct {
	id       int64  // unique rank of this node within its Tree
	key      TagKey // tag added at this level (zero for root)
	hash     uint64 // key.hash()
	parent   *node
	sibling  *node // next older child of parent: in its list, or in its byHash chain
	depth    int   // number of tags on the path (root = 0)
	tree     *Tree
	globalID atomic.Uint32 // Taint Map id for the taint this node represents; 0 = unassigned

	mu     sync.Mutex
	fan    uint32           // number of children
	newest *node            // the last child created; head of the list while byHash is nil
	byHash map[uint64]*node // set once fan exceeds listMax
}

// combineKey caches one ordered Combine(a, b) pair by node id. The
// result depends on operand order (b's missing tags are appended under
// a), so the key is ordered too.
type combineKey struct {
	a, b int64
}

// combineCacheMax bounds the combine memo. When the cache fills it is
// flushed wholesale: O(1), no bookkeeping on the hit path, and hot
// pairs repopulate within a handful of unions. 4096 entries cover far
// more distinct taint pairs than any workload in the paper's
// evaluation touches between flushes.
const combineCacheMax = 4096

// Tree is the per-process singleton tag tree. The zero value is not
// usable; construct with NewTree. A Tree is safe for concurrent use.
type Tree struct {
	nextID atomic.Int64
	root   *node

	cmu     sync.RWMutex
	combine map[combineKey]Taint

	marshalled marshalMemo
}

// NewTree returns an empty tag tree.
func NewTree() *Tree {
	t := &Tree{}
	t.nextID.Store(1)
	t.root = &node{tree: t}
	return t
}

// keyText is a tag key's string in hand (string) or still in its wire
// bytes ([]byte). Comparing a node's key against string(b) does not
// allocate, so one walk serves FromKeys, Combine and UnmarshalTaint.
type keyText interface{ string | []byte }

// carries reports whether n's own tag is (value, localID), whose hash is h.
func carries[S keyText](n *node, h uint64, value, localID S) bool {
	return n.hash == h && n.key.Value == string(value) && n.key.LocalID == string(localID)
}

// onPath reports whether a node from n up to the root carries (value,
// localID), whose hash is h.
func onPath[S keyText](n *node, h uint64, value, localID S) bool {
	for ; n.parent != nil; n = n.parent {
		if carries(n, h, value, localID) {
			return true
		}
	}
	return false
}

// step walks one key down the tree: it returns n when n's path already
// carries (value, localID), whose hash is h, and otherwise n's child
// carrying it, created if missing.
func step[S keyText](n *node, h uint64, value, localID S) *node {
	if onPath(n, h, value, localID) {
		return n
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for c := n.chain(h); c != nil; c = c.sibling {
		if carries(c, h, value, localID) {
			return c
		}
	}
	// Strings are built for the node that keeps them. A LocalID equal to
	// the parent's or the newest sibling's shares that string — nearly all
	// on a node's tree name one of a handful of peers — which takes no
	// table and so no lock beyond n.mu.
	key := TagKey{Value: string(value)}
	switch {
	case n.key.LocalID == string(localID):
		key.LocalID = n.key.LocalID
	case n.newest != nil && n.newest.key.LocalID == string(localID):
		key.LocalID = n.newest.key.LocalID
	default:
		key.LocalID = string(localID)
	}
	return n.add(h, key)
}

// extend returns the node below n that adds, in path order, the tags of
// b's path not yet on the way. b's nodes carry their hashes, whichever
// tree they are in, so no key is hashed again.
func (n *node) extend(b *node) *node {
	if b.parent == nil {
		return n
	}
	return step(n.extend(b.parent), b.hash, b.key.Value, b.key.LocalID)
}

// chain returns the first child that may carry hash h, the rest
// following through sibling: all of them while they are a list, those
// sharing h once they are a map. Called with n.mu held.
func (n *node) chain(h uint64) *node {
	if n.byHash != nil {
		return n.byHash[h]
	}
	return n.newest
}

// add creates n's child carrying key, whose hash is h. Called with n.mu
// held, after the lookup missed.
func (n *node) add(h uint64, key TagKey) *node {
	c := &node{
		id:     n.tree.nextID.Add(1) - 1,
		key:    key,
		hash:   h,
		parent: n,
		depth:  n.depth + 1,
		tree:   n.tree,
	}
	if n.byHash == nil && n.fan == listMax {
		// The list has outgrown a scan: re-thread it as hash chains.
		n.byHash = make(map[uint64]*node, 4*listMax)
		for k := n.newest; k != nil; {
			older := k.sibling
			k.sibling = n.byHash[k.hash]
			n.byHash[k.hash] = k
			k = older
		}
	}
	if n.byHash != nil {
		c.sibling = n.byHash[h]
		n.byHash[h] = c
	} else {
		c.sibling = n.newest
	}
	n.newest = c
	n.fan++
	return c
}

// cachedCombine returns the memoized union of the (a, b) node pair.
func (t *Tree) cachedCombine(a, b int64) (Taint, bool) {
	t.cmu.RLock()
	r, ok := t.combine[combineKey{a, b}]
	t.cmu.RUnlock()
	return r, ok
}

// storeCombine memoizes a union result, flushing the cache when full.
func (t *Tree) storeCombine(a, b int64, r Taint) {
	t.cmu.Lock()
	if t.combine == nil || len(t.combine) >= combineCacheMax {
		t.combine = make(map[combineKey]Taint, combineCacheMax/4)
	}
	t.combine[combineKey{a, b}] = r
	t.cmu.Unlock()
}

// path returns the tags from root to n, in insertion (root-first) order.
func (n *node) path() []TagKey {
	keys := make([]TagKey, n.depth)
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		keys[cur.depth-1] = cur.key
	}
	return keys
}

// NodeCount returns the number of nodes currently interned in the tree,
// excluding the root. Useful for memory-sharing assertions.
func (t *Tree) NodeCount() int {
	return int(t.nextID.Load() - 1)
}

func (t *Tree) String() string {
	return fmt.Sprintf("taint.Tree{nodes: %d}", t.NodeCount())
}
