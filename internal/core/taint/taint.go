package taint

import (
	"sort"
	"strings"
)

// Taint is a (possibly empty) set of tags, stored as a reference into a
// Tree: a pointer to its node's record, never the root's. The zero value
// is the empty taint, which carries no tags and is what untainted data
// has. Taint values are immutable and cheap to copy.
type Taint struct {
	n *node
}

// Empty reports whether the taint carries no tags. Inlined wherever a
// label loop asks (`make inline-check`).
func (t Taint) Empty() bool { return t.n == nil }

// Tree returns the tree this taint belongs to, or nil for the empty taint.
func (t Taint) Tree() *Tree {
	if t.n == nil {
		return nil
	}
	return t.n.tree()
}

// NewSource creates a fresh source taint carrying a single tag. localID
// identifies the generating node ("ip:pid"); value is the user-chosen tag
// value (§II-B: "the value of the tag is set by developers").
func (tr *Tree) NewSource(value, localID string) Taint {
	k := TagKey{Value: value, LocalID: localID}
	return Taint{n: step(tr, &tr.root, k.hash(), value, localID)}
}

// FromKeys builds (or finds) the taint with exactly the given tags,
// inserted in the order supplied. Duplicate keys are ignored.
func (tr *Tree) FromKeys(keys []TagKey) Taint {
	cur := &tr.root
	for _, k := range keys {
		cur = step(tr, cur, k.hash(), k.Value, k.LocalID)
	}
	if cur == &tr.root {
		return Taint{}
	}
	return Taint{n: cur}
}

// Combine returns the union of the two taints (§II-B: "c_t = a_t ∪ b_t").
// Tags of b missing from a's path are appended below a's node, interned
// so repeated combinations reuse nodes. Combining with the empty taint
// returns the other taint unchanged; Combine(t, t) == t.
//
// Results are memoized per (a, b) node pair in a bounded cache on a's
// Tree, so repeated unions of the same operands skip the path walk —
// the common case when shadow runs combine the same labels over and
// over. A pair enters the cache the second time it misses.
func Combine(a, b Taint) Taint {
	switch {
	case a.Empty():
		return b
	case b.Empty():
		return a
	case a.n == b.n:
		return a
	}
	tr, bt := a.n.tree(), b.n.tree()
	if bt != tr { // ids are only unique within one tree
		return Taint{n: tr.extend(a.n, bt, b.n)}
	}
	r, s, h := tr.cachedCombine(a.n.id, b.n.id)
	if r == 0 {
		r = tr.extend(a.n, tr, b.n).id
		s.storeCombine(a.n.id, b.n.id, r, h)
	}
	return Taint{n: tr.node(r)}
}

// CombineAll folds Combine over all the given taints.
func CombineAll(ts ...Taint) Taint {
	var acc Taint
	for _, t := range ts {
		acc = Combine(acc, t)
	}
	return acc
}

// Keys returns the tag set of the taint in root-first path order. The
// empty taint returns nil.
func (t Taint) Keys() []TagKey {
	if t.Empty() {
		return nil
	}
	tr := t.n.tree()
	keys := make([]TagKey, t.n.depth)
	for n := t.n; n.id != 0; n = tr.node(n.parent) {
		keys[n.depth-1] = tr.key(n)
	}
	return keys
}

// Values returns the user tag values of the taint, sorted, with
// duplicates (same value from different nodes) preserved as distinct
// entries only when their LocalIDs differ.
func (t Taint) Values() []string {
	keys := t.Keys()
	vals := make([]string, 0, len(keys))
	seen := make(map[TagKey]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		vals = append(vals, k.Value)
	}
	sort.Strings(vals)
	return vals
}

// Has reports whether the taint carries a tag with the given user value,
// regardless of which node generated it.
func (t Taint) Has(value string) bool {
	for n, tr := t.n, t.Tree(); n != nil && n.id != 0; n = tr.node(n.parent) {
		if tr.str(n.value) == value {
			return true
		}
	}
	return false
}

// HasKey reports whether the taint carries exactly the given tag key.
func (t Taint) HasKey(k TagKey) bool {
	return t.n != nil && onPath(t.n.tree(), t.n, k.hash(), k.Value, k.LocalID)
}

// Len returns the number of tags in the taint's set.
func (t Taint) Len() int {
	if t.Empty() {
		return 0
	}
	// The path may contain no duplicates by construction (contains check
	// on every append), so depth equals the set size.
	return int(t.n.depth)
}

// SameSet reports whether two taints carry the same tag set, even if
// they refer to different tree nodes (e.g. built in different orders).
func SameSet(a, b Taint) bool {
	if a.n == b.n {
		return true
	}
	ak, bk := a.Keys(), b.Keys()
	if len(ak) != len(bk) {
		return false
	}
	set := make(map[TagKey]bool, len(ak))
	for _, k := range ak {
		set[k] = true
	}
	for _, k := range bk {
		if !set[k] {
			return false
		}
	}
	return true
}

// GlobalID returns the Taint Map id assigned to this taint, or 0 if it
// has never been transferred between nodes (§III-D-1). One atomic load
// off the node's record, inlined into the senders' label walks (`make
// inline-check`).
func (t Taint) GlobalID() uint32 {
	if t.Empty() {
		return 0
	}
	return t.n.globalID.Load()
}

// SetGlobalID records the Taint Map id for this taint. Setting it on the
// empty taint is a no-op; a second call overwrites (the Taint Map is the
// single allocator, so ids are stable in practice).
func (t Taint) SetGlobalID(id uint32) {
	if t.Empty() {
		return
	}
	t.n.globalID.Store(id)
}

// String renders the taint as "{v1@l1, v2@l2}".
func (t Taint) String() string {
	keys := t.Keys()
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
