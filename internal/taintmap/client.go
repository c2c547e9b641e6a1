package taintmap

import (
	"fmt"
	"slices"
	"sync"

	"dista/internal/core/taint"
)

// Client is a node's handle to the Taint Map. Register implements steps
// ①/② of Figure 9 (taint -> Global ID, cached on the taint node so each
// global taint is transferred once per node); Lookup implements steps
// ④/⑤ (Global ID -> taint, cached per client).
type Client interface {
	// Register returns the Global ID for t, contacting the Taint Map only
	// on first sight of the taint. The id is also recorded on t.
	Register(t taint.Taint) (uint32, error)
	// Lookup resolves a Global ID into a taint interned in this node's
	// tree, contacting the Taint Map only on first sight of the id.
	Lookup(id uint32) (taint.Taint, error)
	// RegisterBatch registers every taint, returning the parallel id
	// slice. Duplicates and already-registered taints cost nothing
	// extra; a remote client resolves all misses in one round trip.
	RegisterBatch(ts []taint.Taint) ([]uint32, error)
	// LookupBatch resolves every id, returning the parallel taint
	// slice; all cache misses go to the Taint Map in one round trip.
	LookupBatch(ids []uint32) ([]taint.Taint, error)
	// Learn memoises a peer's definitions — Global IDs with the serialized
	// taints it registered under them — so their lookups need no round
	// trip. A client may ignore them; unsound ones it refuses, all.
	Learn(ids []uint32, blobs [][]byte) error
	// Tree returns the tree received taints are interned in: the node's.
	Tree() *taint.Tree
	// Close releases the client's resources.
	Close() error
}

// collectRegister splits ts into resolved ids and the distinct
// unresolved taints, with at[i] - 1 the index into pending of the taint
// position i waits on (0: none). Its three slices and one map are all a
// batch allocates, however many taints it has.
func collectRegister(ts []taint.Taint) (ids []uint32, pending []taint.Taint, at []int) {
	ids = make([]uint32, len(ts))
	if len(ts) == 1 {
		// The batch of one: nothing to deduplicate, so no position
		// table — see spreadIDs.
		if ids[0] = ts[0].GlobalID(); ids[0] == 0 && !ts[0].Empty() {
			pending = ts
		}
		return ids, pending, nil
	}
	var index map[taint.Taint]int
	for i, t := range ts {
		if t.Empty() {
			continue
		}
		if id := t.GlobalID(); id != 0 {
			ids[i] = id
			continue
		}
		if at == nil {
			at, index = make([]int, len(ts)), make(map[taint.Taint]int, len(ts)-i)
			pending = make([]taint.Taint, 0, len(ts)-i)
		}
		k, seen := index[t]
		if !seen {
			k = len(pending)
			index[t], pending = k, append(pending, t)
		}
		at[i] = k + 1
	}
	return ids, pending, at
}

// marshalAll appends every taint in ts, serialized, to blobs.
func marshalAll(blobs [][]byte, ts []taint.Taint) ([][]byte, error) {
	for _, t := range ts {
		blob, err := taint.MarshalTaint(t)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, blob)
	}
	return blobs, nil
}

// blobLists recycles the blob list a registration hands its transport,
// which keeps none of it past the call.
var blobLists = sync.Pool{New: func() any { return new([][]byte) }}

// spreadIDs copies each pending taint's id to every position of ids
// waiting on it. The batch of one has no table: its one position waits
// on its one taint, and its id went straight to ids.
func spreadIDs(ids, fresh []uint32, at []int) {
	for i, k := range at {
		if k > 0 {
			ids[i] = fresh[k-1]
		}
	}
}

// The memo's pages are small: the measured clients (DESIGN §8) hold either
// every id of a partition's sequence, where any page size costs 8 B an id,
// or a handful, where the first page is the whole bill; and at one id seen
// in fifty — a node of a large cluster — an id held costs a page of S
// slots, 8·S B, and 50/S directory pointers, least in sum for S of 8 to 16.
const (
	memoPageBits = 4
	MemoPageLen  = 1 << memoPageBits // the ids one memo page holds
	memoPageMask = MemoPageLen - 1
	// peerPages is how far past its end a peer's definition may extend a
	// directory: an honest one defines ids the Taint Map has just minted,
	// a few dozen sequence numbers past what this node last saw.
	peerPages = 4
	anyPage   = 1 << (partitionShift - memoPageBits)
)

// memoPage is one block of the id -> taint memo: a taint is one pointer,
// and the empty taint marks a slot the memo has no answer for.
type memoPage [MemoPageLen]taint.Taint

// cache holds the per-node id -> taint memo shared by all client kinds.
// Global IDs are positions — a partition mints its sequence densely from
// 1 (idspace.go) — so the memo is a page table, the store's pageTable
// shape: groups is indexed by id >> partitionShift — one group per
// partition: a stream-scoped id is past the last and never memoised — a
// group by seq >>
// memoPageBits, a page by seq & memoPageMask. An empty memo holds nothing;
// a group's directory reaches as far as the highest seq put there and a
// page exists once an id on it was put, so a memo costs at most 8.5 B per
// id below the highest seq seen in each partition plus a partial page —
// and at least a 128 B page and a directory slot per 16 seqs below it for
// an id seen alone.
//
// Who may make it grow: the Taint Map's answers and this node's own
// registrations reach any seq (the map minted it, so the cluster holds
// that many taints); a peer's definition fills or creates a page within
// the directory or at most peerPages past its end, and is otherwise not
// memoised — its lookup then asks the Taint Map, whose answer extends the
// reach. So a peer pins at most a page and peerPages directory slots per
// entry it sends, about what its taint pins in the tree.
//
// Reads (the overwhelmingly common case once a node is warm) take only
// the read lock, so concurrent goroutines resolving cached ids never
// serialize.
type cache struct {
	mu     sync.RWMutex
	groups [][]*memoPage
}

// lookup is get with c.mu held.
func (c *cache) lookup(id uint32) (taint.Taint, bool) {
	g := int(id >> partitionShift)
	if g >= len(c.groups) { // an empty memo, or a stream-scoped id
		return taint.Taint{}, false
	}
	pages := c.groups[g]
	pi := int(id&seqMask) >> memoPageBits
	if pi >= len(pages) || pages[pi] == nil {
		return taint.Taint{}, false
	}
	t := pages[pi][id&memoPageMask]
	return t, !t.Empty()
}

func (c *cache) get(id uint32) (taint.Taint, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookup(id)
}

// put memoises t under id unless the memo holds the id: what an id first
// resolved to stays, so a peer's definition (Learn) never replaces an
// entry that came from the Taint Map. Id 0 and the empty taint are the
// untainted on either side and, like a stream-scoped id, never stored.
func (c *cache) put(id uint32, t taint.Taint) { c.putWithin(id, t, anyPage) }

// putWithin is put for an id that may extend its group's directory by at
// most reach pages; one further out is dropped.
func (c *cache) putWithin(id uint32, t taint.Taint, reach int) {
	if id == 0 || t.Empty() || IsStreamScoped(id) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.groups == nil {
		c.groups = make([][]*memoPage, MaxPartitions)
	}
	pages := c.groups[id>>partitionShift]
	pi := int(id&seqMask) >> memoPageBits
	if pi >= len(pages)+reach {
		return
	}
	if pi >= len(pages) {
		pages = append(pages, make([]*memoPage, pi+1-len(pages))...)
		c.groups[id>>partitionShift] = pages
	}
	if pages[pi] == nil {
		pages[pi] = new(memoPage)
	}
	if slot := &pages[pi][id&memoPageMask]; slot.Empty() {
		*slot = t
	}
}

// reset empties the memo, so the next lookups reach the Taint Map.
func (c *cache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = nil
}

// transport is how a caching client's misses reach the Taint Map. The
// front hands it misses only, once per batch, and it adopts each answer
// where that arrives (stamp, adopt), so a batch that fails part-way keeps
// what it had resolved.
type transport interface {
	// register resolves distinct, non-empty taints carrying no Global ID
	// (blobs: each one serialized) to their ids, written to the parallel
	// ids, stamped and memoised.
	register(ids []uint32, ts []taint.Taint, blobs [][]byte) error
	// lookup resolves distinct, non-zero ids the memo does not hold to
	// the parallel taints, adopted into the node's tree and memo.
	lookup(ids []uint32) ([]taint.Taint, error)
}

// front is the node's side of every caching client, and the four verbs of
// Client written once over it: the tree that received taints are interned
// in, the id -> taint memo over it, and the transport the misses go to.
// The hit paths (Fig. 9 ② and ⑤) end here; a transport never sees one.
type front struct {
	tree *taint.Tree
	memo *cache
	t    transport
}

// Register implements Client: the early-outs, then the batch of one —
// with nothing to deduplicate it goes to the transport as it is.
func (f *front) Register(t taint.Taint) (uint32, error) {
	if t.Empty() {
		return 0, nil
	}
	if id := t.GlobalID(); id != 0 {
		return id, nil
	}
	var id [1]uint32
	if err := f.registerMisses(id[:], []taint.Taint{t}); err != nil {
		return 0, err
	}
	return id[0], nil
}

// Lookup implements Client: the early-outs, then the batch of one — the
// memo has just declined the id, so there is nothing to split.
func (f *front) Lookup(id uint32) (taint.Taint, error) {
	if id == 0 {
		return taint.Taint{}, nil
	}
	if t, ok := f.memo.get(id); ok {
		return t, nil
	}
	got, err := f.t.lookup([]uint32{id})
	if err != nil {
		return taint.Taint{}, err
	}
	return got[0], nil
}

// RegisterBatch implements Client: the distinct unregistered taints go to
// the transport in one call.
func (f *front) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	ids, pending, at := collectRegister(ts)
	if len(pending) == 0 {
		return ids, nil
	}
	fresh := ids // the batch of one: its one position waits on its one taint
	if at != nil {
		fresh = make([]uint32, len(pending))
	}
	if err := f.registerMisses(fresh, pending); err != nil {
		return nil, err
	}
	spreadIDs(ids, fresh, at)
	return ids, nil
}

// registerMisses hands the pending taints, serialized, to the transport,
// for their ids in fresh.
func (f *front) registerMisses(fresh []uint32, pending []taint.Taint) error {
	list := blobLists.Get().(*[][]byte)
	blobs, err := marshalAll((*list)[:0], pending)
	if err == nil {
		err = f.t.register(fresh, pending, blobs)
	}
	clear(blobs)
	*list = blobs[:0]
	blobLists.Put(list)
	return err
}

// LookupBatch implements Client: the memo is split once and the distinct
// misses go to the transport in one call.
func (f *front) LookupBatch(ids []uint32) ([]taint.Taint, error) {
	ts, missing := f.memo.splitBatch(ids)
	if len(missing) == 0 {
		return ts, nil
	}
	got, err := f.t.lookup(missing)
	if err != nil {
		return nil, err
	}
	fillMissing(ts, ids, missing, got)
	return ts, nil
}

// stamp records freshly minted Global IDs on their taints and in the
// memo: how a transport adopts what the Taint Map answered a register.
func (f *front) stamp(ts []taint.Taint, ids []uint32) {
	for i, t := range ts {
		t.SetGlobalID(ids[i])
		f.memo.put(ids[i], t)
	}
}

// adopt decodes blobs into the tree — into ts's backing array when it is
// large enough — stamps each taint with its id and memoises it — a peer's
// only within its reach (see cache): how a transport adopts what the
// Taint Map answered a lookup. Nothing is adopted unless every entry is
// sound: a blob that is no taint, or from a peer the untainted or a
// stream-scoped id — its stream gone wrong, where the Taint Map never
// answers so.
func (f *front) adopt(ts []taint.Taint, ids []uint32, blobs [][]byte, peer bool) ([]taint.Taint, error) {
	if len(blobs) != len(ids) {
		return nil, fmt.Errorf("taintmap: %d blobs for %d ids", len(blobs), len(ids))
	}
	if cap(ts) < len(ids) {
		ts = make([]taint.Taint, len(ids))
	}
	ts = ts[:len(ids)]
	for i, id := range ids {
		t, err := f.tree.UnmarshalTaint(blobs[i])
		if err == nil && peer && (id == 0 || IsStreamScoped(id) || t.Empty()) {
			err = fmt.Errorf("taintmap: a peer defines Global ID %#x as %v", id, t)
		}
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	reach := anyPage
	if peer {
		reach = peerPages
	}
	for i, id := range ids {
		ts[i].SetGlobalID(id)
		f.memo.putWithin(id, ts[i], reach)
	}
	return ts, nil
}

// Learn implements Client for every caching client. The taints go to the
// memo alone: a stream's handful are decoded on the stack.
func (f *front) Learn(ids []uint32, blobs [][]byte) error {
	var few [8]taint.Taint
	_, err := f.adopt(few[:0], ids, blobs, true)
	return err
}

// Tree implements Client for every caching client.
func (f *front) Tree() *taint.Tree { return f.tree }

// splitBatch resolves what it can from the memo under one read-lock
// acquisition: ts holds the resolved taints (and empties for id 0),
// missing lists the distinct unresolved ids in first-seen order. A
// two-slot last-seen shortcut keeps fragmented streams that alternate
// between a couple of ids (the adversarial per-byte-label case) from
// paying a table walk per run. The miss list is deduplicated by scanning
// it while it is short — most often it is one id, and a map would be the
// larger half of what that miss allocates — and through a map beyond.
func (c *cache) splitBatch(ids []uint32) (ts []taint.Taint, missing []uint32) {
	const scanMax = 8
	ts = make([]taint.Taint, len(ids))
	var seen map[uint32]bool
	var id0, id1 uint32
	var t0, t1 taint.Taint
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, id := range ids {
		if id == 0 {
			continue
		}
		if id == id0 {
			ts[i] = t0
			continue
		}
		if id == id1 {
			ts[i] = t1
			continue
		}
		if t, ok := c.lookup(id); ok {
			ts[i] = t
			id1, t1 = id0, t0
			id0, t0 = id, t
			continue
		}
		if seen == nil && len(missing) == scanMax {
			seen = make(map[uint32]bool, 4*scanMax)
			for _, m := range missing {
				seen[m] = true
			}
		}
		if seen == nil {
			if !slices.Contains(missing, id) {
				missing = append(missing, id)
			}
		} else if !seen[id] {
			seen[id] = true
			missing = append(missing, id)
		}
	}
	return ts, missing
}

// LocalClient talks to an in-process Store directly. It is used by
// single-process simulations and tests; behaviourally identical to
// RemoteClient minus the network hop.
type LocalClient struct {
	store *Store
	front
}

var _ Client = (*LocalClient)(nil)

// NewLocalClient returns a client resolving taints into tree.
func NewLocalClient(store *Store, tree *taint.Tree) *LocalClient {
	c := &LocalClient{store: store}
	c.front = front{tree, &cache{}, c}
	return c
}

// register implements transport: the blobs go straight to the store,
// each locking only its shard.
func (c *LocalClient) register(ids []uint32, ts []taint.Taint, blobs [][]byte) error {
	copy(ids, c.store.RegisterBlobs(blobs))
	c.stamp(ts, ids)
	return nil
}

// lookup implements transport over the store's lock-free id table.
func (c *LocalClient) lookup(ids []uint32) ([]taint.Taint, error) {
	blobs, err := c.store.LookupBlobs(ids)
	if err != nil {
		return nil, err
	}
	return c.adopt(nil, ids, blobs, false)
}

// fillMissing completes a splitBatch: got holds the taints resolved for
// the distinct missing ids, and every position of ids waiting on one of
// them receives it.
func fillMissing(ts []taint.Taint, ids, missing []uint32, got []taint.Taint) {
	fetched := make(map[uint32]taint.Taint, len(missing))
	for i, id := range missing {
		fetched[id] = got[i]
	}
	for i, id := range ids {
		if t, ok := fetched[id]; ok {
			ts[i] = t
		}
	}
}

// Close implements Client; the local client holds no resources.
func (c *LocalClient) Close() error { return nil }

// MemoStats describes what a client's memo holds. IDs over Span is the
// density the page table's footprint depends on (DESIGN §8).
type MemoStats struct {
	IDs  int // ids the memo answers
	Span int // the highest seq among them, summed over partitions
}

// MemoStats reports the node's memo, for every caching client.
func (f *front) MemoStats() MemoStats {
	c := f.memo
	c.mu.RLock()
	defer c.mu.RUnlock()
	var st MemoStats
	for _, pages := range c.groups {
		top := 0
		for pi, p := range pages {
			if p == nil {
				continue
			}
			for si, t := range p {
				if !t.Empty() {
					st.IDs++
					top = pi<<memoPageBits | si
				}
			}
		}
		st.Span += top
	}
	return st
}
