package taintmap

import (
	"cmp"
	"errors"
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
	// Issue sends the registration of ts, distinct taints without a
	// Global ID (blobs: each serialized), and does not wait for the
	// answers; until Collect reads them, ts and blobs are r's, which may
	// reorder them. A client with no round trip to overlap registers now.
	Issue(r *Registration, ts []taint.Taint, blobs [][]byte)
	// Collect stamps what r's answers registered and returns what failed.
	Collect(r *Registration) error
	// LookupBatch resolves every id, returning the parallel taint
	// slice; all cache misses go to the Taint Map in one round trip.
	LookupBatch(ids []uint32) ([]taint.Taint, error)
	// LookupInto is LookupBatch into ts, when it has the room.
	LookupInto(ts []taint.Taint, ids []uint32) ([]taint.Taint, error)
	// Learn memoises a peer's definitions — Global IDs with the serialized
	// taints it registered under them — so their lookups need no round
	// trip. A client may ignore them; unsound ones it refuses, all.
	Learn(ids []uint32, blobs [][]byte) error
	// Tree returns the tree received taints are interned in: the node's.
	Tree() *taint.Tree
	// Close releases the client's resources.
	Close() error
}

// splitRegister splits ts into resolved ids and the distinct unresolved
// taints; its two slices and one map are all a batch allocates, however
// many taints it has.
func splitRegister(ts []taint.Taint) (ids []uint32, pending []taint.Taint) {
	ids = make([]uint32, len(ts))
	if len(ts) == 1 {
		// The batch of one: nothing to deduplicate.
		if ids[0] = ts[0].GlobalID(); ids[0] == 0 && !ts[0].Empty() {
			pending = ts
		}
		return ids, pending
	}
	var seen map[taint.Taint]bool
	for i, t := range ts {
		if ids[i] = t.GlobalID(); ids[i] != 0 || t.Empty() || seen[t] {
			continue
		}
		if seen == nil {
			seen, pending = make(map[taint.Taint]bool, len(ts)-i), make([]taint.Taint, 0, len(ts)-i)
		}
		seen[t], pending = true, append(pending, t)
	}
	return ids, pending
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

// Registration is one batch registration between its two halves (Issue,
// Collect): the batch, grouped by owner, and each owner's request. What
// it holds is scratch, kept for the next batch; the zero value is ready.
type Registration struct {
	ts     []taint.Taint
	blobs  [][]byte
	ids    []uint32 // the answers, parallel to ts
	owners []uint32 // each blob's owner
	groups []regGroup
	wire   []byte   // a request's payload
	list   [][]byte // RegisterBatch's blobs
	wait   bool     // collected at once (RegisterBatch): a lone request reads its answer
	// A batch of one's scratch (regs).
	one    [1]regGroup
	oneB   [1][]byte
	oneID  [1]uint32
	oneOwn [1]uint32
}

// regGroup is a frame's worth of an owner's share of a registration,
// ts[from:to], and its request on rc, answered on ch, or read off rc
// when it kept the read role; without ch, err is the answer. m is the
// owner's member, nil for a RemoteClient's own batch.
type regGroup struct {
	m        *member
	rc       *RemoteClient
	ch       chan muxReply
	read     bool
	err      error
	from, to int
}

// errNotIssued marks a group that found no live connection at issue.
var errNotIssued = errors.New("taintmap: registration not issued")

// regs recycles RegisterBatch's registrations.
var regs = sync.Pool{New: func() any {
	r := new(Registration)
	r.groups, r.list, r.ids, r.owners, r.wait = r.one[:0], r.oneB[:0], r.oneID[:0], r.oneOwn[:0], true
	return r
}}

// issueGroup sends ts[from:to], a frame's worth a request, on rc, its
// owner's live connection — nil: none.
func (r *Registration) issueGroup(m *member, rc *RemoteClient, from, to int) {
	for from < to {
		g := regGroup{m: m, err: errNotIssued, from: from, to: to}
		if n, err := nextBlobChunk(r.blobs[from:to]); err != nil {
			g.err = err
		} else if g.to = from + n; rc != nil {
			r.send(&g, rc, r.wait && from == 0 && g.to == len(r.ts))
		}
		r.groups = append(r.groups, g)
		from = g.to
	}
}

// send puts g's request on rc: one answered next and alone (read) keeps
// the read role, as a call does; any other hands it to the helper.
func (r *Registration) send(g *regGroup, rc *RemoteClient, read bool) {
	r.wire = appendBlobList(r.wire[:0], r.blobs[g.from:g.to])
	g.rc = rc
	_, g.ch, g.read, g.err = rc.issue(opRegisterBatchTag, r.wire, nil, !read)
}

// answer takes g's answer, and stamps the ids it carries.
func (r *Registration) answer(g *regGroup, f *front) error {
	if g.ch == nil {
		return g.err
	}
	ch, m, ok := g.ch, muxReply{}, false
	if g.read {
		if m, ok = g.rc.readReplies(ch); ok {
			ch = nil // the holder's own answer did not cross the channel
		}
	}
	if ch != nil {
		m, ok = <-ch
	}
	reply, err := g.rc.finishReply(ch, m, ok)
	ids := r.ids[g.from:g.to]
	if got, perr := parseIDListInto(ids[:0], reply); err == nil && (perr != nil || len(got) != len(ids)) {
		err = fmt.Errorf("taintmap: register batch reply of %d bytes", len(reply))
	} else if err == nil {
		f.stamp(r.ts[g.from:g.to], ids)
	}
	return err
}

// Collect implements Client: it takes each group's answer. A group of a
// member that did not go out, or whose connection died first, goes out
// again now, on the connection the member's failover loop finds
// (degraded: ErrDegraded); an error answer (ErrOverloaded) is the answer.
// It returns the first failure.
func (f *front) Collect(r *Registration) (err error) {
	for i := range r.groups {
		g := &r.groups[i]
		gerr := r.answer(g, f)
		if g.m != nil && (errors.Is(gerr, errNotIssued) || isConnErr(gerr)) {
			gerr = g.m.withConn(func(rc *RemoteClient) error {
				r.send(g, rc, true)
				return r.answer(g, f)
			}, func() error { return ErrDegraded })
		}
		err = cmp.Or(err, gerr)
	}
	clear(r.groups)
	r.ts, r.blobs, r.groups = nil, nil, r.groups[:0]
	return err
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(id, t, reach)
}

// putLocked is putWithin with c.mu held.
func (c *cache) putLocked(id uint32, t taint.Taint, reach int) {
	if id == 0 || t.Empty() || IsStreamScoped(id) {
		return
	}
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
	// issueRegister sends the registration of r's distinct, non-empty
	// taints carrying no Global ID (r.blobs: each one serialized), their
	// ids to be stamped and memoised — by Collect, over r.groups, unless
	// it registered them at once. It may reorder r.ts with r.blobs.
	issueRegister(r *Registration)
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
	if err := f.registerMisses([]taint.Taint{t}); err != nil {
		return 0, err
	}
	return t.GlobalID(), nil
}

// Issue implements Client: the batch goes to the transport as it is.
func (f *front) Issue(r *Registration, ts []taint.Taint, blobs [][]byte) {
	r.ts, r.blobs, r.ids = ts, blobs, slices.Grow(r.ids[:0], len(ts))[:len(ts)]
	f.t.issueRegister(r)
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
	ids, pending := splitRegister(ts)
	if len(pending) == 0 {
		return ids, nil
	}
	if err := f.registerMisses(pending); err != nil {
		return nil, err
	}
	for i, t := range ts {
		ids[i] = t.GlobalID() // the registration stamped every taint
	}
	return ids, nil
}

// registerMisses registers the pending taints, serialized, in one issued
// and at once collected registration.
func (f *front) registerMisses(pending []taint.Taint) error {
	r := regs.Get().(*Registration)
	blobs, err := marshalAll(r.list[:0], pending)
	if err == nil {
		f.Issue(r, pending, blobs)
		err = f.Collect(r)
	}
	clear(blobs)
	r.list = blobs[:0]
	regs.Put(r)
	return err
}

// LookupBatch implements Client.
func (f *front) LookupBatch(ids []uint32) ([]taint.Taint, error) { return f.LookupInto(nil, ids) }

// LookupInto implements Client: the memo is split once and the distinct
// misses go to the transport in one call.
func (f *front) LookupInto(ts []taint.Taint, ids []uint32) ([]taint.Taint, error) {
	ts, missing := f.memo.splitBatch(ts, ids)
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

// stamp records minted Global IDs on their taints and in the memo, under
// one lock: how a transport adopts what the Taint Map answered a register.
func (f *front) stamp(ts []taint.Taint, ids []uint32) {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	for i, t := range ts {
		t.SetGlobalID(ids[i])
		f.memo.putLocked(ids[i], t, anyPage)
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
// acquisition: ts — the caller's when it has the room — holds the
// resolved taints (and empties for id 0), missing the distinct unresolved
// ids in first-seen order. A two-slot last-seen shortcut keeps fragmented
// streams that alternate between a couple of ids (the adversarial
// per-byte-label case) from paying a table walk per run. The miss list is
// deduplicated by scanning it while it is short — most often it is one
// id, and a map would be the larger half of what that miss allocates —
// and through a map beyond.
func (c *cache) splitBatch(ts []taint.Taint, ids []uint32) (_ []taint.Taint, missing []uint32) {
	const scanMax = 8
	if cap(ts) < len(ids) {
		ts = make([]taint.Taint, len(ids))
	}
	ts = ts[:len(ids)]
	clear(ts)
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

// issueRegister implements transport: with no round trip to overlap, the
// blobs go straight to the store, each locking only its shard.
func (c *LocalClient) issueRegister(r *Registration) {
	c.stamp(r.ts, c.store.RegisterBlobs(r.blobs))
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
