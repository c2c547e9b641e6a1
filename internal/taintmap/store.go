// Package taintmap implements DisTA's Taint Map (DSN'22 §III-D-2): the
// independent component that assigns a unique Global ID to every taint
// that crosses node boundaries and serves the reverse mapping. With it,
// nodes ship a fixed-length Global ID next to every data byte instead of
// the (variable, >200-byte) serialized taint, solving both the bandwidth
// and the mismatched-length problems the paper identifies.
//
// The package provides the id-allocation Store, a request/response wire
// protocol usable over any stream (netsim conns or real TCP), a Server,
// and several Client implementations: Remote (multiplexed, over a
// connection), Resilient (reconnecting, degraded-capable), Cluster
// (partitioned + replicated across N servers) and Local (in-process,
// for tests and single-process simulations).
package taintmap

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// ErrUnknownGlobalID is returned by lookups of ids never allocated.
var ErrUnknownGlobalID = errors.New("taintmap: unknown global id")

// Stats describes a Store's usage, for the SDT-vs-SIM analysis (§V-F).
type Stats struct {
	GlobalTaints  int   // distinct taints registered (== highest id)
	Registrations int64 // total Register calls served, including duplicates
	Lookups       int64 // total Lookup calls served
}

// Sharding and page-table geometry. The blob->id direction is split
// across storeShards independently locked indexes (a register only
// contends with registers hashing to the same shard); the id->blob
// direction is a lock-free append-only page table so lookups never take
// any lock.
const (
	storeShards = 16

	pageBits = 10 // ids per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	// A table's blobs live in an arena of byte chunks that double from
	// minChunk to maxChunk; a blob larger than the chunk it would open
	// gets one of its own. A ref packs chunk index + 1 (0: unpublished),
	// offset and length — wholeChunk for a blob too long for the field,
	// which is longer than maxChunk and so alone in its chunk.
	minChunk   = 256
	maxChunk   = 16 << 10
	refLenBits = 16
	refOffBits = 16
	wholeChunk = 1<<refLenBits - 1
)

// The index is keyed on a per-process-seeded hash, not on hash32: every
// client computes hash32 alike to find a blob's ring owner, so one could
// register blobs colliding on it and make a shard's probes linear.
// indexMask keeps every bit; a test keeps a few, or none.
var (
	indexSeed = maphash.MakeSeed()
	indexMask = ^uint64(0)
)

// indexHash returns a blob's shard (low bits) and fingerprint (high half).
func indexHash(blob []byte) (shard int, fp uint32) {
	h := maphash.Bytes(indexSeed, blob) & indexMask
	return int(h & (storeShards - 1)), uint32(h >> 32)
}

// shard is one slice of the blob->id index: a linear-probing table, at
// most 3/4 full, of slots fp<<32 | id (0 = empty; no id is 0). A slot
// keeps no bytes — a fingerprint match is confirmed against the blob the
// page table interns under the id — and its home is fp & (len-1), so
// growth re-slots entries from what they store and never rehashes a blob.
type shard struct {
	mu    sync.Mutex
	slots []uint64
	n     int
}

// probe returns the id indexed for blob in the owned table t, or 0 and
// the empty slot the probe stopped at; with no t it matches nothing.
// Called with sh.mu held.
func (sh *shard) probe(t *pageTable, fp uint32, blob []byte) (id uint32, free int) {
	if len(sh.slots) == 0 {
		return 0, 0
	}
	mask := len(sh.slots) - 1
	for i := int(fp) & mask; ; i = (i + 1) & mask {
		e := sh.slots[i]
		if e == 0 {
			return 0, i
		}
		if uint32(e>>32) == fp && t != nil {
			if b, _ := t.lookup(SeqOf(uint32(e))); bytes.Equal(b, blob) {
				return uint32(e), i
			}
		}
	}
}

// insert indexes id under fp at free, the slot its probe stopped at,
// doubling the table first when it would pass 3/4 full; sh.mu held.
func (sh *shard) insert(fp, id uint32, free int) {
	if 4*(sh.n+1) > 3*len(sh.slots) {
		old := sh.slots
		sh.slots = make([]uint64, max(16, 2*len(old)))
		for _, e := range old {
			if e != 0 {
				_, i := sh.probe(nil, uint32(e>>32), nil)
				sh.slots[i] = e
			}
		}
		_, free = sh.probe(nil, fp, nil)
	}
	sh.slots[free] = uint64(fp)<<32 | uint64(id)
	sh.n++
}

// page is one fixed-size block of the id->blob table: a slot holds the
// ref of its seq's blob in the table's arena, 0 until published. A slot is
// published after its bytes are written and before the id is revealed to
// any caller, so a reader holding a legitimately obtained id always finds
// it set and its bytes whole.
type page [pageSize]atomic.Uint64

// pageTable is the lock-free seq->blob direction: a grow-only slice of
// page pointers and the append-only arena its refs point into, both of
// which readers load atomically and index without locking. Neither holds
// a pointer per blob, so the GC traces a chunk, not a blob: a blob costs
// its bytes and an 8-byte slot. growMu serializes every write — growth
// and publishing. It is shared by the Store's own partition and by the
// adopt-only replica tables a cluster server keeps for its predecessors.
type pageTable struct {
	pages  atomic.Pointer[[]*page]
	chunks atomic.Pointer[[][]byte]
	growMu sync.Mutex
	all    [][]byte      // growMu: every chunk, appended to in place past each reader's length
	cur    []byte        // growMu: the chunk being filled
	used   int           // growMu: the bytes of cur taken
	next   atomic.Uint32 // highest seq published (for owners: last allocated)
}

// publish puts blob under seq and lifts next to it, unless seq holds a
// blob already, which it returns instead, appending nothing.
func (t *pageTable) publish(seq uint32, blob []byte) (held []byte, taken bool) {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	pi := int(seq) >> pageBits
	pages := t.pages.Load()
	if pages == nil || pi >= len(*pages) {
		var grown []*page
		if pages != nil {
			grown = append(grown, *pages...)
		}
		for pi >= len(grown) {
			grown = append(grown, new(page))
		}
		t.pages.Store(&grown)
		pages = &grown
	}
	slot := &(*pages)[pi][int(seq)&pageMask]
	if r := slot.Load(); r != 0 {
		return t.view(r), true
	}
	slot.Store(t.append(blob))
	t.raise(seq)
	return nil, false
}

// append copies blob into the arena and returns its ref; growMu held.
func (t *pageTable) append(blob []byte) uint64 {
	if len(blob) >= len(t.cur)-t.used {
		t.cur, t.used = make([]byte, max(min(2*len(t.cur), maxChunk), minChunk, len(blob))), 0
		t.all = append(t.all, t.cur)
		all := t.all
		t.chunks.Store(&all)
	}
	off := t.used
	t.used += copy(t.cur[off:], blob)
	return uint64(len(t.all))<<(refOffBits+refLenBits) | uint64(off)<<refLenBits | min(uint64(len(blob)), wholeChunk)
}

// view returns the bytes r refers to, in place.
func (t *pageTable) view(r uint64) []byte {
	n, off := int(r&wholeChunk), int(r>>refLenBits&(1<<refOffBits-1))
	chunk := (*t.chunks.Load())[r>>(refOffBits+refLenBits)-1]
	if n == wholeChunk {
		return chunk
	}
	return chunk[off : off+n : off+n]
}

// lookup resolves seq to a view of its blob without locking or copying.
// ok is false for seqs never published.
func (t *pageTable) lookup(seq uint32) ([]byte, bool) {
	pi, pages := int(seq)>>pageBits, t.pages.Load()
	if pages == nil || pi >= len(*pages) {
		return nil, false
	}
	r := (*pages)[pi][int(seq)&pageMask].Load()
	if r == 0 {
		return nil, false
	}
	return t.view(r), true // the chunks loaded after r include its own
}

// raise lifts next to at least seq, so an owner healed from replica
// pushes never re-mints an adopted sequence number.
func (t *pageTable) raise(seq uint32) {
	for {
		n := t.next.Load()
		if seq <= n || t.next.CompareAndSwap(n, seq) {
			return
		}
	}
}

// Store is the Taint Map's state: serialized-taint blob <-> Global ID.
// Ids start at 1; 0 means "untainted" on the wire. Safe for concurrent
// use; lookups are lock-free.
//
// A Store owns exactly one partition of the Global-ID space (partition
// 0 for the standalone NewStore, so pre-cluster deployments are a
// one-partition cluster). Ids it mints are partitionBase|seq; the owned
// page table interns each blob once and the shards index it by content.
// A cluster server's Store additionally holds adopt-only replica tables
// for the partitions it replicates: those serve the id->blob direction
// only — the blob->id index is the owning partition's job, because
// registration always routes to the owner — which makes accepting a
// replicated entry several times cheaper than registering one (one
// atomic publish instead of shard lock + probe + id allocation).
type Store struct {
	base   uint32 // partitionBase(part); 0 for standalone stores
	shards [storeShards]shard
	table  atomic.Pointer[pageTable] // the owned partition's id->blob direction

	// reps holds adopt-only replica tables, keyed by partition index.
	// The map itself is copy-on-write behind an atomic pointer so the
	// lookup hot path never takes a lock; repMu serializes writers.
	reps  atomic.Pointer[map[uint32]*pageTable]
	repMu sync.Mutex

	registrations atomic.Int64
	lookups       atomic.Int64
}

// NewStore returns an empty standalone Store (partition 0).
func NewStore() *Store {
	s := &Store{}
	s.table.Store(new(pageTable))
	return s
}

// NewPartitionStore returns an empty Store minting ids in the given
// partition's slice of the Global-ID space. Partition 0 is identical to
// NewStore.
func NewPartitionStore(part uint32) (*Store, error) {
	if err := checkPartition(part); err != nil {
		return nil, err
	}
	s := NewStore()
	s.base = partitionBase(part)
	return s, nil
}

// Partition returns the partition index this store mints ids in.
func (s *Store) Partition() uint32 { return s.base >> partitionShift }

// RegisterBlob returns the Global ID for the given serialized taint,
// allocating a fresh id on first sight. Registration is idempotent: the
// same blob always maps to the same id.
func (s *Store) RegisterBlob(blob []byte) uint32 {
	id, _ := s.registerBlob(blob)
	return id
}

// registerBlob is RegisterBlob reporting whether the id was minted by
// this call — the cluster server replicates only fresh registrations.
func (s *Store) registerBlob(blob []byte) (id uint32, fresh bool) {
	s.registrations.Add(1)
	si, fp := indexHash(blob)
	sh := &s.shards[si]
	sh.mu.Lock()
	t := s.table.Load()
	id, free := sh.probe(t, fp, blob)
	if id != 0 {
		sh.mu.Unlock()
		return id, false
	}
	for taken := true; taken; {
		id = s.base | t.next.Add(1) // skipping seqs a healed owner adopted
		_, taken = t.publish(SeqOf(id), blob)
	}
	sh.insert(fp, id, free) // where the one probe stopped
	sh.mu.Unlock()
	return id, true
}

// RegisterBlobs registers every blob, returning the parallel id slice —
// the server half of the batch protocol op. With the sharded store each
// blob only locks its own shard.
func (s *Store) RegisterBlobs(blobs [][]byte) []uint32 {
	ids := make([]uint32, len(blobs))
	for i, blob := range blobs {
		ids[i] = s.RegisterBlob(blob)
	}
	return ids
}

// AdoptBlob installs an id->blob mapping minted elsewhere: the receiving
// half of cluster replication and read-repair. Ids of this store's own
// partition heal its table directly (and raise the allocation cursor so
// a healed owner never re-mints an adopted seq); foreign-partition ids
// land in an adopt-only replica table serving lookups. Adoption is
// idempotent and a re-adopt stores nothing. The scoped bit (a
// stream-scoped id never leaves its stream), a zero sequence and a seq holding
// other bytes (a published seq never changes its blob, on an owner or a
// replica) are rejected.
func (s *Store) AdoptBlob(id uint32, blob []byte) error {
	if IsStreamScoped(id) {
		return fmt.Errorf("taintmap: adopt of stream-scoped id %#x", id)
	}
	seq := SeqOf(id)
	if seq == 0 {
		return fmt.Errorf("taintmap: adopt of id %d with zero sequence", id)
	}
	var held []byte
	taken := false
	if id&^seqMask == s.base {
		// Our own partition: heal the index too, so a restarted
		// owner keeps registration idempotent for healed content.
		si, fp := indexHash(blob)
		sh := &s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		t := s.table.Load()
		if known, free := sh.probe(t, fp, blob); known == 0 {
			if held, taken = t.publish(seq, blob); !taken {
				sh.insert(fp, id, free)
			}
		}
	} else {
		held, taken = s.repTable(PartitionOf(id)).publish(seq, blob)
	}
	if taken && !bytes.Equal(held, blob) {
		return fmt.Errorf("taintmap: adopt of id %d: its sequence holds other bytes", id)
	}
	return nil
}

// repTable returns (creating if needed) the adopt-only replica table
// for a foreign partition. The map is copy-on-write: readers load it
// atomically, writers clone under repMu.
func (s *Store) repTable(part uint32) *pageTable {
	if m := s.reps.Load(); m != nil {
		if t, ok := (*m)[part]; ok {
			return t
		}
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	old := s.reps.Load()
	if old != nil {
		if t, ok := (*old)[part]; ok {
			return t
		}
	}
	grown := make(map[uint32]*pageTable)
	if old != nil {
		for k, v := range *old {
			grown[k] = v
		}
	}
	t := &pageTable{}
	grown[part] = t
	s.reps.Store(&grown)
	return t
}

// Replicated reports how many entries of a foreign partition this store
// holds (0 when it replicates none) — the read-repair tests' probe.
func (s *Store) Replicated(part uint32) int {
	m := s.reps.Load()
	if m == nil {
		return 0
	}
	t, ok := (*m)[part]
	if !ok {
		return 0
	}
	return int(t.next.Load())
}

// lookupView resolves id to a view of its blob in the arena, without
// locking or copying; the view stays valid however the store changes.
// ok is false for ids never published here.
func (s *Store) lookupView(id uint32) ([]byte, bool) {
	s.lookups.Add(1)
	if id&^seqMask == s.base {
		return s.table.Load().lookup(SeqOf(id))
	}
	if IsStreamScoped(id) {
		return nil, false
	}
	m := s.reps.Load()
	if m == nil {
		return nil, false
	}
	t, ok := (*m)[PartitionOf(id)]
	if !ok {
		return nil, false
	}
	return t.lookup(SeqOf(id))
}

// LookupBlob returns the serialized taint registered under id. The
// returned slice is the caller's to keep. Lock-free.
func (s *Store) LookupBlob(id uint32) ([]byte, error) {
	blob, ok := s.lookupView(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownGlobalID, id)
	}
	return bytes.Clone(blob), nil
}

// LookupBlobs resolves every id, failing on the first unknown id — the
// server half of the batch protocol op. Lock-free.
func (s *Store) LookupBlobs(ids []uint32) ([][]byte, error) {
	blobs := make([][]byte, len(ids))
	for i, id := range ids {
		blob, err := s.LookupBlob(id)
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return blobs, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		GlobalTaints:  int(s.table.Load().next.Load()),
		Registrations: s.registrations.Load(),
		Lookups:       s.lookups.Load(),
	}
}

// Reset drops all state, returning the store to empty. Concurrent
// readers see either the old or the new (empty) table, and the views
// they hold stay whole: an arena is dropped, never reused. All shard
// locks are held first, which quiesces every owned-table writer.
func (s *Store) Reset() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	s.table.Store(new(pageTable))
	s.repMu.Lock()
	s.reps.Store(nil)
	s.repMu.Unlock()
	for i := range s.shards {
		s.shards[i].slots, s.shards[i].n = nil, 0
	}
	s.registrations.Store(0)
	s.lookups.Store(0)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}
