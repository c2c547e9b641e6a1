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
	"errors"
	"fmt"
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
// across storeShards independently locked maps (a register only
// contends with registers hashing to the same shard); the id->blob
// direction is a lock-free append-only page table so lookups never take
// any lock.
const (
	storeShards = 16

	pageBits = 10 // ids per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// shard is one slice of the blob->id map.
type shard struct {
	mu     sync.Mutex
	byBlob map[string]uint32
}

// page is one fixed-size block of the id->blob table. Slots are
// published with an atomic store after the id is allocated and before
// the id is revealed to any caller, so a reader holding a legitimately
// obtained id always finds its slot non-nil.
type page [pageSize]atomic.Pointer[string]

// pageTable is the lock-free seq->blob direction: a grow-only slice of
// page pointers readers load atomically and index without locking.
// growMu serializes growth (and reset, which swaps the whole table).
// It is shared by the Store's own partition and by the adopt-only
// replica tables a cluster server keeps for its predecessors.
type pageTable struct {
	pages  atomic.Pointer[[]*page]
	growMu sync.Mutex
	next   atomic.Uint32 // highest seq published (for owners: last allocated)
}

// publish installs seq->key into the table, growing it if needed. Must
// complete before the id escapes to any caller.
func (t *pageTable) publish(seq uint32, key *string) {
	pi := int(seq) >> pageBits
	pages := t.pages.Load()
	if pages == nil || pi >= len(*pages) {
		t.growMu.Lock()
		pages = t.pages.Load()
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
		t.growMu.Unlock()
	}
	(*pages)[pi][int(seq)&pageMask].Store(key)
}

// lookup resolves seq to its interned blob string without locking or
// copying. ok is false for seqs never published.
func (t *pageTable) lookup(seq uint32) (string, bool) {
	pages := t.pages.Load()
	if pages == nil {
		return "", false
	}
	pi := int(seq) >> pageBits
	if pi >= len(*pages) {
		return "", false
	}
	p := (*pages)[pi][int(seq)&pageMask].Load()
	if p == nil {
		return "", false
	}
	return *p, true
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

// reset drops the table back to empty.
func (t *pageTable) reset() {
	t.growMu.Lock()
	t.pages.Store(nil)
	t.next.Store(0)
	t.growMu.Unlock()
}

// Store is the Taint Map's state: serialized-taint blob <-> Global ID.
// Ids start at 1; 0 means "untainted" on the wire. Safe for concurrent
// use; lookups are lock-free.
//
// A Store owns exactly one partition of the Global-ID space (partition
// 0 for the standalone NewStore, so pre-cluster deployments are a
// one-partition cluster). Ids it mints are partitionBase|seq. A cluster
// server's Store additionally holds adopt-only replica tables for the
// partitions it replicates: those serve the id->blob direction only —
// the blob->id dedup map is the owning partition's job, because
// registration always routes to the owner — which makes accepting a
// replicated entry several times cheaper than registering one (one
// atomic publish instead of shard lock + map insert + id allocation).
type Store struct {
	base   uint32 // partitionBase(part); 0 for standalone stores
	shards [storeShards]shard
	table  pageTable // the owned partition's id->blob direction

	// reps holds adopt-only replica tables, keyed by partition index.
	// The map itself is copy-on-write behind an atomic pointer so the
	// lookup hot path never takes a lock; repMu serializes writers.
	reps  atomic.Pointer[map[uint32]*pageTable]
	repMu sync.Mutex

	registrations atomic.Int64
	lookups       atomic.Int64
	adopted       atomic.Int64
}

// NewStore returns an empty standalone Store (partition 0).
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].byBlob = make(map[string]uint32)
	}
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

// hash32 is FNV-1a over the blob — the content hash that picks both the
// dedup shard and (in a cluster) the owning partition on the ring.
func hash32(blob []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range blob {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// shardOf picks the shard for a blob.
func shardOf(blob []byte) uint32 {
	return hash32(blob) & (storeShards - 1)
}

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
	sh := &s.shards[shardOf(blob)]
	sh.mu.Lock()
	if id, ok := sh.byBlob[string(blob)]; ok { // zero-copy map probe
		sh.mu.Unlock()
		return id, false
	}
	// The one copy of the blob; the shard's key and the page table's
	// slot share it.
	key := string(blob)
	seq := s.table.next.Add(1)
	id = s.base | seq
	s.table.publish(seq, &key)
	sh.byBlob[key] = id
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
// idempotent. The provisional bit and a zero sequence are rejected —
// provisional ids must never cross processes.
func (s *Store) AdoptBlob(id uint32, blob []byte) error {
	if id&provisionalBit != 0 {
		return fmt.Errorf("taintmap: adopt of provisional id %d", id)
	}
	seq := SeqOf(id)
	if seq == 0 {
		return fmt.Errorf("taintmap: adopt of id %d with zero sequence", id)
	}
	s.adopted.Add(1)
	if id&^seqMask == s.base {
		// Our own partition: heal the dedup map too, so a restarted
		// owner keeps registration idempotent for healed content.
		sh := &s.shards[shardOf(blob)]
		sh.mu.Lock()
		if _, ok := sh.byBlob[string(blob)]; !ok {
			key := string(blob)
			s.table.publish(seq, &key)
			sh.byBlob[key] = id
			s.table.raise(seq)
		}
		sh.mu.Unlock()
		return nil
	}
	t := s.repTable(PartitionOf(id))
	key := string(blob)
	t.publish(seq, &key)
	t.raise(seq)
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

// lookupStr resolves id to its interned blob string without locking or
// copying. Own-partition ids hit the owned table; foreign ids fall to
// the replica tables. ok is false for ids never published here.
func (s *Store) lookupStr(id uint32) (string, bool) {
	s.lookups.Add(1)
	if id&^seqMask == s.base {
		return s.table.lookup(SeqOf(id))
	}
	if id&provisionalBit != 0 {
		return "", false
	}
	m := s.reps.Load()
	if m == nil {
		return "", false
	}
	t, ok := (*m)[PartitionOf(id)]
	if !ok {
		return "", false
	}
	return t.lookup(SeqOf(id))
}

// LookupBlob returns the serialized taint registered under id. The
// returned slice is the caller's to keep. Lock-free.
func (s *Store) LookupBlob(id uint32) ([]byte, error) {
	blob, ok := s.lookupStr(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownGlobalID, id)
	}
	return []byte(blob), nil
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
		GlobalTaints:  int(s.table.next.Load()),
		Registrations: s.registrations.Load(),
		Lookups:       s.lookups.Load(),
	}
}

// Adopted returns how many replicated/read-repaired entries this store
// has accepted (including idempotent re-adoptions).
func (s *Store) Adopted() int64 { return s.adopted.Load() }

// Reset drops all state, returning the store to empty. Concurrent
// readers see either the old or the new (empty) table. Lock order
// matches RegisterBlob (shard, then growMu): all shard locks are held
// first, which also quiesces every page-table writer.
func (s *Store) Reset() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	s.table.reset()
	s.repMu.Lock()
	s.reps.Store(nil)
	s.repMu.Unlock()
	for i := range s.shards {
		s.shards[i].byBlob = make(map[string]uint32)
	}
	s.registrations.Store(0)
	s.lookups.Store(0)
	s.adopted.Store(0)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}
