package taintmap

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// withIndexMask keeps only mask's bits of every index hash for the test,
// so equal fingerprints and crowded homes are the rule, not an accident.
func withIndexMask(t testing.TB, mask uint64) {
	old := indexMask
	indexMask = mask
	t.Cleanup(func() { indexMask = old })
}

var indexMasks = []struct {
	name string
	mask uint64
}{
	{"maphash", ^uint64(0)},
	{"3-bit", 7 << 32}, // one shard, eight fingerprints: every home is one of slots 0-7
	{"constant", 0},
}

// storeModel is what a Store must answer: for its own partition a blob ->
// id and an id -> blob map, for a replicated one an id -> blob map. A
// published seq never changes its blob, so an adopt of a taken seq for
// other bytes is refused.
type storeModel struct {
	base   uint32
	byBlob map[string]uint32
	byID   map[uint32]string
	next   uint32
}

func newStoreModel(base uint32) *storeModel {
	return &storeModel{base: base, byBlob: map[string]uint32{}, byID: map[uint32]string{}}
}

// adoptReplica reports whether a replicated partition's adopt is refused.
func (m *storeModel) adoptReplica(id uint32, blob string) (refused bool) {
	if held, taken := m.byID[id]; taken {
		return held != blob
	}
	m.byID[id] = blob
	return false
}

func (m *storeModel) register(blob string) uint32 {
	if id, ok := m.byBlob[blob]; ok {
		return id
	}
	m.next++
	id := m.base | m.next
	m.byBlob[blob], m.byID[id] = id, blob
	return id
}

// adopt reports whether the adopt is refused.
func (m *storeModel) adopt(id uint32, blob string) (refused bool) {
	if _, ok := m.byBlob[blob]; ok {
		return false
	}
	if _, taken := m.byID[id]; taken {
		return true
	}
	m.byBlob[blob], m.byID[id] = id, blob
	m.next = max(m.next, SeqOf(id))
	return false
}

// TestStoreIndexMatchesMapModel drives one random stream of RegisterBlob,
// own-partition and replica AdoptBlob, LookupBlob and Reset against the
// Store and the map model, across every growth boundary of the shards'
// tables and the arenas' chunks — blobs from empty to longer than a ref's
// length field — under the seeded hash and two that make collisions the rule.
func TestStoreIndexMatchesMapModel(t *testing.T) {
	const part, repPart = 3, 5
	for _, hm := range indexMasks {
		t.Run(hm.name, func(t *testing.T) {
			withIndexMask(t, hm.mask)
			rng := rand.New(rand.NewSource(25))
			pool := make([]string, 3000)
			for i := range pool {
				pool[i] = fmt.Sprintf("blob-%d-%s", i, string(make([]byte, i%7)))
			}
			pool[0], pool[1], pool[2] = "", string(make([]byte, maxChunk)), string(make([]byte, wholeChunk+1))
			s, err := NewPartitionStore(part)
			if err != nil {
				t.Fatal(err)
			}
			m, rep := newStoreModel(partitionBase(part)), newStoreModel(partitionBase(repPart))
			refusals, repRefusals, widest, full := 0, 0, 0, false
			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(10000); {
				case r < 2:
					for i := range s.shards {
						widest = max(widest, len(s.shards[i].slots))
					}
					full = full || arenaFull(s.table.Load())
					s.Reset()
					m, rep = newStoreModel(partitionBase(part)), newStoreModel(partitionBase(repPart))
				case r < 1000:
					blob := pool[rng.Intn(len(pool))]
					id := rep.base | uint32(1+rng.Intn(400))
					err := s.AdoptBlob(id, []byte(blob))
					if refused := rep.adoptReplica(id, blob); refused != (err != nil) {
						t.Fatalf("op %d: replica AdoptBlob(%#x, %q) = %v, model refuses: %v", op, id, blob, err, refused)
					}
					if err != nil {
						repRefusals++
					}
				case r < 1500:
					id := rep.base | uint32(rng.Intn(403))
					got, err := s.LookupBlob(id)
					want, ok := rep.byID[id]
					if ok != (err == nil) || string(got) != want {
						t.Fatalf("op %d: replica LookupBlob(%#x) = %q, %v; model %q, %v", op, id, got, err, want, ok)
					}
				case r < 5000:
					blob := pool[rng.Intn(len(pool))]
					if got, want := s.RegisterBlob([]byte(blob)), m.register(blob); got != want {
						t.Fatalf("op %d: RegisterBlob(%q) = %#x, model %#x", op, blob, got, want)
					}
				case r < 6500:
					blob := pool[rng.Intn(len(pool))]
					id := m.base | uint32(1+rng.Intn(int(m.next)+8))
					err := s.AdoptBlob(id, []byte(blob))
					if refused := m.adopt(id, blob); refused != (err != nil) {
						t.Fatalf("op %d: AdoptBlob(%#x, %q) = %v, model refuses: %v", op, id, blob, err, refused)
					}
					if err != nil {
						refusals++
					}
				default:
					id := m.base | uint32(rng.Intn(int(m.next)+3))
					got, err := s.LookupBlob(id)
					want, ok := m.byID[id]
					if ok != (err == nil) || string(got) != want {
						t.Fatalf("op %d: LookupBlob(%#x) = %q, %v; model %q, %v", op, id, got, err, want, ok)
					}
				}
				if got := s.Stats().GlobalTaints; got != int(m.next) {
					t.Fatalf("op %d: GlobalTaints = %d, model %d", op, got, m.next)
				}
			}
			for i := range s.shards {
				widest = max(widest, len(s.shards[i].slots))
			}
			for _, m := range []*storeModel{m, rep} {
				for id, want := range m.byID {
					if got, err := s.LookupBlob(id); err != nil || string(got) != want {
						t.Fatalf("LookupBlob(%#x) = %q, %v at the end; model %q", id, got, err, want)
					}
				}
			}
			if refusals == 0 || repRefusals == 0 {
				t.Fatalf("the stream adopted onto a taken seq %d times on the owned table, %d on the replica's", refusals, repRefusals)
			}
			if !full && !arenaFull(s.table.Load()) {
				t.Fatal("the owned arena never opened a chunk of the largest size")
			}
			if widest < 128 {
				t.Fatalf("the widest shard grew to %d slots, want three doublings at least", widest)
			}
		})
	}
}

// arenaFull reports whether t's arena opened a chunk of the largest size.
func arenaFull(t *pageTable) bool {
	if chunks := t.chunks.Load(); chunks != nil {
		for _, c := range *chunks {
			if len(c) == maxChunk {
				return true
			}
		}
	}
	return false
}

// TestStoreAdoptRefusesTakenSeq: an own-partition adopt landing on a seq
// minted for other bytes is refused, and the seq keeps its blob.
func TestStoreAdoptRefusesTakenSeq(t *testing.T) {
	s, err := NewPartitionStore(2)
	if err != nil {
		t.Fatal(err)
	}
	id := s.RegisterBlob([]byte("minted"))
	if err := s.AdoptBlob(id, []byte("other")); err == nil {
		t.Fatalf("adopt of %#x for other bytes accepted", id)
	}
	if blob, err := s.LookupBlob(id); err != nil || string(blob) != "minted" {
		t.Fatalf("LookupBlob(%#x) = %q, %v after the refused adopt", id, blob, err)
	}
	if again := s.RegisterBlob([]byte("other")); again == id {
		t.Fatalf("the refused bytes registered under %#x", id)
	}
	if err := s.AdoptBlob(id, []byte("minted")); err != nil {
		t.Fatalf("idempotent re-adopt: %v", err)
	}
}

// TestStoreIndexConcurrent registers overlapping blob sets from several
// goroutines while another heals seqs ahead of the mint cursor (run under
// -race by make race-taintmap): every blob ends with one id, every id with
// one blob.
func TestStoreIndexConcurrent(t *testing.T) {
	for _, hm := range indexMasks {
		t.Run(hm.name, func(t *testing.T) {
			withIndexMask(t, hm.mask)
			const goroutines, blobs = 4, 600
			s, err := NewPartitionStore(1)
			if err != nil {
				t.Fatal(err)
			}
			base := partitionBase(1)
			ids := make([][]uint32, goroutines)
			var wg sync.WaitGroup
			for g := range ids {
				ids[g] = make([]uint32, blobs)
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := range blobs {
						k := (i*7 + g*131) % blobs
						ids[g][k] = s.RegisterBlob(fmt.Appendf(nil, "shared-%d", k))
					}
				}(g)
			}
			healed := map[uint32]string{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range blobs / 4 {
					// Seqs the registrations are about to mint: some heals
					// land first, the rest are refused.
					id, blob := base|uint32(4*i+3), fmt.Sprintf("healed-%d", i)
					if s.AdoptBlob(id, []byte(blob)) == nil {
						healed[id] = blob
					}
				}
			}()
			wg.Wait()
			for id, want := range healed {
				if blob, err := s.LookupBlob(id); err != nil || string(blob) != want {
					t.Fatalf("healed %#x resolves to %q, %v, want %s", id, blob, err, want)
				}
			}
			seen := map[uint32]int{}
			for k := range blobs {
				id := ids[0][k]
				for g := range ids {
					if ids[g][k] != id {
						t.Fatalf("blob %d registered as %#x and %#x", k, id, ids[g][k])
					}
				}
				if j, dup := seen[id]; dup {
					t.Fatalf("blobs %d and %d share id %#x", j, k, id)
				}
				if blob, dup := healed[id]; dup {
					t.Fatalf("blob %d registered under %#x, healed for %s", k, id, blob)
				}
				seen[id] = k
				if blob, err := s.LookupBlob(id); err != nil || string(blob) != fmt.Sprintf("shared-%d", k) {
					t.Fatalf("LookupBlob(%#x) = %q, %v, want shared-%d", id, blob, err, k)
				}
			}
		})
	}
}

// arenaBlob is the blob stored under key k by the arena tests: from 0 to
// 600 bytes, so their tables cross chunk boundaries every few dozen
// blobs, and each names its key.
func arenaBlob(prefix string, k int) []byte {
	b := fmt.Appendf(nil, "%s-%d|", prefix, k)
	for len(b) < k*37%600 {
		b = append(b, byte(k))
	}
	return b
}

// TestArenaConcurrent registers on two goroutines and adopts into a
// replica table on a third while readers resolve whatever has been
// published, and replica ids just ahead of it, lock-free, and keep the
// views they got (run under -race by make race-taintmap): every view
// holds its blob's bytes when read and still does once every table has
// grown chunks past it.
func TestArenaConcurrent(t *testing.T) {
	const per, readers = 1500, 2
	s, err := NewPartitionStore(1)
	if err != nil {
		t.Fatal(err)
	}
	repBase := partitionBase(4)
	var ids [2][per]uint32
	var done [3]atomic.Int32 // blobs each writer has published
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				ids[g][i] = s.RegisterBlob(arenaBlob(fmt.Sprint("reg", g), i))
				done[g].Store(int32(i + 1))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range per {
			if err := s.AdoptBlob(repBase|uint32(i+1), arenaBlob("rep", i)); err != nil {
				t.Error(err)
				return
			}
			done[2].Store(int32(i + 1))
		}
	}()
	type held struct {
		view []byte
		want []byte
	}
	views := make([][]held, readers)
	var rwg sync.WaitGroup
	stop := make(chan struct{})
	for r := range readers {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := rng.Intn(3)
				n := int(done[w].Load())
				if w < 2 && n == 0 {
					continue
				}
				// A replica's ids are known before they are adopted, so
				// its reads also run ahead of the writer: an id not yet
				// published reads as unknown or as its whole blob.
				i := rng.Intn(n + 4*(w/2))
				id, want := repBase|uint32(i+1), arenaBlob("rep", i)
				if w < 2 {
					id, want = ids[w][i], arenaBlob(fmt.Sprint("reg", w), i)
				}
				view, ok := s.lookupView(id)
				if !ok && i >= n {
					continue
				}
				if !ok || !bytes.Equal(view, want) {
					t.Errorf("lookup of %#x = %q, %v, want %q", id, view, ok, want)
					return
				}
				if len(views[r]) < 4096 {
					views[r] = append(views[r], held{view, want})
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	for _, vs := range views {
		for _, h := range vs {
			if !bytes.Equal(h.view, h.want) {
				t.Fatalf("a view changed under later appends: %q, want %q", h.view, h.want)
			}
		}
	}
	reps := (*s.reps.Load())[4]
	for _, tab := range []*pageTable{s.table.Load(), reps} {
		if chunks := tab.chunks.Load(); chunks == nil || len(*chunks) < 20 {
			t.Fatal("a table's arena crossed too few chunk boundaries")
		}
	}
}

// TestArenaBlobSizes: a zero-length blob resolves to the empty blob; a
// blob larger than any chunk gets a chunk of its own, also one too long
// for a ref's length field, and the next blob opens a fresh one — on the
// owned table and a replica.
func TestArenaBlobSizes(t *testing.T) {
	s, err := NewPartitionStore(2)
	if err != nil {
		t.Fatal(err)
	}
	huge, giant := bytes.Repeat([]byte("h"), 3*maxChunk+5), bytes.Repeat([]byte("g"), wholeChunk+3)
	blobs := [][]byte{{}, []byte("small"), huge, []byte("after"), {}, bytes.Repeat([]byte("e"), maxChunk), giant, []byte("last")}
	for _, owned := range []bool{true, false} {
		var ids []uint32
		for i, b := range blobs {
			if owned {
				ids = append(ids, s.RegisterBlob(b))
				continue
			}
			id := partitionBase(7) | uint32(i+1)
			if err := s.AdoptBlob(id, b); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if owned && ids[4] != ids[0] {
			t.Fatalf("the empty blob registered as %#x and %#x", ids[0], ids[4])
		}
		for i, id := range ids {
			got, err := s.LookupBlob(id)
			if err != nil || got == nil || !bytes.Equal(got, blobs[i]) {
				t.Fatalf("owned %v: LookupBlob(%#x) = %d bytes, %v; want %d", owned, id, len(got), err, len(blobs[i]))
			}
		}
	}
	own := 0
	chunks := *s.table.Load().chunks.Load()
	for _, c := range chunks {
		if len(c) == len(huge) || len(c) == len(giant) {
			own++
		}
	}
	if own != 2 {
		t.Fatalf("%d chunks of their own for the two blobs larger than any chunk", own)
	}
}

// TestStoreResetKeepsViews: Reset drops the arena without reusing it, so
// a view a reader took before it still holds its bytes after the store
// refills, and a lookup racing it finds the old blob or nothing.
func TestStoreResetKeepsViews(t *testing.T) {
	s := NewStore()
	var ids []uint32
	var views [][]byte
	for i := range 300 {
		id := s.RegisterBlob(arenaBlob("old", i))
		view, ok := s.lookupView(id)
		if !ok {
			t.Fatalf("%#x unpublished", id)
		}
		ids, views = append(ids, id), append(views, view)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := range 20 {
			for i, id := range ids {
				if view, ok := s.lookupView(id); ok && !bytes.Equal(view, arenaBlob("old", i)) && !bytes.Equal(view, arenaBlob("new", i)) {
					t.Errorf("round %d: %#x resolves to %q across a Reset", round, id, view)
					return
				}
			}
		}
	}()
	s.Reset()
	for i := range 300 {
		if id := s.RegisterBlob(arenaBlob("new", i)); id != ids[i] {
			t.Fatalf("the refilled store minted %#x, want %#x", id, ids[i])
		}
	}
	wg.Wait()
	for i, v := range views {
		if !bytes.Equal(v, arenaBlob("old", i)) {
			t.Fatalf("view %d changed across Reset: %q", i, v)
		}
	}
}
