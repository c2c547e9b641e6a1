package taintmap

import (
	"fmt"
	"math/rand"
	"sync"
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

// storeModel is what an own-partition Store must answer: a blob -> id and
// an id -> blob map. A published seq never changes its blob, so an adopt
// of a taken seq for other bytes is refused.
type storeModel struct {
	base   uint32
	byBlob map[string]uint32
	byID   map[uint32]string
	next   uint32
}

func newStoreModel(base uint32) *storeModel {
	return &storeModel{base: base, byBlob: map[string]uint32{}, byID: map[uint32]string{}}
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
// own-partition AdoptBlob, LookupBlob and Reset against the Store and the
// map model, across every growth boundary of the shards' tables, under the
// seeded hash and two that make collisions the rule.
func TestStoreIndexMatchesMapModel(t *testing.T) {
	const part = 3
	for _, hm := range indexMasks {
		t.Run(hm.name, func(t *testing.T) {
			withIndexMask(t, hm.mask)
			rng := rand.New(rand.NewSource(25))
			pool := make([]string, 3000)
			for i := range pool {
				pool[i] = fmt.Sprintf("blob-%d-%s", i, string(make([]byte, i%7)))
			}
			s, err := NewPartitionStore(part)
			if err != nil {
				t.Fatal(err)
			}
			m := newStoreModel(partitionBase(part))
			refusals, widest := 0, 0
			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(10000); {
				case r < 2:
					for i := range s.shards {
						widest = max(widest, len(s.shards[i].slots))
					}
					s.Reset()
					m = newStoreModel(partitionBase(part))
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
			if refusals == 0 {
				t.Fatal("the stream never adopted onto a taken seq")
			}
			if widest < 128 {
				t.Fatalf("the widest shard grew to %d slots, want three doublings at least", widest)
			}
		})
	}
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
