package taintmap

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// memoModel is the memo's contract as a plain map: what an id first
// resolved to stays; id 0, a stream-scoped id and the empty taint are
// never stored.
type memoModel map[uint32]taint.Taint

func (m memoModel) put(id uint32, t taint.Taint) {
	if _, known := m[id]; id != 0 && !IsStreamScoped(id) && !t.Empty() && !known {
		m[id] = t
	}
}

func (m memoModel) splitBatch(ids []uint32) (ts []taint.Taint, missing []uint32) {
	ts = make([]taint.Taint, len(ids))
	for i, id := range ids {
		if t, ok := m[id]; ok {
			ts[i] = t
		} else if id != 0 && !slices.Contains(missing, id) {
			missing = append(missing, id)
		}
	}
	return ts, missing
}

// TestMemoMatchesMapModel drives the page-table memo and the map model
// with one random put/get/splitBatch stream — all 16 partitions, Global
// and stream-scoped ids, seqs on both sides of page boundaries and at the
// end of the sequence space, repeats, id 0, empty taints — and compares
// every answer.
func TestMemoMatchesMapModel(t *testing.T) {
	tree := taint.NewTree()
	taints := make([]taint.Taint, 48) // [0] stays empty
	for i := 1; i < len(taints); i++ {
		taints[i] = tree.NewSource(fmt.Sprintf("t%d", i), "app:1")
	}
	const pg = MemoPageLen
	edges := []uint32{0, 1, 2, pg - 1, pg, pg + 1, 2*pg - 1, 2 * pg, 7*pg + 3}
	ends := []uint32{seqMask, seqMask - 1, seqMask - pg, seqMask - pg + 1, seqMask >> 1}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c cache
		model := memoModel{}
		var used []uint32
		randID := func() uint32 {
			group := uint32(rng.Intn(2 * MaxPartitions)) // the scoped bit is the group's top bit
			var seq uint32
			switch k := rng.Intn(10); {
			case k < 3 && len(used) > 0:
				return used[rng.Intn(len(used))]
			case k < 6:
				seq = edges[rng.Intn(len(edges))]
			case k < 7 && group == 5: // a far seq costs its group a 64 MiB directory: one group takes them
				seq = ends[rng.Intn(len(ends))]
			default:
				seq = uint32(rng.Intn(40 * pg))
			}
			id := group<<partitionShift | seq
			used = append(used, id)
			return id
		}
		for step := 0; step < 4000; step++ {
			switch id := randID(); rng.Intn(4) {
			case 0, 1:
				tt := taints[rng.Intn(len(taints))]
				c.put(id, tt)
				model.put(id, tt)
			case 2:
				got, ok := c.get(id)
				if want, known := model[id]; ok != known || got != want {
					t.Fatalf("seed %d step %d: get(%#x) = %v, %v; the model has %v, %v", seed, step, id, got, ok, want, known)
				}
			default:
				ids := make([]uint32, rng.Intn(24))
				for i := range ids {
					ids[i] = randID()
				}
				ts, missing := c.splitBatch(nil, ids)
				wantTs, wantMissing := model.splitBatch(ids)
				if !slices.Equal(ts, wantTs) || !slices.Equal(missing, wantMissing) {
					t.Fatalf("seed %d step %d: splitBatch(%#x) = %v, %#x; the model says %v, %#x", seed, step, ids, ts, missing, wantTs, wantMissing)
				}
			}
		}
		for id, want := range model {
			if got, ok := c.get(id); !ok || got != want {
				t.Fatalf("seed %d: get(%#x) = %v, %v at the end; the model has %v", seed, id, got, ok, want)
			}
		}
		c.reset()
		if _, ok := c.get(used[0]); ok || c.groups != nil {
			t.Fatalf("seed %d: a reset memo still answers", seed)
		}
	}
}

// footprint counts the memo's pages and the bytes it holds: pages,
// directories and the group table.
func (c *cache) footprint() (pages int, bytes uintptr) {
	bytes = uintptr(cap(c.groups)) * unsafe.Sizeof(c.groups[0])
	for _, dir := range c.groups {
		bytes += uintptr(cap(dir)) * unsafe.Sizeof(dir[0])
		for _, p := range dir {
			if p != nil {
				pages++
			}
		}
	}
	return pages, bytes + uintptr(pages)*unsafe.Sizeof(memoPage{})
}

// TestMemoFootprintBound states the memo's memory bound (DESIGN §8), in
// the types' own sizes (a 128 B page is its own size class): at most 8 B
// per id below the highest seq seen in a partition plus a partial page,
// and a directory of a pointer per page (twice that while append's slack
// lasts). It pins bytes per id seen where the clients are: every id, one
// in two (the sparsest client of the five SIM systems), one in fifty (a
// node of a large cluster, the page table's bad side) and one in a
// thousand. A client pays a page per id it sees at most, never one it
// does not touch; an empty memo nothing.
func TestMemoFootprintBound(t *testing.T) {
	if unsafe.Sizeof(memoPage{}) != 8*MemoPageLen {
		t.Fatalf("a memo slot is %d B, want a pointer", unsafe.Sizeof(memoPage{})/MemoPageLen)
	}
	var empty cache
	empty.get(5)
	empty.splitBatch(nil, []uint32{5, 9})
	empty.put(0, taint.NewTree().NewSource("zero", "app:1"))
	empty.put(5, taint.Taint{})
	if empty.groups != nil {
		t.Fatal("a memo nothing was put in holds memory")
	}
	tt := taint.NewTree().NewSource("x", "app:1")
	for _, tc := range []struct {
		stride    uint32
		perIDSeen uintptr // bytes
	}{{1, 9}, {2, 18}, {50, 180}, {1000, 800}} {
		const seen = 20_000
		var c cache
		for _, base := range []uint32{partitionBase(2), partitionBase(9)} {
			for k := uint32(1); k <= seen; k++ {
				c.put(base|k*tc.stride, tt)
			}
		}
		highest := uintptr(seen * tc.stride)
		perPartition := 8*(highest+MemoPageLen) + 2*8*(highest/MemoPageLen+1)
		pages, bytes := c.footprint()
		bytes -= uintptr(cap(c.groups)) * unsafe.Sizeof(c.groups[0])
		if bytes > 2*perPartition {
			t.Errorf("one id in %d: the memo holds %d B, bound %d", tc.stride, bytes, 2*perPartition)
		}
		if limit := 2 * min(seen, int(highest/MemoPageLen)+1); pages > limit {
			t.Errorf("one id in %d: %d pages for %d ids below seq %d", tc.stride, pages, 2*seen, highest)
		}
		t.Logf("one id in %d: %d B per id seen", tc.stride, bytes/(2*seen))
		if got := bytes / (2 * seen); got > tc.perIDSeen {
			t.Errorf("one id in %d: %d B per id seen, want <= %d", tc.stride, got, tc.perIDSeen)
		}
	}
}

// TestLearnIsBounded: a peer chooses the ids Learn memoises, so what one
// definitions unit can pin is bounded by its entries — a page and
// peerPages directory slots (append's slack doubled) each — wherever its
// ids point: every partition, the far end of the sequence space, one id a
// page. The parent's map held 47 B an entry for the same unit. An honest
// peer defines ids just minted: a node that sees one id in 60 of a
// partition still memoises every one of them, and one that joins late is
// caught up by its first lookup, which the Taint Map answers.
func TestLearnIsBounded(t *testing.T) {
	tree := taint.NewTree()
	blob, err := taint.MarshalTaint(tree.NewSource("", ""))
	if err != nil {
		t.Fatal(err)
	}
	const entries = 64 << 10 / 14 // a definitions unit of minimal entries
	const perEntry = unsafe.Sizeof(memoPage{}) + 2*peerPages*8
	for name, idOf := range map[string]func(k uint32) uint32{
		"far":     func(k uint32) uint32 { return partitionBase(k%MaxPartitions) | (seqMask - k) },
		"strided": func(k uint32) uint32 { return partitionBase(k%MaxPartitions) | (1+k/MaxPartitions)*MemoPageLen },
		"walking": func(k uint32) uint32 { return partitionBase(3) | (1+k)*peerPages*MemoPageLen - 1 },
	} {
		n := front{tree: tree, memo: &cache{}}
		ids, blobs := make([]uint32, entries), make([][]byte, entries)
		for k := range ids {
			ids[k], blobs[k] = idOf(uint32(k)), blob
		}
		if err := n.Learn(ids, blobs); err != nil {
			t.Fatal(err)
		}
		_, bytes := n.memo.footprint()
		t.Logf("%s: %d entries pin %d B", name, entries, bytes)
		if limit := uintptr(cap(n.memo.groups))*unsafe.Sizeof(n.memo.groups[0]) + entries*perEntry; bytes > limit {
			t.Errorf("%s: a unit of %d entries pins %d B, bound %d", name, entries, bytes, limit)
		}
		if _, ok := n.memo.get(partitionBase(1) | (seqMask - 1)); ok {
			t.Errorf("%s: an id 2^27 past anything this node has seen is memoised on a peer's word", name)
		}
	}

	n := front{tree: tree, memo: &cache{}}
	one := func(seq uint32) ([]uint32, [][]byte) { return []uint32{partitionBase(7) | seq}, [][]byte{blob} }
	late := uint32(1_000_003)
	n.Learn(one(late))
	if _, ok := n.memo.get(partitionBase(7) | late); ok {
		t.Fatal("a cold memo took a peer's word for an id a million seqs in")
	}
	if _, err := n.adopt(nil, []uint32{partitionBase(7) | late}, [][]byte{blob}, false); err != nil {
		t.Fatal(err)
	}
	for seq := late + 60; seq < late+6000; seq += 60 {
		n.Learn(one(seq))
		if _, ok := n.memo.get(partitionBase(7) | seq); !ok {
			t.Fatalf("seq %d, 60 past the last one seen, is not memoised", seq)
		}
	}
}

// TestEmptyTaintUnderAnID: nothing registers the empty taint, but a store
// can hold its blob under a non-zero id. Every client resolves that id to
// the empty taint, as it did when the memo kept it; now it is asked for
// again each time.
func TestEmptyTaintUnderAnID(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	e := newClusterEnv(t, 3, 2)
	remote, err := DialSim(n, "tm:1", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	resilient := dialOne("tm:1", simDialer(n, "app:2"), taint.NewTree(), fastOpts())
	tree := taint.NewTree()
	for name, tc := range map[string]struct {
		c     Client
		store *Store
	}{
		"Local":     {NewLocalClient(srv.Store(), tree), srv.Store()},
		"Remote":    {remote, srv.Store()},
		"Resilient": {resilient, srv.Store()},
		"Cluster":   {e.client("app:1", ClusterOptions{}), e.stores[1]},
	} {
		defer tc.c.Close()
		none := tc.store.RegisterBlob([]byte{0, 0})
		some := tc.store.RegisterBlob([]byte{0, 1, 0, 1, 'v', 0, 1, 'l'})
		for round := 0; round < 2; round++ {
			if got, err := tc.c.Lookup(none); err != nil || !got.Empty() {
				t.Fatalf("%s: Lookup of the empty taint's id = %v, %v", name, got, err)
			}
			ts, err := tc.c.LookupBatch([]uint32{some, none, 0, none})
			if err != nil || ts[0].Empty() || !ts[1].Empty() || !ts[2].Empty() || !ts[3].Empty() {
				t.Fatalf("%s: LookupBatch = %v, %v", name, ts, err)
			}
		}
	}
}

// TestMemoConcurrent: 8 goroutines memoise the same ids, each with a
// taint of its own, while reading them back. Whatever answer an id gave
// first is the answer it keeps.
func TestMemoConcurrent(t *testing.T) {
	const workers = 8
	ids := make([]uint32, 100*MemoPageLen)
	for i := range ids {
		ids[i] = partitionBase(uint32(i%6)) | uint32(i+1)
	}
	tree := taint.NewTree()
	var c cache
	first := make([][]taint.Taint, workers)
	var wg sync.WaitGroup
	for w := range first {
		first[w] = make([]taint.Taint, len(ids))
		mine := tree.NewSource(fmt.Sprintf("w%d", w), "app:1")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, id := range ids {
				c.put(id, mine)
				first[w][i], _ = c.get(id)
			}
		}()
	}
	wg.Wait()
	for i, id := range ids {
		for w := range first {
			if got, ok := c.get(id); !ok || got != first[w][i] {
				t.Fatalf("id %#x answered %v to worker %d and %v, %v now", id, first[w][i], w, got, ok)
			}
		}
	}
}

// TestMemoAllocations: an id whose page exists is memoised and found
// without allocating.
func TestMemoAllocations(t *testing.T) {
	var c cache
	tt := taint.NewTree().NewSource("x", "app:1")
	base := partitionBase(3) | 5*MemoPageLen
	c.put(base, tt)
	next := base
	if got := testing.AllocsPerRun(MemoPageLen-2, func() {
		next++
		c.put(next, tt)
		if _, ok := c.get(next); !ok {
			t.Fatal("an id just put is not found")
		}
	}); got != 0 {
		t.Fatalf("put + get on an existing page: %v allocs, want 0", got)
	}
}
