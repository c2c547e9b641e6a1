package taint

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// withMask keeps only mask's bits of every tag hash for the test: three
// bits make equal hashes of distinct keys the rule, not a 2^-64 accident.
func withMask(t testing.TB, mask uint64) {
	old := hashMask
	hashMask = mask
	t.Cleanup(func() { hashMask = old })
}

var masks = []struct {
	name string
	mask uint64
}{
	{"maphash", ^uint64(0)},
	{"3-bit", 7},
	{"constant", 0},
}

// siblingKeys returns n distinct keys, adversarial in the ways a key pair
// can be: values shared between LocalIDs, the two strings swapped, and a
// boundary that moves between them ("ab"+"c" against "a"+"bc").
func siblingKeys(n int) []TagKey {
	keys := make([]TagKey, 0, n)
	for i := 0; len(keys) < n; i++ {
		v, l, l2 := fmt.Sprintf("v%d", i), fmt.Sprintf("10.0.0.%d:7", i%3), fmt.Sprintf("10.0.0.%d:7", (i+1)%3)
		keys = append(keys, TagKey{v, l}, TagKey{v, l2}, TagKey{l, v}, TagKey{v + l[:1], l[1:]})
	}
	return keys[:n]
}

// blobOf is the wire form of keys, written without going through a tree.
func blobOf(keys ...TagKey) []byte {
	blob := []byte{byte(len(keys) >> 8), byte(len(keys))}
	for _, k := range keys {
		for _, s := range []string{k.Value, k.LocalID} {
			blob = append(blob, byte(len(s)>>8), byte(len(s)))
			blob = append(blob, s...)
		}
	}
	return blob
}

// TestChildrenListToMap: distinct keys get distinct nodes and equal keys
// the same node, through the string walk and the byte walk alike, on
// both sides of the list -> hub table transition and whatever the hash
// does.
func TestChildrenListToMap(t *testing.T) {
	for _, f := range masks {
		for _, fan := range []int{1, listMax - 1, listMax, listMax + 1, 1000} {
			t.Run(fmt.Sprintf("%s/%d", f.name, fan), func(t *testing.T) {
				withMask(t, f.mask)
				tr := NewTree()
				hub := []TagKey{{"hub", "10.0.0.1:7"}}
				for _, under := range [][]TagKey{nil, hub} {
					keys := siblingKeys(fan)
					nodes := make(map[*node]TagKey, fan)
					for i, k := range keys {
						var got Taint
						if i%2 == 0 {
							got = tr.FromKeys(append(under[:len(under):len(under)], k))
						} else {
							var err error
							if got, err = tr.UnmarshalTaint(blobOf(append(under[:len(under):len(under)], k)...)); err != nil {
								t.Fatal(err)
							}
						}
						if prev, dup := nodes[got.n]; dup {
							t.Fatalf("keys %v and %v share a node", prev, k)
						}
						if got.Keys()[len(under)] != k || got.Len() != len(under)+1 {
							t.Fatalf("key %v interned as %v", k, got.Keys())
						}
						nodes[got.n] = k
					}
					parent := tr.FromKeys(under).n
					if parent == nil {
						parent = &tr.root
					}
					// Past listMax every child is in the hub table, and
					// up to it none is.
					inHub, want := 0, 0
					if fan > listMax {
						want = fan
					}
					if p := tr.hubs.Load(); p != nil {
						for i := range *p {
							if w := (*p)[i].Load(); w != 0 && tr.node(uint32(w>>32)).parent == parent.id {
								inHub++
							}
						}
					}
					if got := parent.fan.Load(); int(got) != fan || inHub != want {
						t.Fatalf("fan-out %d: counted %d, %d in the hub table", fan, got, inHub)
					}
					// Every key again, the other way round: nothing new.
					count := tr.NodeCount()
					for i, k := range keys {
						path := append(under[:len(under):len(under)], k)
						got := tr.FromKeys(path)
						if i%2 == 0 {
							got, _ = tr.UnmarshalTaint(blobOf(path...))
						}
						if nodes[got.n] != k {
							t.Fatalf("key %v found node of %v", k, nodes[got.n])
						}
					}
					if tr.NodeCount() != count {
						t.Fatalf("second sight grew the tree: %d -> %d nodes", count, tr.NodeCount())
					}
				}
			})
		}
	}
}

// TestChildrenConcurrent interns one key set from 8 goroutines at once,
// each in its own order and half of them from wire bytes, under a hash
// that collides all the time: every goroutine must end up with the same
// node for the same key and the tree with one node a key.
func TestChildrenConcurrent(t *testing.T) {
	withMask(t, 7)
	const workers, fan = 8, 300
	tr := NewTree()
	keys := siblingKeys(fan)
	got := make([][]*node, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*node, fan)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(fan) {
				if w%2 == 0 {
					got[w][i] = tr.NewSource(keys[i].Value, keys[i].LocalID).n
					continue
				}
				tt, err := tr.UnmarshalTaint(blobOf(keys[i]))
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = tt.n
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		for w := range got {
			if got[w][i] != got[0][i] || tr.key(got[w][i]) != k {
				t.Fatalf("worker %d has another node for %v", w, k)
			}
		}
	}
	if tr.NodeCount() != fan {
		t.Fatalf("%d nodes for %d keys", tr.NodeCount(), fan)
	}
}

// TestHashIsNotObservable runs one seeded program — sources, combines,
// arrivals from the wire — under different seeds and hashes and compares
// everything a caller can see: node ids, key order, marshalled bytes.
func TestHashIsNotObservable(t *testing.T) {
	program := func() string {
		rng := rand.New(rand.NewSource(11))
		tr := NewTree()
		var out bytes.Buffer
		taints := []Taint{{}}
		for step := 0; step < 600; step++ {
			var tt Taint
			switch a, b := taints[rng.Intn(len(taints))], taints[rng.Intn(len(taints))]; rng.Intn(3) {
			case 0:
				tt = tr.NewSource(fmt.Sprintf("s%d", rng.Intn(40)), fmt.Sprintf("n%d:1", rng.Intn(3)))
			case 1:
				tt = Combine(a, b)
			default:
				blob, err := MarshalTaint(Combine(b, a))
				if err != nil {
					t.Fatal(err)
				}
				if tt, err = tr.UnmarshalTaint(blob); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%x ", blob)
			}
			id := uint32(0)
			if !tt.Empty() {
				id = tt.n.id
			}
			fmt.Fprintf(&out, "%d %v\n", id, tt.Keys())
			taints = append(taints, tt)
		}
		fmt.Fprintln(&out, tr.NodeCount())
		return out.String()
	}
	want := program()
	for _, f := range masks {
		withMask(t, f.mask)
		seed := hashSeed
		hashSeed = maphash.MakeSeed()
		got := program()
		hashSeed = seed
		if got != want {
			t.Fatalf("%s hash under another seed changed what the program saw", f.name)
		}
	}
}

// TestTreeAllocations pins what the two hot walks allocate: nothing for
// a taint the tree holds, and nothing for a new leaf either but a share
// of the chunk, arena block or hub table it fills — below one allocation
// a call, which AllocsPerRun rounds down to 0. Its key's bytes go in the
// arena, and a LocalID the tree holds is not stored again.
func TestTreeAllocations(t *testing.T) {
	if a, b := unsafe.Sizeof(Taint{}), unsafe.Sizeof(node{}); a != 8 || b != 40 {
		t.Fatalf("a Taint is %d B and a node record %d B, want 8 and 40", a, b)
	}
	const runs = 200
	tr := NewTree()
	// AllocsPerRun calls its function runs+1 times; each call gets a
	// parent of its own, interned up front.
	fresh := make([]TagKey, runs+1)
	for i := range fresh {
		fresh[i] = TagKey{fmt.Sprintf("org.example.Request.field#%d", i), "10.0.0.1:9"}
		tr.FromKeys(fresh[i : i+1])
	}
	// under prices UnmarshalTaint of [fresh[i], k], i advancing per call.
	under := func(k ...TagKey) float64 {
		blobs := make([][]byte, len(fresh))
		for i := range blobs {
			blobs[i] = blobOf(append(fresh[i:i+1:i+1], k...)...)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() { tr.UnmarshalTaint(blobs[i]); i++ })
	}
	if got := under(); got != 0 {
		t.Errorf("UnmarshalTaint of an interned taint: %v allocs, want 0", got)
	}
	reply := TagKey{"org.example.Reply.body", "10.0.0.2:9"}
	if got := under(reply); got != 0 {
		t.Errorf("first child, a LocalID of its own: %v allocs, want 0", got)
	}
	if got := under(reply); got != 0 {
		t.Errorf("UnmarshalTaint of what was just created: %v allocs, want 0", got)
	}
	if got := under(TagKey{"org.example.Reply.status", reply.LocalID}); got != 0 {
		t.Errorf("second child, its sibling's LocalID: %v allocs, want 0", got)
	}
	if got := under(TagKey{"org.example.Request.header", fresh[0].LocalID}); got != 0 {
		t.Errorf("child with its parent's LocalID: %v allocs, want 0", got)
	}
	i, trailer := 0, TagKey{"org.example.Reply.trailer", reply.LocalID}
	if got := testing.AllocsPerRun(runs, func() { Combine(tr.FromKeys(fresh[i:i+1]), tr.NewSource(trailer.Value, trailer.LocalID)); i++ }); got != 0 {
		t.Errorf("Combine creating a leaf: %v allocs, want 0", got)
	}
	i = 0
	if got := testing.AllocsPerRun(runs, func() { MarshalTaint(tr.FromKeys(fresh[i : i+1])); i++ }); got != 1 {
		t.Errorf("MarshalTaint: %v allocs, want the blob", got)
	}
	both := tr.FromKeys([]TagKey{fresh[0], reply})
	if got := testing.AllocsPerRun(runs, func() { MarshalTaint(both) }); got != 0 {
		t.Errorf("MarshalTaint of the taint just marshalled: %v allocs, want the memo's blob", got)
	}
}

// modelTaint is the reference a taint is checked against: the tree it
// lives in and its keys, written out in path order.
type modelTaint struct {
	tree int
	path []TagKey
}

func (m modelTaint) id() string { return fmt.Sprint(m.tree, m.path) }

// union is Combine on the model: b's keys missing from a, in b's order,
// appended below a — or b itself, in its tree, when a is empty.
func (m modelTaint) union(b modelTaint) modelTaint {
	if len(m.path) == 0 {
		m.tree = b.tree
	}
	path := slices.Clone(m.path)
	for _, k := range b.path {
		if !slices.Contains(path, k) {
			path = append(path, k)
		}
	}
	return modelTaint{m.tree, path}
}

// TestTreeMatchesPathModel runs seeded random streams of every way a
// taint is made or read — NewSource, FromKeys, Combine within and across
// two trees, MarshalTaint, UnmarshalTaint, SetGlobalID — against the
// explicit key paths they stand for, under the real hash and under one
// that sends every key of a parent to the same hub table slot. After
// each step it compares everything a caller sees, and that one path of
// one tree is one node and no other path's.
func TestTreeMatchesPathModel(t *testing.T) {
	var universe []TagKey
	for _, v := range []string{"", "a", "b", "c", "d", "e", "f", "g", "h", "i", "org.example.Request.field", strings.Repeat("v", 5000)} {
		for _, l := range []string{"", "10.0.0.1:7", "10.0.0.2:7"} {
			universe = append(universe, TagKey{v, l})
		}
	}
	for _, f := range []struct {
		name string
		mask uint64
	}{{"maphash", ^uint64(0)}, {"constant", 0}} {
		withMask(t, f.mask)
		for seed := int64(1); seed <= 12; seed++ {
			checkPathModel(t, f.name, seed, universe)
		}
	}
}

func checkPathModel(t *testing.T, hash string, seed int64, universe []TagKey) {
	rng := rand.New(rand.NewSource(seed))
	trees := []*Tree{NewTree(), NewTree()}
	taints, models := []Taint{{}}, []modelTaint{{}}
	nodeOf, pathOf := map[string]*node{}, map[*node]string{}
	ids := map[string]uint32{}
	var pairs [][2]int // operands of the Combines so far, to repeat recent ones
	anyKey := func() TagKey { return universe[rng.Intn(len(universe))] }
	for step := 0; step < 400; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s hash, seed %d, step %d: %s", hash, seed, step, fmt.Sprintf(format, args...))
		}
		i, j, tr := rng.Intn(len(taints)), rng.Intn(len(taints)), rng.Intn(len(trees))
		var got Taint
		var want modelTaint
		switch rng.Intn(6) {
		case 0:
			k := anyKey()
			got, want = trees[tr].NewSource(k.Value, k.LocalID), modelTaint{tr, []TagKey{k}}
		case 1:
			keys := make([]TagKey, rng.Intn(5))
			for n := range keys {
				keys[n] = anyKey()
			}
			if rng.Intn(2) == 0 { // a child of a node the tree has: interior hubs
				keys = append(slices.Clone(models[i].path), anyKey())
			}
			got, want = trees[tr].FromKeys(keys), modelTaint{}.union(modelTaint{tr, keys})
		case 2:
			if len(pairs) > 0 && rng.Intn(2) == 0 {
				p := pairs[len(pairs)-1-rng.Intn(min(len(pairs), 4))]
				i, j = p[0], p[1]
				if rng.Intn(2) == 0 { // the other way round
					i, j = j, i
				}
			}
			pairs = append(pairs, [2]int{i, j})
			got, want = Combine(taints[i], taints[j]), models[i].union(models[j])
		case 3, 4:
			blob, err := MarshalTaint(taints[i])
			if err != nil {
				fail("MarshalTaint: %v", err)
			}
			if !bytes.Equal(blob, blobOf(models[i].path...)) {
				fail("MarshalTaint of %v = %x", models[i].path, blob)
			}
			if got, err = trees[tr].UnmarshalTaint(blob); err != nil {
				fail("UnmarshalTaint: %v", err)
			}
			want = modelTaint{tr, models[i].path}
		default:
			got, want = taints[i], models[i]
			id := rng.Uint32()
			got.SetGlobalID(id)
			if len(want.path) > 0 {
				ids[want.id()] = id
			}
		}
		if len(want.path) == 0 {
			want = modelTaint{}
		}
		if !slices.Equal(got.Keys(), want.path) || got.Len() != len(want.path) || got.Empty() != (len(want.path) == 0) {
			fail("keys %v (len %d), want %v", got.Keys(), got.Len(), want.path)
		}
		if !got.Empty() {
			if got.Tree() != trees[want.tree] {
				fail("%v in the other tree", want.path)
			}
			if n, ok := nodeOf[want.id()]; ok && n != got.n {
				fail("%v found another node", want.path)
			}
			if p, ok := pathOf[got.n]; ok && p != want.id() {
				fail("%v shares a node with %s", want.path, p)
			}
			nodeOf[want.id()], pathOf[got.n] = got.n, want.id()
		}
		if got.GlobalID() != ids[want.id()] {
			fail("%v has Global ID %d, want %d", want.path, got.GlobalID(), ids[want.id()])
		}
		k, other := anyKey(), models[j]
		if got.HasKey(k) != slices.Contains(want.path, k) ||
			got.Has(k.Value) != slices.ContainsFunc(want.path, func(p TagKey) bool { return p.Value == k.Value }) {
			fail("%v: HasKey/Has(%v) = %v/%v", want.path, k, got.HasKey(k), got.Has(k.Value))
		}
		same := len(want.path) == len(other.path)
		for _, p := range want.path {
			same = same && slices.Contains(other.path, p)
		}
		if SameSet(got, taints[j]) != same {
			fail("SameSet(%v, %v) = %v", want.path, other.path, !same)
		}
		taints, models = append(taints, got), append(models, want)
	}
}

// TestTreeGrowthConcurrent has readers walk, look up, combine and read
// taints without a lock while writers grow the same tree past many
// chunks, arena blocks and hub table sizes: every reader must see each
// taint whole and find it where it was made. The readers follow the
// writers in step, so that they union the same pairs at once and fill
// and read the same combine cache slots.
func TestTreeGrowthConcurrent(t *testing.T) {
	const writers, readers, fan = 2, 4, 3000
	tr := NewTree()
	key := func(i int) TagKey {
		return TagKey{fmt.Sprintf("org.example.field#%d", i), fmt.Sprintf("10.0.0.%d:7", i%5)}
	}
	hub := tr.NewSource("hub", "10.0.0.9:7")
	made := make([]atomic.Pointer[node], writers*fan)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(made); i += writers {
				src := tr.NewSource(key(i).Value, key(i).LocalID)
				src.SetGlobalID(uint32(i + 1))
				made[i].Store(Combine(src, hub).n)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range made {
				n := made[i].Load()
				for ; n == nil; n = made[i].Load() {
					runtime.Gosched()
				}
				got := Taint{n}
				if keys := got.Keys(); len(keys) != 2 || keys[0] != key(i) || got.Tree() != tr {
					t.Errorf("taint %d reads %v", i, keys)
					return
				}
				src := tr.NewSource(key(i).Value, key(i).LocalID)
				if src.n.id != n.parent || src.GlobalID() != uint32(i+1) {
					t.Errorf("taint %d: its source is another node", i)
					return
				}
				for again := 0; again < 3; again++ {
					if Combine(src, hub) != got {
						t.Errorf("taint %d: the union of its source and the hub is another node", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if want := writers*fan*2 + 1; tr.NodeCount() != want {
		t.Fatalf("%d nodes, want %d", tr.NodeCount(), want)
	}
}
