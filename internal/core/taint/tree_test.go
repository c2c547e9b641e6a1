package taint

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"sync"
	"testing"
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
// both sides of the list -> map transition and whatever the hash does.
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
						if got.n.key != k || got.n.depth != len(under)+1 {
							t.Fatalf("key %v interned as %v at depth %d", k, got.n.key, got.n.depth)
						}
						nodes[got.n] = k
					}
					parent := tr.FromKeys(under).n
					if parent == nil {
						parent = tr.root
					}
					if (parent.byHash != nil) != (fan > listMax) || int(parent.fan) != fan {
						t.Fatalf("fan-out %d: map %v, counted %d", fan, parent.byHash != nil, parent.fan)
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
			if got[w][i] != got[0][i] || got[w][i].key != k {
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
			id := int64(0)
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
// a taint the tree holds, and for a new leaf the node and the one string
// nobody else has — no map under a node with a child or two, no key
// slice on the way in or out.
func TestTreeAllocations(t *testing.T) {
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
	if got := under(reply); got != 3 {
		t.Errorf("first child, a LocalID of its own: %v allocs, want node, value and LocalID", got)
	}
	if got := under(reply); got != 0 {
		t.Errorf("UnmarshalTaint of what was just created: %v allocs, want 0", got)
	}
	if got := under(TagKey{"org.example.Reply.status", reply.LocalID}); got != 2 {
		t.Errorf("second child, its sibling's LocalID: %v allocs, want node and value", got)
	}
	if got := under(TagKey{"org.example.Request.header", fresh[0].LocalID}); got != 2 {
		t.Errorf("child with its parent's LocalID: %v allocs, want node and value", got)
	}
	i, trailer := 0, TagKey{"org.example.Reply.trailer", reply.LocalID}
	if got := testing.AllocsPerRun(runs, func() { Combine(tr.FromKeys(fresh[i:i+1]), tr.NewSource(trailer.Value, trailer.LocalID)); i++ }); got > 2 {
		t.Errorf("Combine creating a leaf: %v allocs, want the node and its share of the combine cache", got)
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
