package taint

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyTaint(t *testing.T) {
	var empty Taint
	if !empty.Empty() {
		t.Fatal("zero Taint must be empty")
	}
	if got := empty.Keys(); got != nil {
		t.Fatalf("empty taint keys = %v, want nil", got)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty taint len = %d", empty.Len())
	}
	if empty.Has("x") {
		t.Fatal("empty taint must not have any tag")
	}
	if empty.GlobalID() != 0 {
		t.Fatal("empty taint global id must be 0")
	}
	empty.SetGlobalID(7) // must be a no-op, not a panic
	if empty.GlobalID() != 0 {
		t.Fatal("SetGlobalID on empty taint must be ignored")
	}
}

func TestNewSourceAssignsDistinctTags(t *testing.T) {
	tr := NewTree()
	a := tr.NewSource("a_tag", "n1:1")
	b := tr.NewSource("b_tag", "n1:1")
	if a.Empty() || b.Empty() {
		t.Fatal("source taints must be non-empty")
	}
	if SameSet(a, b) {
		t.Fatal("distinct tags must produce distinct taints")
	}
	if !a.Has("a_tag") || a.Has("b_tag") {
		t.Fatalf("a = %v", a)
	}
}

func TestNewSourceInternsSameTag(t *testing.T) {
	tr := NewTree()
	a1 := tr.NewSource("a_tag", "n1:1")
	a2 := tr.NewSource("a_tag", "n1:1")
	if a1.n != a2.n {
		t.Fatal("same tag key must intern to the same tree node")
	}
}

// TestFigure2And3 reproduces the paper's running example: a and b are
// sources, c = a + b combines both tags, and the tree holds the
// <1,a_tag> -> <2,b_tag> chain.
func TestFigure2And3(t *testing.T) {
	tr := NewTree()
	at := tr.NewSource("a_tag", "node1:100")
	bt := tr.NewSource("b_tag", "node1:100")
	ct := Combine(at, bt)
	want := []string{"a_tag", "b_tag"}
	if got := ct.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("c_t values = %v, want %v", got, want)
	}
	if ct.Len() != 2 {
		t.Fatalf("c_t len = %d, want 2", ct.Len())
	}
	// The combination node hangs below a_t's node.
	if ct.n.parent != at.n.id {
		t.Fatal("combined node must be a child of the left operand's node")
	}
}

func TestCombineWithEmpty(t *testing.T) {
	tr := NewTree()
	a := tr.NewSource("a", "l")
	if got := Combine(a, Taint{}); got.n != a.n {
		t.Fatal("Combine(a, empty) must return a")
	}
	if got := Combine(Taint{}, a); got.n != a.n {
		t.Fatal("Combine(empty, a) must return a")
	}
	if got := Combine(Taint{}, Taint{}); !got.Empty() {
		t.Fatal("Combine(empty, empty) must be empty")
	}
}

func TestCombineIdempotent(t *testing.T) {
	tr := NewTree()
	a := tr.NewSource("a", "l")
	b := tr.NewSource("b", "l")
	ab := Combine(a, b)
	if got := Combine(ab, ab); got.n != ab.n {
		t.Fatal("Combine(t, t) must return the same node")
	}
	if got := Combine(ab, a); got.n != ab.n {
		t.Fatal("Combine(ab, a) must not grow the set")
	}
	if got := Combine(ab, b); got.n != ab.n {
		t.Fatal("Combine(ab, b) must not grow the set")
	}
}

func TestCombineInterning(t *testing.T) {
	tr := NewTree()
	a := tr.NewSource("a", "l")
	b := tr.NewSource("b", "l")
	before := tr.NodeCount()
	ab1 := Combine(a, b)
	mid := tr.NodeCount()
	ab2 := Combine(a, b)
	after := tr.NodeCount()
	if ab1.n != ab2.n {
		t.Fatal("repeated combination must intern to one node")
	}
	if mid != before+1 || after != mid {
		t.Fatalf("node counts %d -> %d -> %d; second combine must allocate nothing", before, mid, after)
	}
}

func TestLocalIDDisambiguatesSameTagValue(t *testing.T) {
	tr := NewTree()
	fromN1 := tr.NewSource("a_tag", "10.0.0.1:4")
	fromN2 := tr.NewSource("a_tag", "10.0.0.2:9")
	if SameSet(fromN1, fromN2) {
		t.Fatal("same tag value from different nodes must remain distinct (LocalID)")
	}
	both := Combine(fromN1, fromN2)
	if both.Len() != 2 {
		t.Fatalf("union of conflicting tags must have 2 entries, got %d", both.Len())
	}
}

func TestSameSetOrderIndependent(t *testing.T) {
	tr := NewTree()
	a := tr.NewSource("a", "l")
	b := tr.NewSource("b", "l")
	c := tr.NewSource("c", "l")
	left := Combine(Combine(a, b), c)
	right := Combine(c, Combine(b, a))
	if !SameSet(left, right) {
		t.Fatalf("label sets must be order independent: %v vs %v", left, right)
	}
}

func TestFromKeysDedup(t *testing.T) {
	tr := NewTree()
	k := TagKey{Value: "v", LocalID: "l"}
	got := tr.FromKeys([]TagKey{k, k, k})
	if got.Len() != 1 {
		t.Fatalf("FromKeys with duplicates len = %d, want 1", got.Len())
	}
	if empty := tr.FromKeys(nil); !empty.Empty() {
		t.Fatal("FromKeys(nil) must be empty")
	}
}

func TestGlobalIDRoundTrip(t *testing.T) {
	tr := NewTree()
	a := tr.NewSource("a", "l")
	if a.GlobalID() != 0 {
		t.Fatal("fresh taint must have GlobalID 0 (set at generation, §III-D-1)")
	}
	a.SetGlobalID(42)
	if a.GlobalID() != 42 {
		t.Fatalf("GlobalID = %d, want 42", a.GlobalID())
	}
	// The id lives on the interned node, so another reference sees it.
	a2 := tr.NewSource("a", "l")
	if a2.GlobalID() != 42 {
		t.Fatal("interned taint must share its GlobalID")
	}
}

func TestTaintStringFormat(t *testing.T) {
	tr := NewTree()
	a := tr.NewSource("a", "n:1")
	if got, want := a.String(), "{a@n:1}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := (Taint{}).String(), "{}"; got != want {
		t.Fatalf("empty String() = %q, want %q", got, want)
	}
}

func TestConcurrentCombine(t *testing.T) {
	tr := NewTree()
	tags := make([]Taint, 16)
	for i := range tags {
		tags[i] = tr.NewSource(string(rune('a'+i)), "l")
	}
	var wg sync.WaitGroup
	results := make([]Taint, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			acc := Taint{}
			for i := 0; i < 100; i++ {
				acc = Combine(acc, tags[rng.Intn(len(tags))])
			}
			results[g] = acc
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		for _, k := range r.Keys() {
			if k.LocalID != "l" {
				t.Fatalf("goroutine %d produced corrupted key %v", g, k)
			}
		}
	}
}

// ---- property-based tests (testing/quick) ----

// genTaint builds a taint from a bounded random tag-index multiset.
func genTaint(tr *Tree, idxs []uint8) Taint {
	acc := Taint{}
	for _, i := range idxs {
		acc = Combine(acc, tr.NewSource(string(rune('a'+int(i%12))), "l"))
	}
	return acc
}

func keySet(t Taint) map[TagKey]bool {
	m := make(map[TagKey]bool)
	for _, k := range t.Keys() {
		m[k] = true
	}
	return m
}

func TestQuickCombineIsSetUnion(t *testing.T) {
	tr := NewTree()
	f := func(ai, bi []uint8) bool {
		a, b := genTaint(tr, ai), genTaint(tr, bi)
		got := keySet(Combine(a, b))
		want := keySet(a)
		for k := range keySet(b) {
			want[k] = true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCombineCommutativeAsSets(t *testing.T) {
	tr := NewTree()
	f := func(ai, bi []uint8) bool {
		a, b := genTaint(tr, ai), genTaint(tr, bi)
		return SameSet(Combine(a, b), Combine(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCombineAssociativeAsSets(t *testing.T) {
	tr := NewTree()
	f := func(ai, bi, ci []uint8) bool {
		a, b, c := genTaint(tr, ai), genTaint(tr, bi), genTaint(tr, ci)
		return SameSet(Combine(Combine(a, b), c), Combine(a, Combine(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCombineIdempotent(t *testing.T) {
	tr := NewTree()
	f := func(ai []uint8) bool {
		a := genTaint(tr, ai)
		return Combine(a, a).n == a.n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPathHasNoDuplicates(t *testing.T) {
	tr := NewTree()
	f := func(ai, bi []uint8) bool {
		a := Combine(genTaint(tr, ai), genTaint(tr, bi))
		keys := a.Keys()
		seen := make(map[TagKey]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return a.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
