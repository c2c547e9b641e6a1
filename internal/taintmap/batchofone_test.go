package taintmap

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// clientOps is one way of driving a Client one taint at a time: the
// single ops, or the batch ops with a one-element slice.
type clientOps struct {
	name     string
	register func(c Client, t taint.Taint) (uint32, error)
	lookup   func(c Client, id uint32) (taint.Taint, error)
}

var (
	singleOps = clientOps{
		name:     "single",
		register: func(c Client, t taint.Taint) (uint32, error) { return c.Register(t) },
		lookup:   func(c Client, id uint32) (taint.Taint, error) { return c.Lookup(id) },
	}
	batchOfOneOps = clientOps{
		name: "batch-of-one",
		register: func(c Client, t taint.Taint) (uint32, error) {
			ids, err := c.RegisterBatch([]taint.Taint{t})
			if err != nil {
				return 0, err
			}
			return ids[0], nil
		},
		lookup: func(c Client, id uint32) (taint.Taint, error) {
			ts, err := c.LookupBatch([]uint32{id})
			if err != nil {
				return taint.Taint{}, err
			}
			return ts[0], nil
		},
	}
)

// errClass names the typed failure err matches under errors.Is, most
// specific first; "" is success and "other" a failure of no typed class.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"ErrDegraded", ErrDegraded},
		{"ErrOverloaded", ErrOverloaded},
		{"ErrUnknownGlobalID", ErrUnknownGlobalID},
		{"ErrDeadlineExceeded", ErrDeadlineExceeded},
		{"ErrClientClosed", ErrClientClosed},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// opResult is everything the equivalence test compares about one op.
type opResult struct {
	step    string
	id      uint32 // Register: the id returned; Lookup: the id asked for
	stamped uint32 // Global ID on the taint node afterwards
	blob    string // Lookup: the resolved taint, serialized
	class   string // errClass of the failure
}

// opTrace drives one client through a scenario's script and records what
// every step observed.
type opTrace struct {
	t   *testing.T
	ops clientOps
	got []opResult
}

// register records a Register of tt and returns its id. want is the
// errClass the step must end in.
func (tr *opTrace) register(step string, c Client, tt taint.Taint, want string) uint32 {
	tr.t.Helper()
	id, err := tr.ops.register(c, tt)
	r := opResult{step: step, id: id, stamped: tt.GlobalID(), class: errClass(err)}
	if r.class != want {
		tr.t.Fatalf("%s/%s: register failed as %q (%v), want %q", tr.ops.name, step, r.class, err, want)
	}
	tr.got = append(tr.got, r)
	return id
}

// lookup records a Lookup of id. want is the errClass the step must end in.
func (tr *opTrace) lookup(step string, c Client, id uint32, want string) {
	tr.t.Helper()
	got, err := tr.ops.lookup(c, id)
	r := opResult{step: step, id: id, stamped: got.GlobalID(), class: errClass(err)}
	if r.class != want {
		tr.t.Fatalf("%s/%s: lookup of %d failed as %q (%v), want %q", tr.ops.name, step, id, r.class, err, want)
	}
	if err == nil {
		blob, merr := taint.MarshalTaint(got)
		if merr != nil {
			tr.t.Fatalf("%s/%s: %v", tr.ops.name, step, merr)
		}
		r.blob = string(blob)
	}
	tr.got = append(tr.got, r)
}

// healthyScript is what every client answers the same way while its
// Taint Map is up: a fresh registration, the stamped and empty
// early-outs, a memo-cold and a memo-warm lookup from a second client,
// the zero id and an id nobody registered.
func healthyScript(tr *opTrace, c, reader Client, tree *taint.Tree, unknown uint32) {
	tr.t.Helper()
	t1 := tree.NewSource("one", "app:1")
	id := tr.register("fresh", c, t1, "")
	if id == 0 || IsStreamScoped(id) || t1.GlobalID() != id {
		tr.t.Fatalf("%s: healthy register = %d, node stamped %d", tr.ops.name, id, t1.GlobalID())
	}
	tr.register("stamped", c, t1, "")
	tr.register("empty", c, taint.Taint{}, "")
	tr.register("combined", c, taint.Combine(t1, tree.NewSource("two", "app:1")), "")
	tr.lookup("cold", reader, id, "")
	tr.lookup("warm", reader, id, "")
	tr.lookup("own", c, id, "")
	tr.lookup("zero", c, 0, "")
	tr.lookup("unknown", reader, unknown, "ErrUnknownGlobalID")
	contractScript(tr.t, c, reader, tree)
}

// recorder sits between a front and its transport and holds the front to
// its side of the contract: a transport is handed misses only — distinct,
// non-empty taints carrying no Global ID with their serializations,
// distinct non-zero ids the memo does not hold — and never an empty batch.
type recorder struct {
	t         *testing.T
	f         *front
	inner     transport
	registers [][]taint.Taint
	lookups   [][]uint32
}

// record puts a recorder in front of c's transport.
func record(t *testing.T, c Client) *recorder {
	t.Helper()
	var f *front
	switch c := c.(type) {
	case *fakeClient:
		f = &c.front
	case *LocalClient:
		f = &c.front
	case *RemoteClient:
		f = &c.front
	case *ClusterClient:
		f = &c.front
	default:
		t.Fatalf("%T has no front", c)
	}
	r := &recorder{t: t, f: f, inner: f.t}
	f.t = r
	return r
}

func (r *recorder) issueRegister(reg *Registration) {
	r.t.Helper()
	ts, blobs := reg.ts, reg.blobs
	if len(ts) == 0 || len(blobs) != len(ts) || len(reg.ids) != len(ts) {
		r.t.Fatalf("transport.issueRegister with %d ids, %d taints and %d blobs", len(reg.ids), len(ts), len(blobs))
	}
	for i, tt := range ts {
		want, err := taint.MarshalTaint(tt)
		if tt.Empty() || tt.GlobalID() != 0 || slices.Contains(ts[:i], tt) || err != nil || string(blobs[i]) != string(want) {
			r.t.Fatalf("transport.issueRegister handed %v (Global ID %d, blob %q) at %d of %v", tt, tt.GlobalID(), blobs[i], i, ts)
		}
	}
	r.registers = append(r.registers, slices.Clone(ts))
	r.inner.issueRegister(reg)
}

func (r *recorder) lookup(ids []uint32) ([]taint.Taint, error) {
	r.t.Helper()
	if len(ids) == 0 {
		r.t.Fatal("transport.lookup with no ids")
	}
	for i, id := range ids {
		if _, held := r.f.memo.get(id); id == 0 || held || slices.Contains(ids[:i], id) {
			r.t.Fatalf("transport.lookup handed id %#x (memo holds it: %v) at %d of %#x", id, held, i, ids)
		}
	}
	r.lookups = append(r.lookups, slices.Clone(ids))
	return r.inner.lookup(ids)
}

// contractScript drives batches with duplicates, empties and hits through
// c and reader and checks both ends of the front: what the transport was
// handed (record) and that its answers reach every position.
func contractScript(t *testing.T, c, reader Client, tree *taint.Tree) {
	t.Helper()
	w, r := record(t, c), record(t, reader)
	stamped := tree.NewSource("contract-stamped", "app:1")
	stampedID, err := c.Register(stamped)
	if err != nil || len(w.registers) != 1 || !slices.Equal(w.registers[0], []taint.Taint{stamped}) {
		t.Fatalf("register miss = %d, %v; the transport saw %v", stampedID, err, w.registers)
	}
	fresh := make([]taint.Taint, 6) // enough to span a cluster's owners
	for i := range fresh {
		fresh[i] = tree.NewSource(fmt.Sprintf("contract-%d", i), "app:1")
	}
	batch := []taint.Taint{stamped, {}}
	for round := 0; round < 3; round++ {
		batch = append(batch, fresh...)
	}
	wantIDs := func(ids []uint32) {
		t.Helper()
		for i, tt := range batch {
			if ids[i] != tt.GlobalID() || tt.Empty() != (ids[i] == 0) || IsStreamScoped(ids[i]) {
				t.Fatalf("position %d (%v): id %#x, node stamped %#x", i, tt, ids[i], tt.GlobalID())
			}
		}
	}
	ids, err := c.RegisterBatch(batch)
	if err != nil || len(w.registers) != 2 || !slices.Equal(w.registers[1], fresh) {
		t.Fatalf("register batch: %v; the transport saw %v, want one more call with %v", err, w.registers, fresh)
	}
	wantIDs(ids)
	if ids[0] != stampedID {
		t.Fatalf("stamped taint re-registered as %#x, was %#x", ids[0], stampedID)
	}
	if ids, err = c.RegisterBatch(batch); err != nil || len(w.registers) != 2 {
		t.Fatalf("register batch of hits: %v; the transport saw %v", err, w.registers)
	}
	wantIDs(ids)

	wantTaints := func(got []taint.Taint) {
		t.Helper()
		for i, tt := range batch {
			want, _ := taint.MarshalTaint(tt)
			if blob, err := taint.MarshalTaint(got[i]); err != nil || string(blob) != string(want) || got[i].GlobalID() != ids[i] {
				t.Fatalf("position %d (id %#x): resolved to %v (Global ID %#x), want %v", i, ids[i], got[i], got[i].GlobalID(), tt)
			}
		}
	}
	got, err := reader.LookupBatch(ids)
	wantMissing := append([]uint32{stampedID}, ids[2:2+len(fresh)]...)
	if err != nil || len(r.lookups) != 1 || !slices.Equal(r.lookups[0], wantMissing) {
		t.Fatalf("lookup batch: %v; the transport saw %#x, want one call with %#x", err, r.lookups, wantMissing)
	}
	wantTaints(got)
	if got, err = reader.LookupBatch(ids); err != nil || len(r.lookups) != 1 {
		t.Fatalf("lookup batch of hits: %v; the transport saw %#x", err, r.lookups)
	}
	wantTaints(got)
	// What a lookup adopted is a hit for both single verbs.
	if one, err := reader.Lookup(stampedID); err != nil || one != got[0] {
		t.Fatalf("lookup hit = %v, %v", one, err)
	}
	if id, err := reader.Register(got[0]); err != nil || id != stampedID || len(r.lookups) != 1 || len(r.registers) != 0 {
		t.Fatalf("register of an adopted taint = %#x, %v; the transport saw %v, %#x", id, err, r.registers, r.lookups)
	}
}

// fakeClient is a front over a transport that is nothing but a blob table
// and a fault switch, so TestFrontContract sees the front's half of the
// contract with no connection, failover or routing in the way.
type fakeClient struct {
	front
	store *Store
	fail  error // what both transport methods answer while set
}

func (c *fakeClient) issueRegister(r *Registration) {
	if c.fail != nil {
		r.groups = append(r.groups, regGroup{err: c.fail, to: len(r.ts)})
		return
	}
	copy(r.ids, c.store.RegisterBlobs(r.blobs))
	c.stamp(r.ts, r.ids)
}

func (c *fakeClient) lookup(ids []uint32) ([]taint.Taint, error) {
	blobs, err := c.store.LookupBlobs(ids)
	if err != nil || c.fail != nil {
		return nil, errors.Join(err, c.fail)
	}
	return c.adopt(nil, ids, blobs, false)
}

func (c *fakeClient) Close() error { return nil }

// TestFrontContract: the four verbs over a recording fake transport — the
// script every real transport runs in TestBatchOfOneEquivalence, then what
// only a fake can show: a transport's failure is the verb's failure, it
// leaves nothing stamped or memoised, and hits never wait on it.
func TestFrontContract(t *testing.T) {
	store := NewStore()
	open := func(tree *taint.Tree) *fakeClient {
		c := &fakeClient{store: store}
		c.front = front{tree, &cache{}, c}
		return c
	}
	tree := taint.NewTree()
	c, reader := open(tree), open(taint.NewTree())
	contractScript(t, c, reader, tree)

	known := tree.NewSource("before the fault", "app:1")
	knownID, err := c.Register(known)
	if err != nil {
		t.Fatal(err)
	}
	down := errors.New("transport down")
	c.fail, reader.fail = down, down
	late := tree.NewSource("during the fault", "app:1")
	if id, err := c.Register(late); !errors.Is(err, down) || id != 0 || late.GlobalID() != 0 {
		t.Fatalf("register over a failing transport = %d, %v; node stamped %d", id, err, late.GlobalID())
	}
	if ids, err := c.RegisterBatch([]taint.Taint{known, late, late}); !errors.Is(err, down) || ids != nil || late.GlobalID() != 0 {
		t.Fatalf("register batch over a failing transport = %v, %v; node stamped %d", ids, err, late.GlobalID())
	}
	if ids, err := c.RegisterBatch([]taint.Taint{known, {}, known}); err != nil || !slices.Equal(ids, []uint32{knownID, 0, knownID}) {
		t.Fatalf("register batch of hits over a failing transport = %v, %v", ids, err)
	}
	if got, err := reader.Lookup(knownID); !errors.Is(err, down) || !got.Empty() {
		t.Fatalf("lookup over a failing transport = %v, %v", got, err)
	}
	if ts, err := reader.LookupBatch([]uint32{knownID, 0}); !errors.Is(err, down) || ts != nil {
		t.Fatalf("lookup batch over a failing transport = %v, %v", ts, err)
	}
	if _, held := reader.memo.get(knownID); held {
		t.Fatal("a failed lookup memoised its id")
	}
	if got, err := c.LookupBatch([]uint32{knownID, 0, knownID}); err != nil || got[0] != known || !got[1].Empty() || got[2] != known {
		t.Fatalf("lookup batch of hits over a failing transport = %v, %v", got, err)
	}
}

// closedScript closes c and requires both verbs to fail as closed.
func closedScript(tr *opTrace, c Client, tree *taint.Tree, unknown uint32, lookupClass string) {
	tr.t.Helper()
	if err := c.Close(); err != nil {
		tr.t.Fatal(err)
	}
	tr.register("closed", c, tree.NewSource("late", "app:1"), "ErrClientClosed")
	tr.lookup("closed", c, unknown, lookupClass)
}

// TestBatchOfOneEquivalence pins Register(t) against
// RegisterBatch([]Taint{t}) and Lookup(id) against
// LookupBatch([]uint32{id}) on every client: each scenario runs twice on
// identical fresh deployments, once per way of asking, and the two runs
// must agree on every id, on whether the Global ID was stamped on the
// node and on the typed class of every failure.
func TestBatchOfOneEquivalence(t *testing.T) {
	const unknown = 9999
	scenarios := []struct {
		name string
		run  func(tr *opTrace)
	}{
		{"Local", func(tr *opTrace) {
			store := NewStore()
			tree := taint.NewTree()
			healthyScript(tr, NewLocalClient(store, tree), NewLocalClient(store, taint.NewTree()), tree, unknown)
		}},
		{"Remote", func(tr *opTrace) {
			n := netsim.New()
			srv, err := StartSimServer(n, "tm:1")
			if err != nil {
				tr.t.Fatal(err)
			}
			defer srv.Close()
			tree := taint.NewTree()
			c, err := DialSim(n, "tm:1", tree)
			if err != nil {
				tr.t.Fatal(err)
			}
			reader, err := DialSim(n, "tm:1", taint.NewTree())
			if err != nil {
				tr.t.Fatal(err)
			}
			defer reader.Close()
			healthyScript(tr, c, reader, tree, unknown)
			closedScript(tr, c, tree, unknown, "ErrClientClosed")
		}},
		{"ResilientConnected", func(tr *opTrace) {
			n := netsim.New()
			srv, err := StartSimServer(n, "tm:1")
			if err != nil {
				tr.t.Fatal(err)
			}
			defer srv.Close()
			tree := taint.NewTree()
			c := dialOne("tm:1", simDialer(n, "app:1"), tree, fastOpts())
			reader := dialOne("tm:1", simDialer(n, "rd:1"), taint.NewTree(), fastOpts())
			defer reader.Close()
			healthyScript(tr, c, reader, tree, unknown)
			closedScript(tr, c, tree, unknown, "ErrClientClosed")
		}},
		{"ResilientDegraded", func(tr *opTrace) {
			n := netsim.New()
			srv, err := StartSimServer(n, "tm:1")
			if err != nil {
				tr.t.Fatal(err)
			}
			defer srv.Close()
			tree := taint.NewTree()
			c := dialOne("tm:1", simDialer(n, "app:1"), tree, fastOpts())
			warm := tree.NewSource("warm", "app:1")
			warmID := tr.register("warm", c, warm, "")

			// The first op after the cut discovers the outage, rides out
			// the breaker and fails degraded; nothing is kept for later.
			n.Partition("app", "tm")
			o1 := tree.NewSource("outage-1", "app:1")
			tr.register("degraded", c, o1, "ErrDegraded")
			tr.register("degraded again", c, o1, "ErrDegraded")
			tr.lookup("memo", c, warmID, "")
			tr.lookup("unknown", c, unknown, "ErrDegraded")
			tr.lookup("stream-scoped", c, StreamScopedID(1), "other")
			closedScript(tr, c, tree, unknown, "ErrClientClosed")
		}},
		{"ClusterOneMemberOverloaded", func(tr *opTrace) {
			e := newClusterEnvOpts(tr.t, 3, 2, WithAdmission(1, 0))
			opt := ClusterOptions{Resilient: grayOpts().Resilient, OpTimeout: 100 * time.Millisecond}
			tree := taint.NewTree()
			c, err := DialSimCluster(e.net, "app:1", e.ring, tree, opt)
			if err != nil {
				tr.t.Fatal(err)
			}
			reader, err := DialSimCluster(e.net, "rd:1", e.ring, taint.NewTree(), opt)
			if err != nil {
				tr.t.Fatal(err)
			}
			defer reader.Close()

			// quiet is a partition member 0 does not replicate: its
			// lookups see the two healthy replicas only, so their
			// failures do not depend on where the rotation starts.
			quiet := uint32(MaxPartitions)
			for _, m := range e.ring.Members() {
				reps := e.ring.appendReplicas(nil, m.Part)
				if reps[0] != 0 && reps[1] != 0 {
					quiet = m.Part
				}
			}
			if quiet == MaxPartitions {
				tr.t.Fatal("every partition replicates to member 0")
			}
			quietUnknown := partitionBase(quiet) | unknown
			healthyScript(tr, c, reader, tree, quietUnknown)

			// Member 0 sheds every request: its partition's registers fail
			// typed, the others stay on the wire.
			byOwner := map[uint32]taint.Taint{}
			for i := 0; len(byOwner) < 3 && i < 256; i++ {
				tt := tree.NewSource(fmt.Sprintf("owned-%d", i), "app:1")
				blob, err := taint.MarshalTaint(tt)
				if err != nil {
					tr.t.Fatal(err)
				}
				if owner := e.ring.OwnerOfBlob(blob); byOwner[owner].Empty() {
					byOwner[owner] = tt
				}
			}
			e.srvs[0].adm.admit()
			defer e.srvs[0].adm.release()
			tr.register("shed owner", c, byOwner[0], "ErrOverloaded")
			if byOwner[0].GlobalID() != 0 {
				tr.t.Fatalf("%s: a shed register stamped %d", tr.ops.name, byOwner[0].GlobalID())
			}
			real := tr.register("healthy owner", c, byOwner[quiet], "")
			if real == 0 || IsStreamScoped(real) {
				tr.t.Fatalf("%s: healthy partition handed out id %#x", tr.ops.name, real)
			}
			tr.lookup("replicated", reader, real, "")

			// Both replicas of the quiet partition go gray: the lookup
			// ends at the operation deadline, not at a call timeout.
			for _, rep := range e.ring.appendReplicas(nil, quiet) {
				host := fmt.Sprintf("tm%d", rep)
				e.net.SetHostStall(host, true)
				defer e.net.SetHostStall(host, false)
			}
			tr.lookup("stalled", reader, quietUnknown+1, "ErrDeadlineExceeded")

			// A closed cluster client has no connection to hedge on.
			closedScript(tr, c, tree, quietUnknown+2, "ErrDegraded")
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			single := &opTrace{t: t, ops: singleOps}
			sc.run(single)
			batch := &opTrace{t: t, ops: batchOfOneOps}
			sc.run(batch)
			if len(single.got) != len(batch.got) {
				t.Fatalf("single ops took %d steps, batches of one %d", len(single.got), len(batch.got))
			}
			for i, s := range single.got {
				if b := batch.got[i]; s != b {
					t.Errorf("step %q: single %+v, batch of one %+v", s.step, s, b)
				}
			}
		})
	}
}

// TestHitEarlyOutsDoNotAllocate: the O(1) answers of the single ops —
// empty taint, stamped Global ID, zero id, memo hit — stay in Register
// and Lookup themselves and cost no allocation on any client.
func TestHitEarlyOutsDoNotAllocate(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	e := newClusterEnv(t, 3, 2)

	for _, tc := range []struct {
		name string
		open func(tree *taint.Tree) Client
	}{
		{"Local", func(tree *taint.Tree) Client { return NewLocalClient(NewStore(), tree) }},
		{"Remote", func(tree *taint.Tree) Client {
			c, err := DialSim(n, "tm:1", tree)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"Resilient", func(tree *taint.Tree) Client {
			return dialOne("tm:1", simDialer(n, "app:1"), tree, ResilientOptions{})
		}},
		{"Cluster", func(tree *taint.Tree) Client {
			c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := taint.NewTree()
			c := tc.open(tree)
			defer c.Close()
			tt := tree.NewSource("hit", "app:1")
			id, err := c.Register(tt)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if got, err := c.Register(tt); err != nil || got != id {
					t.Fatalf("stamped register = %d, %v", got, err)
				}
				if got, err := c.Register(taint.Taint{}); err != nil || got != 0 {
					t.Fatalf("empty register = %d, %v", got, err)
				}
				if got, err := c.Lookup(id); err != nil || got != tt {
					t.Fatalf("memo lookup = %v, %v", got, err)
				}
				if got, err := c.Lookup(0); err != nil || !got.Empty() {
					t.Fatalf("zero lookup = %v, %v", got, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("hit early-outs allocate %.0f times per round", allocs)
			}
		})
	}
}

// TestLookupMissAllocations pins what one single-id lookup miss
// allocates end to end — client, server and store share the process, so
// the count covers the whole round trip. The bounds are the measured
// counts: 4 on a plain remote and on the one-address client — a cluster
// of one runs its one replica inline — and 9 on a 3-member RF-2
// cluster, which pays the hedge timer and the leg goroutine (6, 6 and 11
// while lookupDeadline encoded each id list on the heap and made a blob
// list of its own for a one-frame answer, under bounds of 8, 8 and 13;
// 9, 8 and 17 while the replica set was a slice of its own and the reply
// took the demux hop). The front probes the
// memo once and hands the id straight to its transport, so a second memo
// split (2) and the read-back of the winning leg's answer do not fit; nor
// do the map cache.splitBatch once built to deduplicate a miss list of
// one, the two grouping maps ClusterClient once built per lookup, the
// replica slice replicaOrder once made, or a frame header on the heap
// per frame read or written (11 and 19 before). fillMissing's map is not
// among them: for a handful of ids it never leaves the stack.
func TestLookupMissAllocations(t *testing.T) {
	const runs = 200
	one := []uint32{7}
	if got := testing.AllocsPerRun(runs, func() { fillMissing(make([]taint.Taint, 1), one, one, make([]taint.Taint, 1)) }); got != 0 {
		t.Fatalf("fillMissing of one id allocates %.1f times", got)
	}
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	e := newClusterEnv(t, 3, 2)

	for _, tc := range []struct {
		name string
		max  float64
		open func(tree *taint.Tree) Client
	}{
		{"Remote", 4, func(tree *taint.Tree) Client {
			c, err := DialSim(n, "tm:1", tree)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"OneAddress", 4, func(tree *taint.Tree) Client {
			return dialOne("tm:1", simDialer(n, "app:1"), tree, ResilientOptions{})
		}},
		{"Cluster", 9, func(tree *taint.Tree) Client {
			c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One client registers, a memo-cold second one looks each id up
			// exactly once: AllocsPerRun calls the function runs+1 times.
			seedTree := taint.NewTree()
			seed := tc.open(seedTree)
			defer seed.Close()
			ids := make([]uint32, runs+1)
			for i := range ids {
				if ids[i], err = seed.Register(seedTree.NewSource(fmt.Sprintf("miss-%d", i), "app:1")); err != nil {
					t.Fatal(err)
				}
			}
			c := tc.open(taint.NewTree())
			defer c.Close()
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if got, err := c.Lookup(ids[next]); err != nil || got.Empty() {
					t.Fatalf("lookup miss = %v, %v", got, err)
				}
				next++
			})
			t.Logf("%.1f allocs per single-id lookup miss", allocs)
			if allocs > tc.max {
				t.Fatalf("a single-id lookup miss allocates %.1f times, want <= %.0f", allocs, tc.max)
			}
		})
	}
}

// TestIssuedBatchAllocations pins what an issued batch of 64 fresh taints
// allocates end to end on a 3-member RF-2 cluster — its issue, one
// request per owner, its collection and the owners' and replicas' work —
// with the blobs the caller's and the Registration reused, as an agent
// reuses its own: the grouping, the payloads and the ids are its scratch,
// and the writer's issue allocates about once. It reads 12 — the memo's
// and the stores' pages, a page per 16 ids, and a frame the owners and
// replicas read on the heap — pinned there; 17 to 18 under -race, whose
// pools drop puts, and which it does not pin.
func TestIssuedBatchAllocations(t *testing.T) {
	const batch, runs = 64, 50
	e := newClusterEnv(t, 3, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tss, blobss := make([][]taint.Taint, runs+2), make([][][]byte, runs+2)
	for i := range tss {
		tss[i], blobss[i] = make([]taint.Taint, batch), make([][]byte, batch)
		for j := range tss[i] {
			tss[i][j] = tree.NewSource(fmt.Sprintf("issued-%d-%d", i, j), "app:1")
			if blobss[i][j], err = taint.MarshalTaint(tss[i][j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var r Registration
	i := 0
	issue := func() {
		c.Issue(&r, tss[i], blobss[i])
		if err := c.Collect(&r); err != nil {
			t.Fatal(err)
		}
		i++
	}
	issue() // every member's connection and peer link up
	allocs := testing.AllocsPerRun(runs, issue)
	for _, ts := range tss[:i] {
		for _, tt := range ts {
			if tt.GlobalID() == 0 {
				t.Fatalf("%v was issued and collected, and has no Global ID", tt)
			}
		}
	}
	t.Logf("%.1f allocs per issued batch of %d", allocs, batch)
	if allocs > 12 && !raceEnabled {
		t.Fatalf("an issued batch of %d allocates %.1f times, want at most 12", batch, allocs)
	}
}

// TestRegisterMissAllocations pins what one single-taint register miss
// allocates end to end — client, owner and (on the cluster) replica share
// the process. A lone registration is a 'b' batch of one, its blob list
// encoded on the client's stack. The bounds are the counts measured under
// -race, 5 on a plain remote, on the one-address client (whose blobs the
// remote registered already) and on a 3-member RF-2 cluster, one over
// those without (7, 5 and 9 while each store kept a string and a pointer
// per blob; 9, 8 and 12 while a lone registration made a singleflight
// entry and the transport returned a slice of its own): a frame header on
// the heap per frame read or written, a blob list encoded on the heap,
// the blob copied into a singleflight key and a channel per flight, and
// a read deadline per replica push — its timer and closure — do not fit.
func TestRegisterMissAllocations(t *testing.T) {
	const runs = 200
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	e := newClusterEnv(t, 3, 2)

	for _, tc := range []struct {
		name string
		max  float64
		open func(tree *taint.Tree) Client
	}{
		{"Remote", 5, func(tree *taint.Tree) Client {
			c, err := DialSim(n, "tm:1", tree)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"OneAddress", 5, func(tree *taint.Tree) Client {
			return dialOne("tm:1", simDialer(n, "app:1"), tree, ResilientOptions{})
		}},
		{"Cluster", 5, func(tree *taint.Tree) Client {
			c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := taint.NewTree()
			c := tc.open(tree)
			defer c.Close()
			// Every member's connections and peer links are up before
			// counting: AllocsPerRun's warm-up run registers one taint only.
			for i := 0; i < 16; i++ {
				if _, err := c.Register(tree.NewSource(fmt.Sprintf("warm-%d", i), "app:1")); err != nil {
					t.Fatal(err)
				}
			}
			ts := make([]taint.Taint, runs+1)
			for i := range ts {
				ts[i] = tree.NewSource(fmt.Sprintf("fresh-%d", i), "app:1")
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if id, err := c.Register(ts[next]); err != nil || id == 0 {
					t.Fatalf("register miss = %d, %v", id, err)
				}
				next++
			})
			t.Logf("%.1f allocs per single-taint register miss", allocs)
			if allocs > tc.max {
				t.Fatalf("a single-taint register miss allocates %.1f times, want <= %.0f", allocs, tc.max)
			}
		})
	}
}

// TestSplitBatchDedupsMissList: the miss list holds each unresolved id
// once, in first-seen order, on both sides of the point where the
// deduplication moves from scanning the list to a map — and a lone miss
// allocates the result slice and the list, nothing else.
func TestSplitBatchDedupsMissList(t *testing.T) {
	tree := taint.NewTree()
	for _, distinct := range []int{1, 2, 8, 9, 40} {
		var c cache
		c.put(1000, tree.NewSource("known", "app:1"))
		var ids, want []uint32
		for round := 0; round < 3; round++ {
			for k := 0; k < distinct; k++ {
				ids = append(ids, uint32(1+k), 1000, 0)
			}
		}
		for k := 0; k < distinct; k++ {
			want = append(want, uint32(1+k))
		}
		ts, missing := c.splitBatch(nil, ids)
		if !slices.Equal(missing, want) {
			t.Fatalf("%d distinct misses: missing = %v, want %v", distinct, missing, want)
		}
		for i, id := range ids {
			if (id == 1000) == ts[i].Empty() {
				t.Fatalf("%d distinct misses: position %d (id %d) resolved to %v", distinct, i, id, ts[i])
			}
		}
	}
	var c cache
	one := []uint32{7}
	if allocs := testing.AllocsPerRun(100, func() { c.splitBatch(nil, one) }); allocs > 2 {
		t.Fatalf("splitting a one-id miss allocates %.0f times, want the result and the miss list", allocs)
	}
}

// tapConn records every byte its client writes.
type tapConn struct {
	io.ReadWriteCloser
	tap *wireTap
}

func (c tapConn) Write(p []byte) (int, error) {
	c.tap.mu.Lock()
	c.tap.sent = append(c.tap.sent, p...)
	c.tap.mu.Unlock()
	return c.ReadWriteCloser.Write(p)
}

// wireTap collects the request bytes of every connection dialed through it.
type wireTap struct {
	mu   sync.Mutex
	sent []byte
}

func (w *wireTap) dial(n *netsim.Network, local string) func(addr string) (io.ReadWriteCloser, error) {
	return func(addr string) (io.ReadWriteCloser, error) {
		conn, err := n.DialFrom(local, addr)
		if err != nil {
			return nil, err
		}
		return tapConn{ReadWriteCloser: conn, tap: w}, nil
	}
}

// registerBlobCounts returns, per register frame sent so far, how many
// blobs its list carries; a frame of any other register op fails the test.
func (w *wireTap) registerBlobCounts(t *testing.T) []int {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	var counts []int
	for _, f := range frames(t, [][]byte{w.sent}) {
		switch f[0] {
		case opRegisterBatchTag:
			blobs, err := parseBlobList(f[9:])
			if err != nil {
				t.Fatalf("register frame: %v", err)
			}
			counts = append(counts, len(blobs))
		case 'r':
			t.Fatalf("a register frame of the retired op 'r' went out")
		}
	}
	return counts
}

// TestSingleRegisterWireCapture: a lone Register through each kind of
// client reaches the wire as one register frame carrying one blob — a
// batch of one; there is no other register op.
func TestSingleRegisterWireCapture(t *testing.T) {
	lone := func(t *testing.T, tap *wireTap, c Client, tree *taint.Tree) {
		t.Helper()
		defer c.Close()
		if _, err := c.Register(tree.NewSource("lone", "app:1")); err != nil {
			t.Fatal(err)
		}
		if got := tap.registerBlobCounts(t); !slices.Equal(got, []int{1}) {
			t.Fatalf("blobs per register frame on the wire = %v, want one frame of one", got)
		}
	}
	t.Run("Remote", func(t *testing.T) {
		n := netsim.New()
		srv, err := StartSimServer(n, "tm:1")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var tap wireTap
		conn, err := tap.dial(n, "app:1")("tm:1")
		if err != nil {
			t.Fatal(err)
		}
		tree := taint.NewTree()
		lone(t, &tap, NewRemoteClient(conn, tree), tree)
	})
	t.Run("Resilient", func(t *testing.T) {
		n := netsim.New()
		srv, err := StartSimServer(n, "tm:1")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var tap wireTap
		tree := taint.NewTree()
		lone(t, &tap, dialOne("tm:1", tap.dial(n, "app:1"), tree, ResilientOptions{}), tree)
	})
	t.Run("Cluster", func(t *testing.T) {
		e := newClusterEnv(t, 3, 2)
		var tap wireTap
		tree := taint.NewTree()
		c, err := NewClusterClient(e.ring, tap.dial(e.net, "app:1"), tree, ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lone(t, &tap, c, tree)
	})
}
