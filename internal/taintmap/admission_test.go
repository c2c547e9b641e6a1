package taintmap

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// TestAdmissionGate exercises the semaphore directly: maxActive slots
// execute, maxWait callers queue, and everything beyond sheds.
func TestAdmissionGate(t *testing.T) {
	a := newAdmission(1, 1)
	if !a.admit() {
		t.Fatal("first admit refused")
	}
	// One waiter fits the queue; it must block until release.
	admitted := make(chan bool, 1)
	go func() { admitted <- a.admit() }()
	for i := 0; i < 100 && a.queued.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-admitted:
		t.Fatal("queued caller admitted while the slot was held")
	default:
	}
	// Queue is full now: the next caller sheds immediately.
	if a.admit() {
		t.Fatal("over-queue admit granted")
	}
	a.release()
	select {
	case ok := <-admitted:
		if !ok {
			t.Fatal("queued caller shed after a slot freed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued caller never admitted")
	}
	a.release()

	if got := a.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if got := a.queued.Load(); got != 1 {
		t.Fatalf("queued = %d, want 1", got)
	}
	if got := a.admitted.Load(); got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
}

// TestAdmissionShedReply: a server whose gate is saturated answers
// ErrOverloaded on the wire instead of stalling or dropping — the
// client sees a typed error it can match with errors.Is.
func TestAdmissionShedReply(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(), simAcceptor{l: l, clk: n.Clock()}, nil, WithAdmission(1, 0))
	srv.Start()
	defer srv.Close()

	// Saturate the single slot from the outside so the next request has
	// nowhere to queue.
	srv.adm.admit()

	tree := taint.NewTree()
	rc, err := DialSim(n, "tm:1", tree)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, err = rc.Register(tree.NewSource("shed-me", "h:1"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("register against saturated gate = %v, want ErrOverloaded", err)
	}

	// Once the gate frees, the same connection serves normally.
	srv.adm.release()
	id, err := rc.Register(tree.NewSource("shed-me", "h:1"))
	if err != nil || id == 0 {
		t.Fatalf("register after gate freed = %d, %v", id, err)
	}

	st := srv.Stats()
	if st.ShedReqs == 0 {
		t.Fatalf("Stats().ShedReqs = 0, want > 0")
	}
	if st.AdmittedReqs == 0 {
		t.Fatalf("Stats().AdmittedReqs = 0, want > 0")
	}
}

// TestAdmissionPassesReplicaPushes: a member whose one slot is taken
// still takes its predecessor's replica push, so a register the owner
// admitted is replicated, not hinted — while the member's own clients
// are shed.
func TestAdmissionPassesReplicaPushes(t *testing.T) {
	e := newClusterEnvOpts(t, 3, 2, WithAdmission(1, 0))
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e.srvs[1].adm.admit() // member 1's one slot, held
	defer e.srvs[1].adm.release()
	for i := 0; ; i++ {
		tt := tree.NewSource(fmt.Sprintf("pushed-%d", i), "app:1")
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		owner := e.ring.OwnerOfBlob(blob)
		if reps := e.ring.appendReplicas(nil, owner); owner == 1 || reps[1] != 1 {
			continue
		}
		id, err := c.Register(tt)
		if err != nil {
			t.Fatalf("a register owner %d admitted: %v", owner, err)
		}
		if got, err := e.stores[1].LookupBlob(id); err != nil || string(got) != string(blob) {
			t.Fatalf("member 1 holds %#x as %q, %v: the push was shed", id, got, err)
		}
		if hinted := e.nodes[owner].Hinted(); hinted != 0 {
			t.Fatalf("owner %d hinted %d pushes", owner, hinted)
		}
		break
	}
	if st := e.srvs[1].Stats(); st.ShedReqs != 0 || st.AdmittedReqs != 1 {
		t.Fatalf("member 1 admitted %d and shed %d requests; want only the held slot", st.AdmittedReqs, st.ShedReqs)
	}
}

// TestBrownoutOverCap: connections over the cap are not silently
// dropped anymore — they get ErrOverloaded replies for the brownout
// grace, then close; connections within the cap are unaffected.
func TestBrownoutOverCap(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(), simAcceptor{l: l, clk: n.Clock()}, nil, WithMaxConns(1))
	srv.Start()
	defer srv.Close()

	tree := taint.NewTree()
	first, err := DialSim(n, "tm:1", tree)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.Register(tree.NewSource("in-cap", "h:1")); err != nil {
		t.Fatalf("in-cap register: %v", err)
	}

	overTree := taint.NewTree()
	over, err := DialSim(n, "tm:1", overTree)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	_, err = over.Register(overTree.NewSource("over-cap", "h:1"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap register = %v, want ErrOverloaded", err)
	}

	// The in-cap connection still works.
	if _, err := first.Register(tree.NewSource("in-cap-2", "h:1")); err != nil {
		t.Fatalf("in-cap register after brownout: %v", err)
	}

	st := srv.Stats()
	if st.ShedConns != 1 {
		t.Fatalf("Stats().ShedConns = %d, want 1", st.ShedConns)
	}
	if st.ActiveConns != 1 {
		t.Fatalf("Stats().ActiveConns = %d, want 1", st.ActiveConns)
	}
}

// TestAdmissionConcurrentLoad drives many goroutines through a small
// gate and checks conservation: every request was admitted or shed,
// and admitted work all completed.
func TestAdmissionConcurrentLoad(t *testing.T) {
	a := newAdmission(2, 2)
	const callers = 32
	var done sync.WaitGroup
	var served, shed int64
	var mu sync.Mutex
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if a.admit() {
				time.Sleep(time.Millisecond)
				a.release()
				mu.Lock()
				served++
				mu.Unlock()
				return
			}
			mu.Lock()
			shed++
			mu.Unlock()
		}()
	}
	done.Wait()
	if served+shed != callers {
		t.Fatalf("served %d + shed %d != %d", served, shed, callers)
	}
	if served == 0 {
		t.Fatal("nothing served")
	}
	if a.admitted.Load() != served {
		t.Fatalf("admitted counter %d != served %d", a.admitted.Load(), served)
	}
	if a.shed.Load() != shed {
		t.Fatalf("shed counter %d != shed %d", a.shed.Load(), shed)
	}
}
