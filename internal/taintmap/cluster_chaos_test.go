package taintmap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dista/internal/core/taint"
)

// Cluster chaos: run the 8-goroutine mixed workload against a 3-member
// RF-2 cluster while the netsim fault plane cuts whole partitions away
// — each member in turn — and assert the logical map never loses or
// corrupts a resolution. During an outage the cut member's registers
// fail with ErrDegraded and its owner pushes become hinted handoffs;
// after the final heal every submitted taint must re-register to one id
// that resolves, from a completely fresh client, to byte-identical
// content.

// tolerableClusterLookup reports whether a mid-outage lookup error is
// accepted: the member being down (ErrDegraded / a timed-out call) or a
// transient replication gap — an id whose only surviving copy is behind
// the active partition (read-repair closes the gap once the cut heals).
// Wrong bytes are never tolerated, and the post-run verification — the
// actual zero-lost-resolution check — tolerates nothing at all.
func tolerableClusterLookup(err error) bool {
	return errors.Is(err, ErrDegraded) ||
		errors.Is(err, ErrCallTimeout) ||
		errors.Is(err, ErrUnknownGlobalID)
}

func TestChaosClusterPartitionKill(t *testing.T) {
	e := newClusterEnv(t, 3, 2)
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, ClusterOptions{
		Resilient: ResilientOptions{
			CallTimeout:      200 * time.Millisecond,
			BackoffBase:      time.Millisecond,
			BackoffMax:       10 * time.Millisecond,
			BreakerThreshold: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines = 8
	const perG = 360

	var ops atomic.Int64
	var pubMu sync.Mutex
	var pub []published
	submitted := make([][]taint.Taint, goroutines)

	// One gate per outage round so every cut overlaps live load.
	gates := [3]chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		submitted[g] = make([]taint.Taint, 0, perG)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i {
				case perG / 4:
					<-gates[0]
				case 2 * perG / 4:
					<-gates[1]
				case 3 * perG / 4:
					<-gates[2]
				}
				ops.Add(1)
				if i%10 == 9 {
					pubMu.Lock()
					var p published
					if len(pub) > 0 {
						p = pub[(g*2654435761+i)%len(pub)]
					}
					pubMu.Unlock()
					if p.id == 0 {
						continue
					}
					got, err := c.Lookup(p.id)
					if err != nil {
						if tolerableClusterLookup(err) {
							continue
						}
						errs <- fmt.Errorf("worker %d lookup %d: %w", g, p.id, err)
						return
					}
					blob, err := taint.MarshalTaint(got)
					if err != nil || string(blob) != p.blob {
						errs <- fmt.Errorf("worker %d: id %d resolved to wrong taint (%v)", g, p.id, err)
						return
					}
					continue
				}
				// Register leg: the owner reachable it registers, the owner
				// cut away it fails with ErrDegraded and is registered
				// again once the run is over.
				tt := tree.NewSource(fmt.Sprintf("ckill-%d-%d", g, i), "app:1")
				submitted[g] = append(submitted[g], tt)
				id, err := c.Register(tt)
				if errors.Is(err, ErrDegraded) {
					continue
				}
				if err != nil || id == 0 || IsStreamScoped(id) {
					errs <- fmt.Errorf("worker %d register %d = %#x, %w", g, i, id, err)
					return
				}
				blob, err := taint.MarshalTaint(tt)
				if err != nil {
					errs <- err
					return
				}
				pubMu.Lock()
				pub = append(pub, published{id: id, blob: string(blob)})
				pubMu.Unlock()
			}
		}(g)
	}

	// The killer: cut each member's host off the network in turn — from
	// the clients AND its peers, so replication to it turns into hinted
	// handoff — demand forward progress during the cut, heal, and wait
	// for that member's client handle to reconnect before the next round.
	killRound := func(round int) {
		host := fmt.Sprintf("tm%d", round)
		e.net.Partition(host, "*")
		close(gates[round])
		down := ops.Load()
		deadline := time.Now().Add(30 * time.Second)
		for ops.Load() < down+100 {
			if !time.Now().Before(deadline) {
				t.Errorf("no workload progress with %s cut off", host)
				break
			}
			time.Sleep(time.Millisecond)
		}
		e.net.Heal(host, "*")
		deadline = time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			h := c.Health().Members[uint32(round)]
			if h.Connected && !h.Degraded {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("member %d never recovered after its partition healed", round)
	}
	go func() {
		for ops.Load() < 200 {
			time.Sleep(time.Millisecond)
		}
		for round := 0; round < 3; round++ {
			killRound(round)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Settle: every member connected.
	deadline := time.Now().Add(30 * time.Second)
	for {
		all := true
		for part, h := range c.Health().Members {
			if !h.Connected || h.Degraded {
				all = false
				if !time.Now().Before(deadline) {
					t.Fatalf("member %d still unhealthy after the run: %+v", part, h)
				}
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// At least one round actually hit the replication path: some push
	// was hinted while its target was cut off.
	var hinted int64
	for _, node := range e.nodes {
		hinted += node.Hinted()
	}
	if hinted == 0 {
		t.Fatal("no hinted handoff all run: the partitions missed replication traffic")
	}

	// Zero lost, zero wrong: every submitted taint re-registers to a
	// real id resolving byte-identically from a fresh client, one id per
	// blob, and the partitions together hold exactly the distinct blobs.
	checkTree := taint.NewTree()
	check, err := DialSimCluster(e.net, "verify:1", e.ring, checkTree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	idOf := make(map[string]uint32)
	total := 0
	for g := range submitted {
		for _, tt := range submitted[g] {
			total++
			id, err := c.Register(tt)
			if err != nil {
				t.Fatalf("post-chaos register: %v", err)
			}
			if id == 0 || IsStreamScoped(id) {
				t.Fatalf("taint still unresolved after heal: id %d", id)
			}
			blob, err := taint.MarshalTaint(tt)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := idOf[string(blob)]; ok && prev != id {
				t.Fatalf("blob resolved to ids %d and %d", prev, id)
			}
			idOf[string(blob)] = id
			got, err := check.Lookup(id)
			if err != nil {
				t.Fatalf("fresh-client lookup of id %d: %v", id, err)
			}
			gotBlob, err := taint.MarshalTaint(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotBlob) != string(blob) {
				t.Fatalf("id %d resolved to different bytes after the chaos run", id)
			}
		}
	}
	if total != goroutines*(perG-perG/10) {
		t.Fatalf("submitted %d taints, want %d", total, goroutines*(perG-perG/10))
	}
	minted := 0
	for _, s := range e.stores {
		minted += s.Stats().GlobalTaints
	}
	if minted != len(idOf) {
		t.Fatalf("partitions minted %d ids for %d distinct blobs", minted, len(idOf))
	}
}
