package taintmap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// The chaos harness: kill and restart the Taint Map server in the
// middle of a concurrent register/lookup workload and assert that no
// taint resolution is ever lost or wrong. The Store is shared across
// server incarnations (modelling the durable store a production
// deployment restarts on top of); the clients ride the outages on the
// resilience layer — a register while degraded fails with ErrDegraded
// and keeps nothing, and reconnects follow — so every taint submitted
// during the run must end the run re-registering to one real Global ID
// resolving to byte-identical content.

// chaosEnv bundles the pieces every chaos scenario needs.
type chaosEnv struct {
	t     *testing.T
	net   *netsim.Network
	store *Store // survives server restarts

	mu  sync.Mutex
	srv *Server
}

func newChaosEnv(t *testing.T) *chaosEnv {
	e := &chaosEnv{t: t, net: netsim.New(), store: NewStore()}
	e.restart()
	return e
}

// restart brings up a fresh server incarnation on the shared store.
func (e *chaosEnv) restart() {
	l, err := e.net.Listen("tm:chaos")
	if err != nil {
		e.t.Fatalf("chaos listen: %v", err)
	}
	srv := NewServer(e.store, simAcceptor{l: l, clk: e.net.Clock()}, nil,
		WithReadTimeout(200*time.Millisecond), WithMaxConns(64))
	srv.Start()
	e.mu.Lock()
	e.srv = srv
	e.mu.Unlock()
}

// kill force-closes the current incarnation, cutting every connection.
func (e *chaosEnv) kill() {
	e.mu.Lock()
	srv := e.srv
	e.mu.Unlock()
	srv.Close()
}

func (e *chaosEnv) chaosOpts() ResilientOptions {
	return ResilientOptions{
		CallTimeout:      200 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       10 * time.Millisecond,
		BreakerThreshold: 2,
	}
}

// published is one taint whose Global ID a worker obtained while
// healthy, available for cross-client lookup verification.
type published struct {
	id   uint32
	blob string
}

// tolerable reports whether err is an accepted workload error: the
// degraded client refusing an operation it cannot serve locally. A
// chaos run must produce no other error.
func tolerable(err error) bool {
	return errors.Is(err, ErrDegraded)
}

// TestChaosServerRestartUnderLoad kills and restarts the server twice
// under a 8-goroutine 90/10 register/lookup workload, then verifies
// every submitted taint resolves — from a completely fresh client — to
// exactly the bytes that were registered.
func TestChaosServerRestartUnderLoad(t *testing.T) {
	e := newChaosEnv(t)
	defer e.kill()

	tree := taint.NewTree()
	client := dialOne("tm:chaos", simDialer(e.net, "app:1"), tree, e.chaosOpts())
	defer client.Close()

	const goroutines = 8
	const perG = 420

	var ops, refused atomic.Int64
	var pubMu sync.Mutex
	var pub []published
	submitted := make([][]taint.Taint, goroutines)

	// Workers gate on these mid-run so both kill/restart cycles overlap
	// the workload rather than racing past it.
	phase1 := make(chan struct{})
	phase2 := make(chan struct{})

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		submitted[g] = make([]taint.Taint, 0, perG)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i {
				case perG / 3:
					<-phase1
				case 2 * perG / 3:
					<-phase2
				}
				ops.Add(1)
				if i%10 == 9 {
					// Lookup leg: resolve a previously published id.
					pubMu.Lock()
					var p published
					if len(pub) > 0 {
						p = pub[(g*2654435761+i)%len(pub)]
					}
					pubMu.Unlock()
					if p.id == 0 {
						continue
					}
					got, err := client.Lookup(p.id)
					if err != nil {
						if tolerable(err) {
							continue
						}
						errs <- fmt.Errorf("worker %d lookup %d: %w", g, p.id, err)
						return
					}
					blob, err := taint.MarshalTaint(got)
					if err != nil || string(blob) != p.blob {
						errs <- fmt.Errorf("worker %d: lookup of id %d returned wrong taint (%v)", g, p.id, err)
						return
					}
					continue
				}
				// Register leg: a fresh distinct taint. Healthy it reaches
				// the server; degraded it fails with ErrDegraded and is
				// registered again once the run is over.
				tt := tree.NewSource(fmt.Sprintf("chaos-%d-%d", g, i), "app:1")
				submitted[g] = append(submitted[g], tt)
				id, err := client.Register(tt)
				if tolerable(err) {
					refused.Add(1)
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

	// The killer: two kill/restart cycles. Each round kills the server
	// while workers are (or are about to be) mid-workload, releases the
	// phase gate so the workload slams into the dead server, demands
	// forward progress (fast-failing registers) during the outage, and
	// only then restarts. Killing before releasing the gate makes the
	// schedule immune to workers sprinting between the killer's polls.
	killRound := func(release chan struct{}, round string) {
		e.kill()
		close(release)
		down := ops.Load()
		deadline := time.Now().Add(30 * time.Second)
		for ops.Load() < down+100 {
			if !time.Now().Before(deadline) {
				t.Errorf("no workload progress while server down (%s)", round)
				break
			}
			time.Sleep(time.Millisecond)
		}
		e.restart()
		// Hold the next round until the client has actually reconnected;
		// otherwise the rounds blur into one long outage (degraded
		// workers burn through ops much faster than the backoff loop
		// dials).
		deadline = time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if client.Health().Members[0].Connected {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("client never recovered after %s", round)
	}
	go func() {
		for ops.Load() < 200 {
			time.Sleep(time.Millisecond)
		}
		killRound(phase1, "first outage")
		// killRound returned with the client reconnected, so
		// round two is a distinct outage however far the workers got in
		// the meantime (they may already be parked at the phase2 gate).
		killRound(phase2, "second outage")
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Settle: the client must be connected once the server is back.
	h := waitHealth(t, client, "post-chaos reconnect", func(h Health) bool {
		return h.Connected && !h.Degraded
	})
	if h.Reconnects < 2 {
		t.Fatalf("survived the run with %d reconnects, want >= 2", h.Reconnects)
	}
	if refused.Load() == 0 {
		t.Fatal("no registration was ever refused degraded: the kills missed the workload")
	}

	// Zero lost taints: every submitted taint re-registers to a real
	// Global ID, and a completely fresh client resolves that id to
	// byte-identical content. Content addressing also means one id per
	// distinct blob, ever.
	checkTree := taint.NewTree()
	check, err := DialSim(e.net, "tm:chaos", checkTree)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	idOf := make(map[string]uint32)
	total := 0
	for g := range submitted {
		for _, tt := range submitted[g] {
			total++
			id, err := client.Register(tt)
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
	if got := e.store.Stats().GlobalTaints; got != len(idOf) {
		t.Fatalf("store holds %d ids for %d distinct blobs", got, len(idOf))
	}
}

// TestChaosStreamResets runs the register workload under random
// connection resets (every write has a 1%% chance of killing its
// connection): the resilient client must absorb every reset and the
// final state must be exactly as consistent as a fault-free run.
func TestChaosStreamResets(t *testing.T) {
	e := newChaosEnv(t)
	defer e.kill()
	e.net.Reseed(7)

	tree := taint.NewTree()
	client := dialOne("tm:chaos", simDialer(e.net, "app:1"), tree, e.chaosOpts())
	defer client.Close()

	e.net.SetStreamResetRate(0.01)

	const goroutines = 4
	const perG = 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	submitted := make([][]taint.Taint, goroutines)
	for g := 0; g < goroutines; g++ {
		submitted[g] = make([]taint.Taint, 0, perG)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tt := tree.NewSource(fmt.Sprintf("reset-%d-%d", g, i), "app:1")
				if _, err := client.Register(tt); err != nil && !tolerable(err) {
					errs <- fmt.Errorf("worker %d register %d: %w", g, i, err)
					return
				}
				submitted[g] = append(submitted[g], tt)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	e.net.SetStreamResetRate(0)
	waitHealth(t, client, "reconnect after resets stop", func(h Health) bool {
		return h.Connected && !h.Degraded
	})

	checkTree := taint.NewTree()
	check, err := DialSim(e.net, "tm:chaos", checkTree)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	for g := range submitted {
		for _, tt := range submitted[g] {
			id, err := client.Register(tt)
			if err != nil || id == 0 || IsStreamScoped(id) {
				t.Fatalf("post-run register = %d, %v", id, err)
			}
			got, err := check.Lookup(id)
			if err != nil || !taint.SameSet(got, tt) {
				t.Fatalf("lookup of id %d after reset storm: %v, %v", id, got, err)
			}
		}
	}
}
