package taintmap

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

func TestStoreRegisterIdempotent(t *testing.T) {
	s := NewStore()
	a := s.RegisterBlob([]byte("taintA"))
	b := s.RegisterBlob([]byte("taintB"))
	if a == b {
		t.Fatal("distinct blobs must get distinct ids")
	}
	if again := s.RegisterBlob([]byte("taintA")); again != a {
		t.Fatalf("re-register returned %d, want %d", again, a)
	}
	st := s.Stats()
	if st.GlobalTaints != 2 || st.Registrations != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreIDsStartAtOne(t *testing.T) {
	s := NewStore()
	if id := s.RegisterBlob([]byte("x")); id != 1 {
		t.Fatalf("first id = %d, want 1 (0 is the untainted marker)", id)
	}
}

func TestStoreLookupUnknown(t *testing.T) {
	s := NewStore()
	if _, err := s.LookupBlob(99); !errors.Is(err, ErrUnknownGlobalID) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreBlobCopied(t *testing.T) {
	s := NewStore()
	blob := []byte("mutate-me")
	id := s.RegisterBlob(blob)
	blob[0] = 'X'
	got, err := s.LookupBlob(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("mutate-me")) {
		t.Fatal("store must copy blobs at the boundary")
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore()
	if id := s.RegisterBlob([]byte("x")); id != 1 {
		t.Fatalf("first id = %d, want 1", id)
	}
	s.Reset()
	if st := s.Stats(); st.GlobalTaints != 0 || st.Registrations != 0 {
		t.Fatalf("after reset stats = %+v", st)
	}
	if id := s.RegisterBlob([]byte("y")); id != 1 {
		t.Fatalf("ids must restart at 1, got %d", id)
	}
}

func TestLocalClientRoundTrip(t *testing.T) {
	store := NewStore()
	senderTree := taint.NewTree()
	sender := NewLocalClient(store, senderTree)
	receiverTree := taint.NewTree()
	receiver := NewLocalClient(store, receiverTree)

	t1 := senderTree.NewSource("vote", "n1:1")
	id, err := sender.Register(t1)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("tainted value must get a nonzero id")
	}
	if t1.GlobalID() != id {
		t.Fatal("Register must record the id on the taint (Fig. 9 step ②)")
	}

	got, err := receiver.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if !taint.SameSet(got, t1) {
		t.Fatalf("lookup = %v, want %v", got, t1)
	}
	if got.Tree() != receiverTree {
		t.Fatal("looked-up taint must live in the receiver's tree")
	}
}

func TestLocalClientRegisterCaching(t *testing.T) {
	store := NewStore()
	tree := taint.NewTree()
	c := NewLocalClient(store, tree)
	t1 := tree.NewSource("t1", "n1:1")
	if _, err := c.Register(t1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(t1); err != nil {
		t.Fatal(err)
	}
	// Fig. 9 step ② note: the second send of the same taint must not
	// re-contact the Taint Map.
	if st := store.Stats(); st.Registrations != 1 {
		t.Fatalf("registrations = %d, want 1", st.Registrations)
	}
}

func TestLocalClientLookupCaching(t *testing.T) {
	store := NewStore()
	tree := taint.NewTree()
	src := NewLocalClient(store, taint.NewTree())
	id, err := src.Register(func() taint.Taint {
		tr := taint.NewTree()
		return tr.NewSource("x", "l")
	}())
	if err != nil {
		t.Fatal(err)
	}
	c := NewLocalClient(store, tree)
	if _, err := c.Lookup(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(id); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Lookups != 1 {
		t.Fatalf("lookups = %d, want 1 (client cache)", st.Lookups)
	}
}

func TestClientZeroIDMeansUntainted(t *testing.T) {
	c := NewLocalClient(NewStore(), taint.NewTree())
	id, err := c.Register(taint.Taint{})
	if err != nil || id != 0 {
		t.Fatalf("Register(empty) = %d, %v", id, err)
	}
	got, err := c.Lookup(0)
	if err != nil || !got.Empty() {
		t.Fatalf("Lookup(0) = %v, %v", got, err)
	}
}

func startSim(t *testing.T) (*netsim.Network, *Server) {
	t.Helper()
	n := netsim.New()
	srv, err := StartSimServer(n, "taintmap:7")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return n, srv
}

func TestRemoteClientRoundTrip(t *testing.T) {
	n, srv := startSim(t)

	senderTree := taint.NewTree()
	sender, err := DialSim(n, "taintmap:7", senderTree)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	receiverTree := taint.NewTree()
	receiver, err := DialSim(n, "taintmap:7", receiverTree)
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()

	t1 := senderTree.NewSource("zxid2", "n1:100")
	t2 := taint.Combine(t1, senderTree.NewSource("epoch", "n1:100"))
	id1, err := sender.Register(t1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := sender.Register(t2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 || id1 == 0 || id2 == 0 {
		t.Fatalf("ids = %d, %d", id1, id2)
	}

	got1, err := receiver.Lookup(id1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := receiver.Lookup(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !taint.SameSet(got1, t1) || !taint.SameSet(got2, t2) {
		t.Fatalf("lookups = %v / %v", got1, got2)
	}
	if got := srv.Store().Stats().GlobalTaints; got != 2 {
		t.Fatalf("global taints = %d, want 2", got)
	}
}

func TestRemoteClientStats(t *testing.T) {
	n, _ := startSim(t)
	tree := taint.NewTree()
	c, err := DialSim(n, "taintmap:7", tree)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(tree.NewSource("a", "l")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.GlobalTaints != 1 || st.Registrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoteClientUnknownID(t *testing.T) {
	n, _ := startSim(t)
	c, err := DialSim(n, "taintmap:7", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup(12345); err == nil {
		t.Fatal("lookup of unknown id must error")
	}
	// The connection must survive a server-side error.
	if _, err := c.Register(taint.NewTree().NewSource("x", "l")); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestRemoteClientConcurrent(t *testing.T) {
	n, srv := startSim(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tree := taint.NewTree()
			c, err := DialSim(n, "taintmap:7", tree)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				tt := tree.NewSource("shared", "common:1")
				if i%2 == 1 {
					tt = taint.Combine(tt, tree.NewSource("extra", "common:1"))
				}
				if _, err := c.Register(tt); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// All goroutines register the same two taint sets: dedupe must hold.
	if got := srv.Store().Stats().GlobalTaints; got != 2 {
		t.Fatalf("global taints = %d, want 2", got)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	n, srv := startSim(t)
	c, err := DialSim(n, "taintmap:7", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.Register(taint.NewTree().NewSource("x", "l")); err == nil {
		t.Fatal("register after server close must fail")
	}
}

func TestQuickStoreBijection(t *testing.T) {
	s := NewStore()
	f := func(blobs [][]byte) bool {
		for _, b := range blobs {
			if len(b) > maxFrame {
				continue
			}
			id := s.RegisterBlob(b)
			got, err := s.LookupBlob(id)
			if err != nil || !bytes.Equal(got, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestServerShutdown: Shutdown returns as soon as the last connection has
// gone, however long its grace, and at the grace it force-closes a
// connection that lingers.
func TestServerShutdown(t *testing.T) {
	start := func(t *testing.T) (*Server, *RemoteClient) {
		n := netsim.New()
		srv, err := StartSimServer(n, "tm:1")
		if err != nil {
			t.Fatal(err)
		}
		tree := taint.NewTree()
		c, err := DialSim(n, "tm:1", tree)
		if err != nil {
			t.Fatal(err)
		}
		// A round trip: the server holds the connection from here on.
		if _, err := c.Register(tree.NewSource("live", "app:1")); err != nil {
			t.Fatal(err)
		}
		return srv, c
	}
	shutdown := func(srv *Server, grace time.Duration) <-chan error {
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(grace) }()
		return done
	}

	t.Run("last connection closes", func(t *testing.T) {
		srv, c := start(t)
		done := shutdown(srv, time.Hour)
		select {
		case err := <-done:
			t.Fatalf("Shutdown returned with a connection open: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		closed := time.Now()
		c.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("Shutdown returned %v after the last connection closed", time.Since(closed))
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown still waits after the last connection closed")
		}
	})

	t.Run("grace runs out", func(t *testing.T) {
		srv, c := start(t)
		defer c.Close()
		const grace = 50 * time.Millisecond
		began := time.Now()
		select {
		case <-shutdown(srv, grace):
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown outlived its grace by seconds")
		}
		if took := time.Since(began); took < grace {
			t.Fatalf("Shutdown returned after %v, inside its %v grace, with a connection open", took, grace)
		}
		if _, err := c.Register(taint.NewTree().NewSource("late", "app:1")); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("a register on the lingering connection = %v, want ErrClientClosed", err)
		}
	})
}
