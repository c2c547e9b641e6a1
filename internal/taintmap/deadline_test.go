package taintmap

import (
	"errors"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// TestCallDeadlineExpired: a deadline already in the past fails
// immediately with ErrDeadlineExceeded, before anything is sent.
func TestCallDeadlineExpired(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := DialSim(n, "tm:7", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.call(opStatsTag, nil, time.Now().Add(-time.Second)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline = %v, want ErrDeadlineExceeded", err)
	}
}

// TestCallDeadlineStalledServer is the gray-failure contract of the
// per-call deadline: a lookup against a stalled (alive but silent)
// server returns ErrDeadlineExceeded at the deadline instead of
// hanging, the connection survives, and once the server thaws the same
// connection serves calls again — the late reply is discarded, not
// misdelivered.
func TestCallDeadlineStalledServer(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	seedTree := taint.NewTree()
	seed, err := DialSim(n, "tm:7", seedTree)
	if err != nil {
		t.Fatal(err)
	}
	id, err := seed.Register(seedTree.NewSource("stall-probe", "h:1"))
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	rc, err := DialSim(n, "tm:7", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	n.SetHostStall("tm", true)
	start := time.Now()
	_, err = rc.lookupDeadline([]uint32{id}, time.Now().Add(50*time.Millisecond))
	took := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("lookup under stall = %v, want ErrDeadlineExceeded", err)
	}
	if took > 2*time.Second {
		t.Fatalf("deadline fired after %v, want ~50ms", took)
	}
	// ErrDeadlineExceeded must NOT count as a connection failure.
	if isConnErr(err) {
		t.Fatalf("ErrDeadlineExceeded classified as a connection error")
	}

	n.SetHostStall("tm", false)
	got, err := rc.Lookup(id)
	if err != nil {
		t.Fatalf("lookup after thaw on same connection: %v", err)
	}
	if got.Empty() {
		t.Fatalf("lookup after thaw returned empty taint")
	}
}

// TestCallDeadlineBatch: the batch path honors the deadline too.
func TestCallDeadlineBatch(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	seedTree := taint.NewTree()
	seed, err := DialSim(n, "tm:7", seedTree)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := seed.RegisterBatch([]taint.Taint{
		seedTree.NewSource("batch-a", "h:1"),
		seedTree.NewSource("batch-b", "h:1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	rc, err := DialSim(n, "tm:7", taint.NewTree())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	n.SetHostStall("tm", true)
	defer n.SetHostStall("tm", false)
	if _, err := rc.lookupDeadline(ids, time.Now().Add(50*time.Millisecond)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("batch lookup under stall = %v, want ErrDeadlineExceeded", err)
	}
}
