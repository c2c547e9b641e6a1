package bench

import (
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/wire"
)

// TestWireFormatComparison prices §III-D-2's bandwidth argument for 10,000
// bytes all tainted by one realistic taint (a descriptor-style tag value,
// as the system runners' sources produce): the Global ID design, the
// serialize-the-taint-per-byte alternative, and what a stream sends at the
// taint's first crossing — the id design plus the blob once.
func TestWireFormatComparison(t *testing.T) {
	const n = 10_000
	tree := taint.NewTree()
	blob, err := taint.MarshalTaint(tree.NewSource(
		"org.apache.zookeeper.server.quorum.FastLeaderElection$Notification.vote",
		"192.168.10.21:28841",
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 50 {
		t.Fatalf("unrealistically small taint blob: %d", len(blob))
	}
	globalID := wire.WireLen(n)
	if globalID != 5*n {
		t.Fatalf("global id wire = %d, want 5 bytes per data byte", globalID)
	}
	// "The serialized bytes array can cause far more than [the taint's
	// length in] bandwidth overhead" — the blob design must be at least an
	// order of magnitude worse than the 5x design.
	if inline := n * (1 + 2 + len(blob)); inline < 10*globalID {
		t.Fatalf("inline blob %d not >> global id %d", inline, globalID)
	}
	// The blob once per stream costs one definitions unit: a frame header,
	// an id, a length and the blob.
	definedOnce := globalID + len(wire.AppendDefinitions(nil, []uint32{1}, [][]byte{blob}))
	if extra := definedOnce - globalID; extra != wire.FrameHeaderLen+wire.DefinitionHeadLen+len(blob) {
		t.Fatalf("one definition costs %d wire bytes for a %d-byte blob", extra, len(blob))
	}
}
