package taintmap

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzClusterServeConn is FuzzServeConn for a clustered server: the same
// arbitrary byte streams, served by a connHost carrying a ClusterNode
// whose peer dials always fail (so replication and join gossip take the
// hinted/best-effort paths without a network). The cluster ops — ring
// snapshot, join, replicate — must never panic, and everything
// written back must be complete well-formed response frames.
func FuzzClusterServeConn(f *testing.F) {
	entries := appendEntries(nil, []uint32{partitionBase(1) | 1, partitionBase(1) | 2},
		[][]byte{[]byte("blob-a"), []byte("blob-b")})
	ownEntries := appendEntries(nil, []uint32{partitionBase(0) | 3}, [][]byte{[]byte("blob-own")})

	// The whole cluster vocabulary.
	f.Add(taggedReq(opRingTag, 1, nil))
	f.Add(taggedReq(opJoinTag, 2, appendMember(nil, Member{Part: 2, Addr: "c:1"})))
	f.Add(taggedReq(opJoinTag, 12, appendMember(nil, Member{Part: 3, Addr: "d:1"})))
	f.Add(taggedReq(opReplicateTag, 3, entries))
	f.Add(taggedReq(opReplicateTag, 13, ownEntries))
	// The retired repair op, refused on its first byte: a read-repair is
	// a replicate push.
	f.Add(taggedReq('w', 4, entries))
	// Interleaved with ordinary traffic: a register that triggers the
	// synchronous replication path before its reply.
	f.Add(append(loneRegisterReq(14, []byte("fresh")), taggedReq(opRingTag, 5, nil)...))
	// The same vocabulary in the removed untagged framing, which must be
	// rejected on its first byte.
	f.Add(untaggedReq('G', nil))
	f.Add(untaggedReq('J', appendMember(nil, Member{Part: 3, Addr: "d:1"})))
	f.Add(untaggedReq('P', ownEntries))
	f.Add(untaggedReq('W', entries))
	f.Add(append(untaggedReq('R', []byte("fresh")), taggedReq(opRingTag, 5, nil)...))
	// Malformed cluster payloads: truncated member, trailing bytes,
	// absurd entry counts, stream-scoped/zero-seq ids in entries.
	f.Add(taggedReq(opJoinTag, 6, []byte{2, 0}))
	f.Add(taggedReq(opJoinTag, 7, append(appendMember(nil, Member{Part: 1, Addr: "b:2"}), 0xFF)))
	f.Add(taggedReq(opReplicateTag, 8, []byte{0xFF, 0xFF, 0xFF, 0xFF}))
	f.Add(taggedReq(opReplicateTag, 9, appendEntries(nil, []uint32{scopedBit | 5}, [][]byte{[]byte("x")})))
	f.Add(taggedReq(opReplicateTag, 10, appendEntries(nil, []uint32{partitionBase(2)}, [][]byte{[]byte("x")})))
	f.Add(taggedReq(opReplicateTag, 11, append(entries, 0xAA)))

	f.Fuzz(func(t *testing.T, data []byte) {
		store := NewStore()
		node, err := NewClusterNode(Member{Part: 0, Addr: "a:1"},
			[]Member{{Part: 0, Addr: "a:1"}, {Part: 1, Addr: "b:1"}}, 2,
			func(addr string) (io.ReadWriteCloser, error) {
				return nil, errors.New("fuzz: no network")
			})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		conn := &fuzzConn{r: bytes.NewReader(data)}
		_ = serveConn(connHost{store: store, node: node}, conn, 0)

		checkReplyStream(t, conn.w.Bytes())
	})
}

// FuzzParseRing throws random bytes at the ring wire parser: it must
// never panic, and any ring it accepts must survive an encode/parse
// round trip unchanged (after NewRing's normalization — member sort and
// rf clamp — which the encoder always emits).
func FuzzParseRing(f *testing.F) {
	r, _ := NewRing(3, 2, []Member{{Part: 0, Addr: "a:1"}, {Part: 2, Addr: "c:1"}})
	f.Add(appendRing(nil, r))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 2, 0})                     // zero members
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 1, 'x', 0xFF}) // trailing byte
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0xFF, 0xFF})      // absurd addr length
	f.Add(appendMember(nil, Member{Part: 1, Addr: "b:1"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseRing(data)
		if err != nil {
			return
		}
		re := appendRing(nil, r)
		r2, err := parseRing(re)
		if err != nil {
			t.Fatalf("re-parse of encoded ring failed: %v", err)
		}
		if r2.Epoch != r.Epoch || r2.RF != r.RF || len(r2.Members()) != len(r.Members()) {
			t.Fatalf("ring changed across roundtrip: %+v vs %+v", r, r2)
		}
		for i, m := range r2.Members() {
			if m != r.Members()[i] {
				t.Fatalf("member %d changed across roundtrip", i)
			}
		}
		// The member parser shares the hardening contract.
		if m, err := parseMember(data); err == nil {
			if m2, err := parseMember(appendMember(nil, m)); err != nil || m2 != m {
				t.Fatalf("member roundtrip: %+v, %v", m2, err)
			}
		}
	})
}
