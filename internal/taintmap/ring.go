package taintmap

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// The cluster ring: a consistent-hash mapping from blob content hashes
// to partition owners, plus the replica placement rule.
//
// Each member (one taintmapd instance, one partition) projects ringVnodes
// virtual points onto the 32-bit hash circle; a blob is owned by the
// member whose vnode is the first at or clockwise of hash32(blob). Vnodes
// smooth ownership to within a few percent of uniform and, on membership
// change, move only ~1/N of future registrations to the joiner.
//
// Replica placement is per-PARTITION, not per-key: partition P's
// replicas are the RF-1 members that follow P in partition-index order
// (wrapping). Per-key successor walks would make the replica set of an
// id depend on the blob's hash — unknowable to a client holding only
// the id. Partition-ordered placement keeps lookup routing stateless:
// PartitionOf(id) names the owner, and the replica set follows from the
// ring alone.
const (
	ringVnodes = 256

	// DefaultReplication is the replication factor (owner + copies) a
	// cluster runs at unless configured otherwise.
	DefaultReplication = 2
)

// Member is one server in the ring.
type Member struct {
	Part uint32 // partition index, unique in the ring
	Addr string // dial address of the member's server
}

// Ring is an immutable cluster membership snapshot. Build with NewRing;
// share freely (all methods are read-only).
type Ring struct {
	Epoch   uint64 // monotonically increasing membership version
	RF      int    // replication factor (owner + RF-1 successors)
	members []Member

	points []ringPoint // vnode points, sorted by hash
	byPart map[uint32]Member
}

type ringPoint struct {
	hash uint32
	part uint32
}

// hash32 is FNV-1a over the blob — the content hash that picks a blob's
// owning partition on the ring; unkeyed, so every client picks the same.
func hash32(blob []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range blob {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// mix32 is the murmur3 32-bit finalizer: a full-avalanche bijection used
// to spread vnode points (whose pre-hash inputs differ in few bits)
// uniformly around the hash circle.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// NewRing builds a ring over the given members. Partition indices must
// be unique and in range; members are kept in partition order. rf is
// clamped to [1, len(members)].
func NewRing(epoch uint64, rf int, members []Member) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("taintmap: ring with no members")
	}
	if rf < 1 {
		rf = 1
	}
	if rf > len(members) {
		rf = len(members)
	}
	r := &Ring{
		Epoch:   epoch,
		RF:      rf,
		members: append([]Member(nil), members...),
		byPart:  make(map[uint32]Member, len(members)),
	}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].Part < r.members[j].Part })
	for _, m := range r.members {
		if err := checkPartition(m.Part); err != nil {
			return nil, err
		}
		if _, dup := r.byPart[m.Part]; dup {
			return nil, fmt.Errorf("taintmap: ring has duplicate partition %d", m.Part)
		}
		r.byPart[m.Part] = m
	}
	r.points = make([]ringPoint, 0, len(members)*ringVnodes)
	var key [8]byte
	for _, m := range r.members {
		binary.BigEndian.PutUint32(key[:4], m.Part)
		for v := 0; v < ringVnodes; v++ {
			binary.BigEndian.PutUint32(key[4:], uint32(v))
			// FNV over near-sequential keys clusters; the murmur-style
			// finalizer avalanches the points evenly around the circle.
			r.points = append(r.points, ringPoint{hash: mix32(hash32(key[:])), part: m.Part})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.part < b.part // deterministic tie-break
	})
	return r, nil
}

// Members returns the ring's members in partition order. The caller
// must not mutate the returned slice.
func (r *Ring) Members() []Member { return r.members }

// Member returns the member owning the given partition.
func (r *Ring) Member(part uint32) (Member, bool) {
	m, ok := r.byPart[part]
	return m, ok
}

// Owner returns the partition owning the given content hash: the first
// vnode at or clockwise of h. The binary search is hand-rolled: this
// sits on every registration miss, and sort.Search's closure calls are
// a measurable fraction of the routing cost at that frequency.
func (r *Ring) Owner(h uint32) uint32 {
	points := r.points
	lo, hi := 0, len(points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(points) {
		lo = 0
	}
	return points[lo].part
}

// OwnerOfBlob returns the partition owning a blob's content. A
// single-member ring owns everything, so the degenerate single-server
// deployment skips the content hash and the vnode search entirely —
// the cluster client must cost (almost) nothing over a plain client
// when there is nothing to route between.
func (r *Ring) OwnerOfBlob(blob []byte) uint32 {
	if len(r.members) == 1 {
		return r.members[0].Part
	}
	return r.Owner(hash32(blob))
}

// appendReplicas appends to out the partitions holding ids of partition
// part, owner first, then its RF-1 successors — the partitions its owner
// replicates to — in partition-index order (wrapping). Works for any
// in-range part, even one not (or no longer) in the ring: ids minted
// under an older epoch must stay resolvable after the minter leaves.
func (r *Ring) appendReplicas(out []uint32, part uint32) []uint32 {
	n, start := len(r.members), len(out)
	// From the first member with Part >= part (the owner, skipped below);
	// the owner comes first even when absent, for routing order.
	i := sort.Search(n, func(i int) bool { return r.members[i].Part >= part })
	out = append(out, part)
	for len(out)-start < r.RF {
		if i >= n {
			i = 0
		}
		if p := r.members[i].Part; p != part {
			out = append(out, p)
		}
		i++
	}
	return out
}

// WithMember returns a new ring at epoch+1 with m added (or its address
// updated if the partition is already present), at the same RF cap.
func (r *Ring) WithMember(m Member) (*Ring, error) {
	members := make([]Member, 0, len(r.members)+1)
	for _, old := range r.members {
		if old.Part != m.Part {
			members = append(members, old)
		}
	}
	members = append(members, m)
	return NewRing(r.Epoch+1, r.RF, members)
}

// Ring wire encoding (the payload of the 'g' reply and the 'j'
// request/reply): epoch u64, rf u8, count u8, then per member part u8
// and addr u16-prefixed. Bounded and length-checked like every other
// frame payload.
const maxAddrLen = 1 << 10

// appendMember appends the wire form of one member (the 'j' join
// request payload): part u8, addr u16-prefixed.
func appendMember(buf []byte, m Member) []byte {
	buf = append(buf, byte(m.Part))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Addr)))
	return append(buf, m.Addr...)
}

// parseMember decodes one member encoding, rejecting trailing bytes.
func parseMember(payload []byte) (Member, error) {
	if len(payload) < 3 {
		return Member{}, fmt.Errorf("taintmap: member payload of %d bytes", len(payload))
	}
	part := uint32(payload[0])
	alen := int(binary.BigEndian.Uint16(payload[1:3]))
	if alen > maxAddrLen || len(payload) != 3+alen {
		return Member{}, fmt.Errorf("taintmap: malformed member payload")
	}
	if err := checkPartition(part); err != nil {
		return Member{}, err
	}
	return Member{Part: part, Addr: string(payload[3 : 3+alen])}, nil
}

// appendRing appends the wire form of r to buf.
func appendRing(buf []byte, r *Ring) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
	buf = append(buf, byte(r.RF), byte(len(r.members)))
	for _, m := range r.members {
		buf = append(buf, byte(m.Part))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Addr)))
		buf = append(buf, m.Addr...)
	}
	return buf
}

// parseRing decodes a ring payload, validating every length.
func parseRing(payload []byte) (*Ring, error) {
	if len(payload) < 10 {
		return nil, fmt.Errorf("taintmap: ring payload too short (%d bytes)", len(payload))
	}
	epoch := binary.BigEndian.Uint64(payload)
	rf := int(payload[8])
	n := int(payload[9])
	payload = payload[10:]
	if n == 0 || n > MaxPartitions {
		return nil, fmt.Errorf("taintmap: ring member count %d out of range", n)
	}
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		if len(payload) < 3 {
			return nil, fmt.Errorf("taintmap: truncated ring member")
		}
		part := uint32(payload[0])
		alen := int(binary.BigEndian.Uint16(payload[1:3]))
		payload = payload[3:]
		if alen > maxAddrLen {
			return nil, fmt.Errorf("taintmap: ring member address length %d exceeds limit", alen)
		}
		if len(payload) < alen {
			return nil, fmt.Errorf("taintmap: truncated ring member address")
		}
		members = append(members, Member{Part: part, Addr: string(payload[:alen])})
		payload = payload[alen:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("taintmap: %d trailing bytes after ring members", len(payload))
	}
	return NewRing(epoch, rf, members)
}
