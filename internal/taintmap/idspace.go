package taintmap

import "fmt"

// Global-ID bit layout for the partitioned Taint Map.
//
// A Global ID is 32 bits, carved into three fields that may never
// overlap (TestIDSpaceLayout checks it on every test run):
//
//	bit  31      — scopedBit: scopedBit | k names the k-th taint one
//	               stream defined inline while its sender's Taint Map
//	               was down (instrument) — in that stream alone: no
//	               server mints one, no memo, store or client takes one.
//	bits 27..30  — partition index: which cluster partition minted the
//	               id. A standalone server is partition 0, so every
//	               pre-cluster id remains valid and routable.
//	bits 0..26   — per-partition sequence, allocated densely from 1.
//
// Embedding the partition in the id makes lookup routing stateless —
// any client can tell from the id alone which partition owns it and
// which replicas may hold it — and makes id allocation coordination-free
// across servers: no partition can ever mint an id another partition
// already owns. The cost is capacity: 2^27-1 (~134M) distinct
// cross-node taints per partition instead of 2^31 for the whole map.
const (
	// partitionBits is how many id bits address partitions; MaxPartitions
	// servers can form one logical Taint Map.
	partitionBits = 4
	// partitionShift places the partition field directly below the
	// scoped bit.
	partitionShift = 31 - partitionBits
	// partitionMask selects the partition field.
	partitionMask uint32 = ((1 << partitionBits) - 1) << partitionShift
	// seqMask selects the per-partition sequence field.
	seqMask uint32 = (1 << partitionShift) - 1

	// scopedBit marks a stream-scoped id.
	scopedBit uint32 = 1 << 31

	// MaxPartitions is the cluster size limit imposed by the id layout.
	MaxPartitions = 1 << partitionBits
)

// StreamScopedID returns the id of the k-th taint (k from 1) a stream
// defines inline.
func StreamScopedID(k int) uint32 { return scopedBit | uint32(k) }

// IsStreamScoped reports whether id is stream-scoped, not a Global ID.
func IsStreamScoped(id uint32) bool { return id&scopedBit != 0 }

// PartitionOf extracts the partition index that minted id.
func PartitionOf(id uint32) uint32 {
	return (id & partitionMask) >> partitionShift
}

// SeqOf extracts the per-partition sequence number of id.
func SeqOf(id uint32) uint32 { return id & seqMask }

// partitionBase returns the id-space base of a partition: every id the
// partition mints is partitionBase(part) | seq.
func partitionBase(part uint32) uint32 { return part << partitionShift }

// checkPartition validates a partition index against the id layout.
func checkPartition(part uint32) error {
	if part >= MaxPartitions {
		return fmt.Errorf("taintmap: partition %d out of range (max %d)", part, MaxPartitions-1)
	}
	return nil
}
