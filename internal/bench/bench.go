// Package bench holds the workload drivers of the paper's Table III: one
// runner per real-world system, each running its workload once in a
// given execution mode (original, Phosphor-style intra-node tracking,
// full DisTA) and taint-tracking scenario (SDT or SIM) and reporting what
// it cost. The repository benchmark's paper_tables workload times them
// into Table VI and the §V-F global-taint counts.
package bench

import (
	"fmt"
	"time"

	"dista/internal/taintmap"
)

// Scenario selects the taint-tracking scenario of Table IV.
type Scenario int

// The two scenario kinds of §V-B.
const (
	SDT Scenario = iota + 1 // specific data trace
	SIM                     // system input/output monitor
)

// String returns the paper's abbreviation.
func (s Scenario) String() string {
	switch s {
	case SDT:
		return "SDT"
	case SIM:
		return "SIM"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// RunStats captures one measured execution.
type RunStats struct {
	Duration     time.Duration
	GlobalTaints int   // taints registered in the Taint Map
	DataBytes    int64 // payload bytes through the JNI layer
	WireBytes    int64 // bytes actually on the wire
	// Memos is each node's id -> taint memo at the end of a system run: how
	// many of the Taint Map's ids the node came to hold, and up to which.
	Memos []taintmap.MemoStats
}
