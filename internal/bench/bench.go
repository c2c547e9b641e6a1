// Package bench is the measurement harness of the evaluation (DSN'22
// §V-F): it runs every micro-benchmark case and every real-system
// workload under the three execution modes (original, Phosphor-style
// intra-node tracking, full DisTA) and regenerates the paper's Table V
// and Table VI, the SDT-vs-SIM global-taint analysis, and the
// network-overhead measurement.
package bench

import (
	"fmt"
	"time"

	"dista/internal/core/tracker"
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

// Overhead returns t divided by base as the paper's "X" factor.
func Overhead(t, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return float64(t) / float64(base)
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// modes lists the three execution modes in table order.
var modes = []tracker.Mode{tracker.ModeOff, tracker.ModePhosphor, tracker.ModeDista}
