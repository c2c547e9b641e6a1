package main

import (
	"math"
	"math/bits"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// table; the smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the tracker sees, the same four on
// every workload, all from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"overhead_x", "x", "lower", 0.20},
	{"wire_bytes_per_payload_byte", "ratio", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// perLayer is the ledger: what each layer of the exchange costs on the
// workload's own payloads. A row reads 0 on a workload whose ops never
// reach that layer's code.
var perLayer = []metricDef{
	{"taint.label_ns_per_op", "ns", "lower", 0},
	{"taint.scan_ns_per_op", "ns", "lower", 0},
	{"taint.adopt_ns_per_op", "ns", "lower", 0},
	{"taint.runs_per_op", "count", "lower", 0},
	{"taint.combine_ns", "ns", "lower", 0},
	{"taint.marshal_ns_per_taint", "ns", "lower", 0},
	{"taint.unmarshal_ns_per_taint", "ns", "lower", 0},
	{"taint.tree_bytes_per_taint", "B", "lower", 0},

	{"wire.encode_ns_per_op", "ns", "lower", 0},
	{"wire.decode_ns_per_op", "ns", "lower", 0},
	{"wire.encode_ns_per_byte", "ns", "lower", 0},
	{"wire.decode_ns_per_byte", "ns", "lower", 0},
	{"wire.frame_bytes_per_payload_byte", "ratio", "lower", 0},
	{"wire.allocs_per_op", "count", "lower", 0},

	{"instrument.write_ns_per_op", "ns", "lower", 0},
	{"instrument.read_ns_per_op", "ns", "lower", 0},
	{"instrument.write_self_ns", "ns", "lower", 0},
	{"instrument.read_self_ns", "ns", "lower", 0},
	{"instrument.allocs_per_op", "count", "lower", 0},
	{"instrument.frame_share_passthrough", "ratio", "higher", 0},
	{"instrument.frame_share_uniform", "ratio", "higher", 0},
	{"instrument.frame_share_sparse", "ratio", "higher", 0},
	{"instrument.frame_share_groups", "ratio", "lower", 0},
	{"instrument.wire_bytes_per_payload_byte", "ratio", "lower", 0},

	{"jni.socket_write_ns_per_op", "ns", "lower", 0},
	{"jni.socket_read_ns_per_op", "ns", "lower", 0},
	{"jre.case_ms_socket_best", "ms", "lower", 0},
	{"jre.case_ms_socket_worst", "ms", "lower", 0},
	{"jre.case_ms_datagram", "ms", "lower", 0},
	{"jre.case_ms_channel", "ms", "lower", 0},
	{"jre.case_ms_http", "ms", "lower", 0},

	{"netsim.pipe_rtt_ns", "ns", "lower", 0},
	{"netsim.copy_ns_per_kib", "ns", "lower", 0},
	{"netsim.stream_bytes_per_op", "B", "lower", 0},
	{"netsim.control_bytes_per_op", "B", "lower", 0},

	{"taintmap.client.register_hit_ns", "ns", "lower", 0},
	{"taintmap.client.lookup_hit_ns", "ns", "lower", 0},
	{"taintmap.client.lookup_batch_ns_per_id", "ns", "lower", 0},
	{"taintmap.client.register_miss_ns_local", "ns", "lower", 0},
	{"taintmap.client.register_miss_ns_remote", "ns", "lower", 0},
	{"taintmap.client.register_miss_ns_cluster", "ns", "lower", 0},
	{"taintmap.client.lookup_miss_ns_local", "ns", "lower", 0},
	{"taintmap.client.lookup_miss_ns_remote", "ns", "lower", 0},
	{"taintmap.client.lookup_miss_ns_cluster", "ns", "lower", 0},
	{"taintmap.client.hit_share", "ratio", "higher", 0},
	{"taintmap.client.allocs_per_miss", "count", "lower", 0},
	{"taintmap.client.memo_bytes_per_taint", "B", "lower", 0},

	{"taintmap.server.rtt_ns", "ns", "lower", 0},
	{"taintmap.cluster.rtt_ns", "ns", "lower", 0},
	{"taintmap.cluster.replication_bytes_per_register", "B", "lower", 0},
	{"taintmap.store.register_blob_ns", "ns", "lower", 0},
	{"taintmap.store.lookup_blob_ns", "ns", "lower", 0},
	{"taintmap.store.bytes_per_taint", "B", "lower", 0},
	{"taintmap.server.ops_served_per_op", "count", "lower", 0},

	{"tracker.source_seq_ns", "ns", "lower", 0},
	{"tracker.check_sink_ns", "ns", "lower", 0},

	{"paper.tablev_avg_x", "x", "lower", 0},
	{"paper.tablev_socket_best_x", "x", "lower", 0},
	{"paper.tablev_socket_worst_x", "x", "lower", 0},
	{"paper.tablevi_sdt_avg_x", "x", "lower", 0},
	{"paper.tablevi_sim_avg_x", "x", "lower", 0},
	{"paper.phosphor_avg_x", "x", "lower", 0},
	{"paper.global_taints_sdt_max", "count", "lower", 0},
	{"paper.global_taints_sim_max", "count", "lower", 0},

	{"ledger.taint_ns_per_op", "ns", "lower", 0},
	{"ledger.wire_ns_per_op", "ns", "lower", 0},
	{"ledger.instrument_ns_per_op", "ns", "lower", 0},
	{"ledger.jni_ns_per_op", "ns", "lower", 0},
	{"ledger.netsim_ns_per_op", "ns", "lower", 0},
	{"ledger.taintmap_ns_per_op", "ns", "lower", 0},
	{"ledger.tracker_ns_per_op", "ns", "lower", 0},

	{"driver.ops_per_s", "1/s", "higher", 0},
	{"driver.lat_p50_us", "us", "lower", 0},
	{"driver.lat_overhead_x", "x", "lower", 0},
	{"driver.lat_p99_us", "us", "lower", 0},
	{"driver.lat_samples", "count", "higher", 0},
	{"driver.dista_ns_per_op", "ns", "lower", 0},
	{"driver.off_ns_per_op", "ns", "lower", 0},
	{"driver.self_ns_per_op", "ns", "lower", 0},
	{"driver.ledger_sum_ns_per_op", "ns", "lower", 0},
	{"driver.ledger_coverage", "ratio", "higher", 0},
	{"driver.trace_overhead_x", "x", "lower", 0},
	{"driver.allocs_per_op", "count", "lower", 0},
	{"driver.alloc_bytes_per_op", "B", "lower", 0},
	{"driver.heap_retained_mb", "MB", "lower", 0},
	{"driver.gc_cycles", "count", "lower", 0},
	{"driver.gc_pause_total_ms", "ms", "lower", 0},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// hist is a fixed-size log-linear latency histogram (64 sub-buckets
// per octave, bucket width <= 1.6 %): recording costs no allocation, so
// the latencies stay out of the heap being measured.
type hist struct {
	counts [(histOctaves + 1) * histSub]uint64
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histOctaves = 64 - histSubBits
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits
	return (exp+1)*histSub + int(ns>>uint(exp))&(histSub-1)
}

// bucketLow returns the smallest value that falls into bucket i.
func bucketLow(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i/histSub - 1
	return float64(uint64(histSub+i%histSub) << uint(exp))
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, interpolated linearly inside
// the bucket that holds it, so the result is not quantised to bucket
// edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bucketLow(len(h.counts) - 1)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
