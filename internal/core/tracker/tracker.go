// Package tracker implements the per-node DisTA runtime (DSN'22 §III-D
// and §V-E): the agent a node is launched with. It owns the node's tag
// tree, its LocalID, the connection to the Taint Map, the user's source
// and sink point specification, the sink-point observations used to
// answer RQ1, and the traffic counters used by the network-overhead
// experiment.
//
// The agent runs in one of three modes that correspond to the three
// columns of Tables V and VI:
//
//   - ModeOff: the original execution — no shadow operations at all;
//   - ModePhosphor: intra-node tracking only; at the network boundary
//     taints are handled the way Phosphor's JNI wrapper does (Fig. 4),
//     i.e. the received data keeps the stale taint of the caller's
//     buffer and the sender's taint is lost;
//   - ModeDista: full intra- plus inter-node tracking via the Taint Map.
package tracker

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dista/internal/core/taint"
	"dista/internal/taintmap"
)

// Mode selects how much tracking the agent performs.
type Mode int

// The three execution modes of the evaluation.
const (
	ModeOff Mode = iota + 1
	ModePhosphor
	ModeDista
)

// String returns the mode's launch-config spelling.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModePhosphor:
		return "phosphor"
	case ModeDista:
		return "dista"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a launch-config spelling into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "original", "none":
		return ModeOff, nil
	case "phosphor", "intra":
		return ModePhosphor, nil
	case "dista", "full":
		return ModeDista, nil
	default:
		return 0, fmt.Errorf("tracker: unknown mode %q", s)
	}
}

// SinkObservation records one taint seen at a sink point.
type SinkObservation struct {
	Sink  string      // sink descriptor, e.g. "FastLeaderElection#checkLeader"
	Node  string      // node on which the sink fired
	Taint taint.Taint // non-empty taint observed
}

// Agent is a node's tracking runtime. Construct with New; safe for
// concurrent use.
type Agent struct {
	node    string
	localID string
	mode    Mode
	tree    *taint.Tree
	tm      taintmap.Client
	spec    Spec

	mu           sync.Mutex
	observations []SinkObservation
	sinkHits     map[string]int // fires per sink, including untainted ones
	tagSeq       map[string]int

	dataBytes atomic.Int64 // application payload bytes crossing the JNI layer
	wireBytes atomic.Int64 // bytes actually put on the wire for those payloads

	// qmu guards the queue: a send that meets a taint in flight waits for
	// its Global ID, as its own flush would, rather than scoping it again.
	qmu    sync.Mutex
	queued []taint.Taint         // taints streams defined inline, to register (Defer); the first flying are in flight
	blobs  [][]byte              // each one's serialized form, carried from its definition
	inQ    map[taint.Taint]bool  // the members of queued
	flying int                   // how many of queued reg has issued and not collected
	reg    taintmap.Registration // the batch in flight
	failed bool                  // the last batch failed: the Taint Map is degraded or shedding
	due    int                   // the queue length, beside the batch in flight, that issues a batch (RegisterQueueLen after a success)
}

// RegisterQueueLen is how many fresh taints an agent's streams define
// inline before the agent issues their registration with the Taint Map in
// one batch (Defer), and the most one send's batch carries: a size, not a
// knob. 8 kept a fresh exchange at 9.2–9.8× where 64 took it to 7.2–7.9×;
// 256 gained nothing more, for 5 % more heap (EXPERIMENTS.md).
const RegisterQueueLen = 64

// Option configures an Agent.
type Option interface {
	apply(*Agent)
}

type optionFunc func(*Agent)

func (f optionFunc) apply(a *Agent) { f(a) }

// WithTaintMap connects the agent to a Taint Map client. Required for
// ModeDista; ignored by the other modes. The agent adopts the client's
// tree as its own: a node keeps one tag tree (Phosphor's singleton, §II-B),
// so its sources, the taints it receives and their unions meet in it.
func WithTaintMap(c taintmap.Client) Option {
	return optionFunc(func(a *Agent) { a.tm, a.tree = c, c.Tree() })
}

// WithLocalID overrides the generated LocalID ("ip:pid").
func WithLocalID(id string) Option {
	return optionFunc(func(a *Agent) { a.localID = id })
}

// WithSpec installs the user's source/sink specification (§V-E).
func WithSpec(s Spec) Option {
	return optionFunc(func(a *Agent) { a.spec = s })
}

// New creates an agent for the named node. By default the LocalID is
// synthesized from the node name (standing in for ip:pid); there is no
// Taint Map and the spec is empty (every source/sink call is honoured).
func New(node string, mode Mode, opts ...Option) *Agent {
	a := &Agent{
		node:     node,
		localID:  node + ":1",
		mode:     mode,
		tree:     taint.NewTree(),
		sinkHits: make(map[string]int),
		tagSeq:   make(map[string]int),
		due:      RegisterQueueLen,
	}
	for _, o := range opts {
		o.apply(a)
	}
	return a
}

// Node returns the node name the agent runs on.
func (a *Agent) Node() string { return a.node }

// LocalID returns the node's LocalID ("ip:pid", §III-D-1).
func (a *Agent) LocalID() string { return a.localID }

// Mode returns the agent's tracking mode.
func (a *Agent) Mode() Mode { return a.mode }

// Tree returns the node's tag tree.
func (a *Agent) Tree() *taint.Tree { return a.tree }

// TaintMap returns the agent's Taint Map client (nil unless configured).
func (a *Agent) TaintMap() taintmap.Client { return a.tm }

// Tracking reports whether any shadow operations run (phosphor or dista).
func (a *Agent) Tracking() bool { return a.mode != ModeOff }

// InterNode reports whether taints cross nodes (dista only).
func (a *Agent) InterNode() bool { return a.mode == ModeDista }

// Source returns a fresh taint for the source point desc with the given
// tag value, or the empty taint when tracking is off or the spec does
// not list desc. This is the runtime action of "when a method is
// specified as a taint source point, its return value is tainted".
func (a *Agent) Source(desc, tagValue string) taint.Taint {
	if a.mode == ModeOff || !a.spec.SourceEnabled(desc) {
		return taint.Taint{}
	}
	return a.tree.NewSource(tagValue, a.localID)
}

// SourceSeq behaves like Source but appends a per-descriptor sequence
// number to the tag value, for sources that fire repeatedly (e.g. the
// three transaction-log reads of Fig. 11 becoming zxid1..zxid3).
func (a *Agent) SourceSeq(desc, tagPrefix string) taint.Taint {
	if a.mode == ModeOff || !a.spec.SourceEnabled(desc) {
		return taint.Taint{}
	}
	a.mu.Lock()
	a.tagSeq[desc]++
	n := a.tagSeq[desc]
	a.mu.Unlock()
	var buf [64]byte
	return a.tree.NewSource(string(strconv.AppendInt(append(buf[:0], tagPrefix...), int64(n), 10)), a.localID)
}

// CheckSink records the non-empty taints among ts at the sink point
// desc, provided the spec lists it (an empty spec honours every sink).
// It reports whether any taint was observed.
func (a *Agent) CheckSink(desc string, ts ...taint.Taint) bool {
	if a.mode == ModeOff || !a.spec.SinkEnabled(desc) {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sinkHits[desc]++
	hit := false
	for _, t := range ts {
		if t.Empty() {
			continue
		}
		hit = true
		a.observations = append(a.observations, SinkObservation{Sink: desc, Node: a.node, Taint: t})
	}
	return hit
}

// CheckSinkBytes checks a sink whose argument is byte data, using the
// union of the per-byte labels.
func (a *Agent) CheckSinkBytes(desc string, b taint.Bytes) bool {
	if a.mode == ModeOff || !a.spec.SinkEnabled(desc) {
		return false
	}
	return a.CheckSink(desc, b.Union())
}

// Observations returns a copy of all sink observations so far.
func (a *Agent) Observations() []SinkObservation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SinkObservation, len(a.observations))
	copy(out, a.observations)
	return out
}

// SinkTagValues returns the sorted, deduplicated set of tag values seen
// at the given sink — the quantity RQ1's soundness/precision checks
// compare against expectations.
func (a *Agent) SinkTagValues(desc string) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := make(map[string]bool)
	for _, o := range a.observations {
		if o.Sink != desc {
			continue
		}
		for _, v := range o.Taint.Values() {
			set[v] = true
		}
	}
	vals := make([]string, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// SinkFireCount returns how many times the sink was checked (tainted or
// not).
func (a *Agent) SinkFireCount(desc string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sinkHits[desc]
}

// Defer queues ts — distinct taints without a Global ID that a stream
// send is about to define inline under stream-scoped ids, blobs each one
// serialized — for registration in batches. At a flush point — a send
// that meets a queued taint again, a queue of RegisterQueueLen beside the
// batch in flight — it first collects the batch in flight: what
// registered leaves the queue. Then the queued taints the send meets get
// their Global IDs now, in a batch the oldest others fill up to
// RegisterQueueLen, issued and collected at once; a full queue issues its
// oldest RegisterQueueLen and waits for nothing. After a failed batch a
// reuse registers the reused taints alone, and the queue is due again
// only RegisterQueueLen taints later: an owner that sheds is not sent the
// backlog. It returns what a collected batch failed with.
func (a *Agent) Defer(ts []taint.Taint, blobs [][]byte) (err error) {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	reused := slices.ContainsFunc(ts, func(t taint.Taint) bool { return a.inQ[t] })
	if reused || len(a.queued)-a.flying >= a.due {
		err = a.collectLocked()
		lead := 0 // the reused taints still queued move to its front
		for _, t := range ts {
			if a.inQ[t] {
				i := slices.Index(a.queued, t)
				a.queued[lead], a.queued[i] = a.queued[i], a.queued[lead]
				a.blobs[lead], a.blobs[i] = a.blobs[i], a.blobs[lead]
				lead++
			}
		}
		n := lead
		if lead > 0 && !a.failed || len(a.queued) >= a.due {
			n = max(lead, min(len(a.queued), RegisterQueueLen))
		}
		if n > 0 {
			a.tm.Issue(&a.reg, a.queued[:n], a.blobs[:n])
			a.flying = n
		}
		if lead > 0 {
			err = errors.Join(err, a.collectLocked())
		}
	}
	for i, t := range ts {
		if t.GlobalID() == 0 && !a.inQ[t] {
			if a.inQ == nil {
				a.inQ = make(map[taint.Taint]bool, 2*RegisterQueueLen)
			}
			a.queued, a.blobs, a.inQ[t] = append(a.queued, t), append(a.blobs, blobs[i]), true
		}
	}
	return err
}

// Flush registers every taint Defer has queued, the batch in flight
// included, before it returns: the drain a count of the Taint Map's
// global taints (§V-F) reads after. What the registration fails to
// register stays queued for the next.
func (a *Agent) Flush() error {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	if a.collectLocked(); len(a.queued) == 0 {
		return nil
	}
	a.tm.Issue(&a.reg, a.queued, a.blobs)
	a.flying = len(a.queued)
	return a.collectLocked()
}

// collectLocked collects the batch in flight, if any, and drops from the
// queue what is registered since.
func (a *Agent) collectLocked() (err error) {
	if a.flying > 0 {
		err = a.tm.Collect(&a.reg)
		a.failed, a.due, a.flying = err != nil, RegisterQueueLen, 0
		if a.failed {
			a.due = len(a.queued) + RegisterQueueLen
		}
	}
	n := 0
	for i, t := range a.queued {
		if t.GlobalID() != 0 {
			delete(a.inQ, t)
			continue
		}
		a.queued[n], a.blobs[n] = t, a.blobs[i]
		n++
	}
	clear(a.queued[n:])
	clear(a.blobs[n:])
	a.queued, a.blobs = a.queued[:n], a.blobs[:n]
	return err
}

// AddTraffic accumulates the payload-vs-wire byte counters maintained by
// the instrumentation layer (experiment E7). Inlined, two atomic adds
// on every write, clean ones included (`make inline-check`).
func (a *Agent) AddTraffic(dataBytes, wireBytes int) {
	a.dataBytes.Add(int64(dataBytes))
	a.wireBytes.Add(int64(wireBytes))
}

// Traffic returns the cumulative payload and wire byte counts.
func (a *Agent) Traffic() (dataBytes, wireBytes int64) {
	return a.dataBytes.Load(), a.wireBytes.Load()
}
