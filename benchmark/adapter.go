package main

// adapter.go is the only file of the benchmark that imports
// dista/internal/...: everything the harness measures is reached
// through the names below, so an API refactor of the program changes
// this file and nothing else. The surface is deliberately limited to
// what ROADMAP items 2-3 intend to keep: no NewEndpoint,
// NewLegacyEndpoint, StopAndWaitClient or untagged-protocol entry
// points.
//
// Types are aliases, so their methods are called directly by the other
// files (Agent.Source/SourceSeq/CheckSinkBytes/Traffic,
// Bytes.SetRange/SetLabel/Clean/Stats/ForEachRun/ForEachDirtyRun/
// ResetLabels/Slice, Taint.Keys/HasKey/Len/Empty/GlobalID,
// Endpoint.Write/Read, FrameDecoder.Feed/NextRunsInto,
// Conn.Read/Write/Close, Network.Pipe/Listen/Dial/Stats/Shutdown,
// Client.Register/Lookup/LookupBatch/Close, Store.RegisterBlob/
// LookupBlob/Stats, Server.Store/Close, Harness.SinkTags).

import (
	"dista/internal/bench"
	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/instrument"
	"dista/internal/jni"
	"dista/internal/microbench"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

type (
	Agent        = tracker.Agent
	Mode         = tracker.Mode
	Taint        = taint.Taint
	TagKey       = taint.TagKey
	Tree         = taint.Tree
	Bytes        = taint.Bytes
	Run          = wire.Run
	DirtyRange   = wire.DirtyRange
	FrameDecoder = wire.FrameDecoder
	Endpoint     = instrument.Endpoint
	Network      = netsim.Network
	Conn         = netsim.Conn
	Client       = taintmap.Client
	Store        = taintmap.Store
	Server       = taintmap.Server
	Ring         = taintmap.Ring
	Case         = microbench.Case
	Harness      = microbench.Harness
	System       = bench.System
	Scenario     = bench.Scenario
	SystemStats  = bench.RunStats
)

const (
	ModeOff      = tracker.ModeOff
	ModePhosphor = tracker.ModePhosphor
	ModeDista    = tracker.ModeDista

	SDT = bench.SDT
	SIM = bench.SIM

	FramePassthrough = wire.FramePassthrough
	FrameUniform     = wire.FrameUniform
	FrameSparse      = wire.FrameSparse
	FrameGroups      = wire.FrameGroups
)

// newAgent builds a node's agent the way every caller in the tree does:
// the Taint Map client needs a tree before the agent exists, so a
// scratch agent lends its tree to the client and the real agent is
// built around that client. Received taints therefore live in the
// client's tree, sources in the agent's.
func newAgent(node string, mode Mode, dial func(*Tree) (Client, error)) (*Agent, Client, error) {
	if dial == nil {
		return tracker.New(node, mode), nil, nil
	}
	c, err := dial(tracker.New(node, mode).Tree())
	if err != nil {
		return nil, nil, err
	}
	return tracker.New(node, mode, tracker.WithTaintMap(c)), c, nil
}

func wrapBytes(b []byte) Bytes                         { return taint.WrapBytes(b) }
func combine(a, b Taint) Taint                         { return taint.Combine(a, b) }
func marshalTaint(t Taint) ([]byte, error)             { return taint.MarshalTaint(t) }
func unmarshalTaint(tr *Tree, b []byte) (Taint, error) { return tr.UnmarshalTaint(b) }
func newTree() *Tree                                   { return taint.NewTree() }

func appendAdaptiveMagic(dst []byte) []byte { return wire.AppendAdaptiveStreamMagic(dst) }
func appendFrameHeader(dst []byte, tag byte, n int) []byte {
	return wire.AppendFrameHeader(dst, tag, n)
}
func appendUniformHeader(dst []byte, n int, id uint32) []byte {
	return wire.AppendUniformHeader(dst, n, id)
}
func appendSparseHeader(dst []byte, n int, r []DirtyRange) []byte {
	return wire.AppendSparseHeader(dst, n, r)
}
func appendDirtyRanges(dst []DirtyRange, runs []Run) []DirtyRange {
	return wire.AppendDirtyRanges(dst, runs)
}
func appendGroupsFrame(dst, data []byte, runs []Run) []byte {
	return wire.AppendGroupsFrame(dst, data, runs)
}

func newAdaptiveEndpoint(a *Agent, c *Conn) *Endpoint { return instrument.NewAdaptiveEndpoint(a, c) }

func socketWrite0(c *Conn, b []byte) error       { return jni.SocketWrite0(c, b) }
func socketRead0(c *Conn, b []byte) (int, error) { return jni.SocketRead0(c, b) }

func newNetwork() *Network { return netsim.New() }

func newStore() *Store                         { return taintmap.NewStore() }
func newLocalClient(s *Store, tr *Tree) Client { return taintmap.NewLocalClient(s, tr) }
func startSimServer(n *Network, addr string) (*Server, error) {
	return taintmap.StartSimServer(n, addr)
}
func dialSim(n *Network, addr string, tr *Tree) (Client, error) {
	return taintmap.DialSim(n, addr, tr)
}
func startSimCluster(n *Network, members, rf int) ([]*Server, *Ring, error) {
	return taintmap.StartSimCluster(n, members, rf)
}
func dialSimCluster(n *Network, local string, ring *Ring, tr *Tree) (Client, error) {
	return taintmap.DialSimCluster(n, local, ring, tr, taintmap.ClusterOptions{})
}

func microCases() []Case { return microbench.Cases() }
func runCase(c Case, mode Mode, size int) (*Harness, error) {
	return microbench.RunCase(c, mode, size)
}
func benchSystems() []System { return bench.Systems() }
func runSystem(s System, mode Mode, sc Scenario, workDir string) (SystemStats, error) {
	return s.Run(mode, sc, bench.DefaultSystemConfig(), workDir)
}
