// Leak monitor: the ZooKeeper SIM scenario (paper Fig. 11). Each peer
// reads three transaction-log files at startup — every read is a taint
// source — and the election carries the recovered epoch across nodes.
// LOG.info is the sink: whenever a node prints a value derived from
// another node's files, the monitor reports a potential leak.
//
// The source/sink configuration is loaded from a spec file exactly as a
// user of the real tool would write it (§V-E), and the agent arguments
// use the launch-flag syntax.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/dlog"
	"dista/internal/jre"
	"dista/internal/netsim"
	"dista/internal/systems/zk"
	"dista/internal/taintmap"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	workDir, err := os.MkdirTemp("", "dista-leak-monitor-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	// The user's spec file: file reads are sources, LOG.info is the sink.
	specPath := filepath.Join(workDir, "simspec.txt")
	specText := "# ZooKeeper SIM scenario\nsource " + zk.SourceTxnRead + "\nsink " + dlog.SinkDesc + "\n"
	if err := os.WriteFile(specPath, []byte(specText), 0o644); err != nil {
		return err
	}

	// The launch-script flag, parsed the way the agent would.
	args, err := tracker.ParseAgentArgs("mode=dista,spec=" + specPath)
	if err != nil {
		return err
	}
	spec, err := tracker.LoadSpec(args.SpecPath)
	if err != nil {
		return err
	}
	fmt.Printf("agent config: mode=%s, %d source(s), %d sink(s)\n\n",
		args.Mode, len(spec.Sources()), len(spec.Sinks()))

	net := netsim.New()
	store := taintmap.NewStore()
	peers := make([]*zk.Peer, 3)
	for i := range peers {
		name := fmt.Sprintf("zk%d", i+1)
		agent := tracker.New(name, args.Mode,
			tracker.WithTaintMap(taintmap.NewLocalClient(store, taint.NewTree())),
			tracker.WithSpec(spec))
		dir := filepath.Join(workDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		// Three txn logs per node; the last holds the largest zxid.
		base := int64(i+1) * 100
		if err := zk.WriteTxnLogs(dir, base+1, base+2, base+3); err != nil {
			return err
		}
		peers[i] = zk.NewPeer(int64(i+1), jre.NewEnv(net, agent), dir)
	}

	if err := zk.RunElection("leakdemo", peers); err != nil {
		return err
	}

	fmt.Println("log statements that printed tainted data:")
	for _, p := range peers {
		for _, e := range p.Log.Entries() {
			if !e.Tainted {
				continue
			}
			fmt.Printf("  [%s] %s\n", e.Node, e.Message)
		}
		for _, obs := range p.Env.Agent.Observations() {
			fmt.Printf("    -> sink %s on %s saw %s\n", obs.Sink, obs.Node, obs.Taint)
		}
	}
	fmt.Println("\nfull sink report:")
	agents := make([]*tracker.Agent, len(peers))
	for i, p := range peers {
		agents[i] = p.Env.Agent
	}
	tracker.WriteReport(os.Stdout, agents...)

	fmt.Printf("\nnote: only the *last* log file's taint (zxid3) crosses nodes — the\n")
	fmt.Printf("earlier reads are overwritten before the value is sent (Fig. 11).\n")
	return nil
}
