// Leader election: the ZooKeeper SDT scenario of the paper's Table IV.
// Three mini-ZooKeeper peers run fast leader election with their Vote
// variables tainted at the source point; the followers' checkLeader
// sink reveals which vote won and where it came from — a specific data
// trace across nodes.
package main

import (
	"fmt"
	"log"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
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
	net := netsim.New()
	store := taintmap.NewStore()
	peers := make([]*zk.Peer, 3)
	for i := range peers {
		name := fmt.Sprintf("zk%d", i+1)
		agent := tracker.New(name, tracker.ModeDista,
			tracker.WithTaintMap(taintmap.NewLocalClient(store, taint.NewTree())))
		peers[i] = zk.NewPeer(int64(i+1), jre.NewEnv(net, agent), "")
	}

	if err := zk.RunElection("demo", peers); err != nil {
		return err
	}

	leader := peers[0].Result().LeaderID.Value
	fmt.Printf("elected leader: peer %d\n\n", leader)
	for _, p := range peers {
		role := "follower"
		if p.ID == leader {
			role = "LEADER"
		}
		fmt.Printf("peer %d (%s):\n", p.ID, role)
		tags := p.Env.Agent.SinkTagValues(zk.SinkCheckLeader)
		if len(tags) == 0 {
			fmt.Println("  checkLeader sink: no taints (leaders do not run checkLeader)")
			continue
		}
		for _, obs := range p.Env.Agent.Observations() {
			if obs.Sink == zk.SinkCheckLeader {
				fmt.Printf("  checkLeader observed %s\n", obs.Taint)
			}
		}
	}
	fmt.Println("\ncross-node taint flows detected:")
	agents := make([]*tracker.Agent, len(peers))
	for i, p := range peers {
		agents[i] = p.Env.Agent
		// Streams register the fresh taints they defined inline in
		// batches: drain the queue before counting.
		if err := agents[i].Flush(); err != nil {
			return err
		}
	}
	for _, flow := range tracker.CrossNodeFlows(agents...) {
		fmt.Println("  " + flow)
	}
	fmt.Printf("\nglobal taints exchanged through the Taint Map: %d (SDT scenarios stay small, §V-F)\n",
		store.Stats().GlobalTaints)
	return nil
}
