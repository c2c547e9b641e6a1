// Quickstart: the smallest possible DisTA-Go program. Two simulated
// nodes share a Taint Map; node1 taints a message and sends it through
// the instrumented socket stack; node2 checks its sink point and sees
// the taint — with the originating node identified by the tag's
// LocalID.
package main

import (
	"fmt"
	"log"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/jre"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One simulated network and one Taint Map for the whole cluster.
	net := netsim.New()
	store := taintmap.NewStore()

	// Each node is an Env: its network attachment plus a DisTA agent
	// (the -javaagent of the paper, in mode "dista").
	newNode := func(name string) *jre.Env {
		agent := tracker.New(name, tracker.ModeDista,
			tracker.WithTaintMap(taintmap.NewLocalClient(store, taint.NewTree())))
		return jre.NewEnv(net, agent)
	}
	node1 := newNode("node1")
	node2 := newNode("node2")

	// node2: a server that checks everything it receives at a sink point.
	ss, err := jre.ListenSocket(node2, "node2:9000")
	if err != nil {
		return err
	}
	defer ss.Close()
	done := make(chan error, 1)
	go func() {
		sock, err := ss.Accept()
		if err != nil {
			done <- err
			return
		}
		defer sock.Close()
		buf := taint.MakeBytes(14)
		if err := jre.ReadFull(sock.InputStream(), &buf); err != nil {
			done <- err
			return
		}
		hit := node2.Agent.CheckSinkBytes("Server#handle", buf)
		fmt.Printf("node2 received %q, tainted: %v\n", buf.Data, hit)
		done <- nil
	}()

	// node1: taint a secret at a source point and send it.
	secret := taint.FromString("secret-payload",
		node1.Agent.Source("Config#read", "db-password"))
	sock, err := jre.DialSocket(node1, "node2:9000")
	if err != nil {
		return err
	}
	defer sock.Close()
	if err := sock.OutputStream().Write(secret); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}

	// Inspect what the sink saw: the tag value and where it was minted.
	for _, obs := range node2.Agent.Observations() {
		fmt.Printf("sink %q on %s observed taint %s\n", obs.Sink, obs.Node, obs.Taint)
	}
	// A stream defines a fresh taint inline at its first crossing and its
	// agent registers it later, in a batch: drain the queues to count.
	for _, n := range []*jre.Env{node1, node2} {
		if err := n.Agent.Flush(); err != nil {
			return err
		}
	}
	fmt.Printf("taint map now holds %d global taint(s)\n", store.Stats().GlobalTaints)
	return nil
}
