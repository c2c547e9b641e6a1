// Cross-system tracking: the HBase+ZooKeeper scenario (paper Table III
// row 5). Region-server names read from config files travel RS ->
// ZooKeeper -> HMaster, and the tainted TableName travels client ->
// region server -> client — taints crossing the boundary between two
// distinct distributed systems, which is exactly what system-specific
// trackers like Kakute cannot do.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/jre"
	"dista/internal/netsim"
	"dista/internal/systems/hbase"
	"dista/internal/taintmap"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	workDir, err := os.MkdirTemp("", "dista-crosssystem-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	net := netsim.New()
	store := taintmap.NewStore()
	var agents []*tracker.Agent
	newNode := func(name string) *jre.Env {
		agent := tracker.New(name, tracker.ModeDista,
			tracker.WithTaintMap(taintmap.NewLocalClient(store, taint.NewTree())))
		agents = append(agents, agent)
		return jre.NewEnv(net, agent)
	}

	// Region-server config files: the SIM sources.
	var confs []string
	for i := 1; i <= 2; i++ {
		path := filepath.Join(workDir, fmt.Sprintf("rs%d.conf", i))
		if err := os.WriteFile(path, []byte(fmt.Sprintf("region-host-%d", i)), 0o644); err != nil {
			return err
		}
		confs = append(confs, path)
	}

	cluster, err := hbase.StartCluster("demo",
		newNode("zknode"), newNode("hmaster"),
		[]*jre.Env{newNode("rs1"), newNode("rs2")}, confs,
		[]string{"users", "events"})
	if err != nil {
		return err
	}
	defer cluster.Stop()

	fmt.Println("HMaster log (server names travelled RS -> ZooKeeper -> master):")
	for _, e := range cluster.Master.Log.Entries() {
		fmt.Printf("  [%s] tainted=%v  %s\n", e.Node, e.Tainted, e.Message)
	}

	// The SDT flow: a tainted TableName through a Get.
	client, err := hbase.NewClient(newNode("client"), cluster.ZKAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	table := client.TableName("users")
	if err := client.Put(table, "row1", "name", "alice"); err != nil {
		return err
	}
	res, err := client.Get(table, "row1")
	if err != nil {
		return err
	}
	fmt.Printf("\nclient Get(%q, row1) -> %d cell(s); Result table taint: %s\n",
		res.Table.Value, len(res.Cells), res.Table.Label)
	// Streams register the fresh taints they defined inline in batches:
	// drain every node's queue to count them.
	for _, a := range agents {
		if err := a.Flush(); err != nil {
			return err
		}
	}
	fmt.Printf("taint map now holds %d global taints\n", store.Stats().GlobalTaints)
	return nil
}
