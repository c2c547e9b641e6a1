package main

import (
	"fmt"
	"math/rand"
)

// shape is how a payload's bytes are labelled.
type shape int

const (
	shapeClean   shape = iota // no labels at all
	shapeDense                // two reused taints alternating on every byte
	shapeField                // one 64-byte field with a fresh taint each op
	shapeUniform              // one reused taint over the whole payload
)

const fieldLen = 64

// workload is one named set of inputs. The names are fixed: later
// issues refer to them.
type workload struct {
	name    string
	why     string
	paper   bool  // ops are whole microbench cases / system runs, not exchanges
	size    int   // payload bytes of one exchange (the ledger payload on paper_tables)
	shape   shape // label shape of that payload
	relabel bool  // B combines a taint of its own into every tainted run before echoing
	cluster bool  // Taint Map is a 3-member RF-2 sim cluster instead of an in-process store
	warmOps int64 // warm-up ops per mode, fixed so that setup_s prices the same work every run
}

var workloads = []workload{
	{
		name: "clean_rpc", size: 512, shape: shapeClean, warmOps: 100_000,
		why: "untainted 512 B echo: only per-op fixed cost in instrument, jni and netsim works; codec and Taint Map are bypassed",
	},
	{
		name: "dense_bulk", size: 8 << 10, shape: shapeDense, warmOps: 300,
		why: "8 KiB with a label change on every byte: run walk, group codec, 8192-id memo lookups and the 5x copy do all the work",
	},
	{
		name: "sim_fresh_cluster", size: 4 << 10, shape: shapeField, relabel: true, cluster: true, warmOps: 5_000,
		why: "fresh taint per op against a 3-member RF-2 cluster: every op is 2 register + 2 lookup misses, Taint Map dominates",
	},
	{
		name: "paper_tables", paper: true, size: 64 << 10, shape: shapeUniform, relabel: true, warmOps: paperPassOps,
		why: "the paper's 30 micro cases at 64 KiB and 5 systems in SDT and SIM: jre streams, datagrams, channels, HTTP, app compute",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything the seed decides. The program under test sees
// only these generated values.
type inputs struct {
	payload   []byte // size bytes
	fieldOff  int    // shapeField: where the tainted field starts
	tagA      [2]string
	tagB      string
	caseOrder []int // paper_tables: order of the ops of one pass
}

func genInputs(w *workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{payload: make([]byte, w.size)}
	rng.Read(in.payload)
	in.fieldOff = 8 + rng.Intn(w.size-fieldLen-8) // the first 8 bytes carry the op number
	in.tagA = [2]string{fmt.Sprintf("a0-%08x", rng.Uint32()), fmt.Sprintf("a1-%08x", rng.Uint32())}
	in.tagB = fmt.Sprintf("b-%08x", rng.Uint32())
	in.caseOrder = rng.Perm(paperPassOps)
	return in
}
