// Package microbench implements the paper's micro benchmark (DSN'22
// §V-A, Table II): 30 test cases covering the commonly used Java
// network-communication APIs and protocols, all running the Figure 10
// workload — Node1 sends Data1 to Node2; Node2 combines it with Data2
// and sends the result back; Node1 checks the received data at the
// check() sink point. With DisTA enabled, check() must observe exactly
// the two taints of Data1 and Data2.
package microbench

import (
	"fmt"
	"sync"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/jre"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Source and sink descriptors of the micro workload.
const (
	SourceData1 = "micro#data1"
	SourceData2 = "micro#data2"
	SinkCheck   = "micro#check"
)

// Case is one Table II row: a protocol/API combination with its
// workload implementation.
type Case struct {
	ID      int    // 1-based Table II position
	Group   string // protocol group, e.g. "JRE Socket"
	Name    string // specific API exercised
	SizeDiv int    // divide the harness payload size (byte-at-a-time cases)
	Run     func(h *Harness) error
}

// Harness is the two-node rig a case runs on.
type Harness struct {
	Net   *netsim.Network
	Store *taintmap.Store
	Node1 *jre.Env
	Node2 *jre.Env
	Size  int // payload bytes for Data1 (Data2 matches)

	addrSeq int
}

// NewHarness builds a fresh two-node rig in the given mode with the
// given payload size.
func NewHarness(mode tracker.Mode, size int) *Harness {
	net := netsim.New()
	store := taintmap.NewStore()
	mk := func(name string) *jre.Env {
		a := tracker.New(name, mode, tracker.WithTaintMap(taintmap.NewLocalClient(store, taint.NewTree())))
		return jre.NewEnv(net, a)
	}
	return &Harness{
		Net:   net,
		Store: store,
		Node1: mk("node1"),
		Node2: mk("node2"),
		Size:  size,
	}
}

// Mode returns the rig's tracking mode.
func (h *Harness) Mode() tracker.Mode { return h.Node1.Agent.Mode() }

// addr returns a unique address for this run.
func (h *Harness) addr() string {
	h.addrSeq++
	return fmt.Sprintf("node2:%d", h.addrSeq)
}

// Data1 builds Node1's payload: size bytes tainted as Data1.
func (h *Harness) Data1(size int) taint.Bytes {
	return h.payload(h.Node1, SourceData1, "Data1", size, 'x')
}

// Data2 builds Node2's payload: size bytes tainted as Data2.
func (h *Harness) Data2(size int) taint.Bytes {
	return h.payload(h.Node2, SourceData2, "Data2", size, 'y')
}

func (h *Harness) payload(env *jre.Env, desc, tag string, size int, fill byte) taint.Bytes {
	raw := make([]byte, size)
	for i := range raw {
		raw[i] = fill
	}
	b := taint.WrapBytes(raw)
	if t := env.Agent.Source(desc, tag); !t.Empty() {
		b.TaintAll(t)
	}
	return b
}

// Data1Taint returns just the Data1 source taint for value-typed cases.
func (h *Harness) Data1Taint() taint.Taint { return h.Node1.Agent.Source(SourceData1, "Data1") }

// Data2Taint returns just the Data2 source taint.
func (h *Harness) Data2Taint() taint.Taint { return h.Node2.Agent.Source(SourceData2, "Data2") }

// Check runs Node1's check() sink over the final combined bytes.
func (h *Harness) Check(b taint.Bytes) {
	h.Node1.Agent.CheckSinkBytes(SinkCheck, b)
}

// CheckTaints runs the sink over explicit value taints.
func (h *Harness) CheckTaints(ts ...taint.Taint) {
	h.Node1.Agent.CheckSink(SinkCheck, ts...)
}

// SinkTags returns the sorted tag values check() observed — the RQ1
// comparison quantity (expected: ["Data1","Data2"] under dista).
func (h *Harness) SinkTags() []string {
	return h.Node1.Agent.SinkTagValues(SinkCheck)
}

// tcpExchange wires the standard two-node exchange: server runs Node2's
// side on the accepted socket; client runs Node1's side on the dialed
// socket. Both errors are surfaced.
func (h *Harness) tcpExchange(server func(*jre.Socket) error, client func(*jre.Socket) error) error {
	addr := h.addr()
	ss, err := jre.ListenSocket(h.Node2, addr)
	if err != nil {
		return err
	}
	defer ss.Close()

	var (
		wg        sync.WaitGroup
		serverErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sock, err := ss.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer sock.Close()
		serverErr = server(sock)
	}()

	sock, err := jre.DialSocket(h.Node1, addr)
	if err != nil {
		return err
	}
	clientErr := client(sock)
	sock.Close()
	wg.Wait()
	if serverErr != nil {
		return fmt.Errorf("microbench server: %w", serverErr)
	}
	if clientErr != nil {
		return fmt.Errorf("microbench client: %w", clientErr)
	}
	return nil
}

// RunCase executes one case on a fresh harness and returns it for
// inspection.
func RunCase(c Case, mode tracker.Mode, size int) (*Harness, error) {
	if c.SizeDiv > 1 {
		size /= c.SizeDiv
		if size == 0 {
			size = 1
		}
	}
	h := NewHarness(mode, size)
	if err := c.Run(h); err != nil {
		return nil, fmt.Errorf("case %d (%s / %s): %w", c.ID, c.Group, c.Name, err)
	}
	return h, nil
}
