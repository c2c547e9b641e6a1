package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/instrument"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Ablations quantify the design choices DESIGN.md calls out:
//
//   - A1 caching: the Taint Map client caches (Fig. 9 step ② plus the
//     receiver-side memo) against an uncached baseline;
//   - A2 wire format: the fixed-width Global ID next to each byte
//     against the naive alternative of shipping the serialized taint
//     blob per byte (§III-D-2's motivating bandwidth argument).

// AblationResult captures one cached/uncached timing pair.
type AblationResult struct {
	Cached   time.Duration
	Uncached time.Duration
}

// The caching ablation's shape: how many distinct taints cycle through
// the payload, and how many bytes the receiver takes per read.
const (
	ablationTaints = 256
	ablationRead   = 256
)

// streamExchange pushes size tainted bytes across one connection using
// the given Taint Map clients, returning the elapsed time.
func streamExchange(size int, mkClient func(*taintmap.Store, *taint.Tree) taintmap.Client) (time.Duration, error) {
	net := netsim.New()
	store := taintmap.NewStore()
	mk := func(name string) *tracker.Agent {
		return tracker.New(name, tracker.ModeDista,
			tracker.WithTaintMap(mkClient(store, taint.NewTree())))
	}
	aAgent, bAgent := mk("a"), mk("b")
	ca, cb := net.Pipe()
	sender := instrument.NewAdaptiveEndpoint(aAgent, ca)
	receiver := instrument.NewAdaptiveEndpoint(bAgent, cb)

	// Cycle many taints byte by byte and receive in small pieces. The
	// endpoint itself asks the client once per distinct taint of a write
	// and once per distinct id of a read, so what isolates the
	// cached-vs-uncached difference is many distinct taints in every
	// one of many deliveries: the uncached client pays a store call and
	// an unmarshal for each of them again, the cached one only at first
	// sight.
	payload := taint.MakeBytes(size)
	taints := make([]taint.Taint, ablationTaints)
	for i := range taints {
		taints[i] = aAgent.Source("s", fmt.Sprintf("abl%d", i))
	}
	for i := 0; i < payload.Len(); i++ {
		payload.SetLabel(i, taints[i%len(taints)])
	}

	var (
		wg      sync.WaitGroup
		recvErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := taint.MakeBytes(ablationRead)
		got := 0
		for got < size {
			n, err := receiver.Read(&buf)
			if err != nil {
				recvErr = err
				return
			}
			got += n
		}
	}()

	start := time.Now()
	err := sender.Write(payload)
	wg.Wait()
	elapsed := time.Since(start)
	if err == nil {
		err = recvErr
	}
	return elapsed, err
}

// MeasureCachingAblation times the tainted stream exchange with the
// production (cached) client and the ablation (uncached) client.
func MeasureCachingAblation(size, iters int) (AblationResult, error) {
	var res AblationResult
	for i := 0; i < iters; i++ {
		d, err := streamExchange(size, func(s *taintmap.Store, tr *taint.Tree) taintmap.Client {
			return taintmap.NewLocalClient(s, tr)
		})
		if err != nil {
			return res, err
		}
		res.Cached += d
		d, err = streamExchange(size, func(s *taintmap.Store, tr *taint.Tree) taintmap.Client {
			return uncachedClient{s, tr}
		})
		if err != nil {
			return res, err
		}
		res.Uncached += d
	}
	res.Cached /= time.Duration(iters)
	res.Uncached /= time.Duration(iters)
	return res, nil
}

// uncachedClient is A1's baseline: it contacts the Store on *every*
// Register and Lookup, with neither the per-node Global ID memo (Fig. 9
// step ② "does not need to request a Global ID again") nor the
// receiver-side id -> taint cache, and it ignores the definitions a
// stream carries. It exists to price what the paper's caching saves.
type uncachedClient struct {
	store *taintmap.Store
	tree  *taint.Tree
}

func (c uncachedClient) Register(t taint.Taint) (uint32, error) {
	if t.Empty() {
		return 0, nil
	}
	blob, err := taint.MarshalTaint(t)
	if err != nil {
		return 0, err
	}
	return c.store.RegisterBlob(blob), nil
}

func (c uncachedClient) Lookup(id uint32) (taint.Taint, error) {
	if id == 0 {
		return taint.Taint{}, nil
	}
	blob, err := c.store.LookupBlob(id)
	if err != nil {
		return taint.Taint{}, err
	}
	return c.tree.UnmarshalTaint(blob)
}

// RegisterBatch and LookupBatch still pay one store call per taint or
// id: skipping work is exactly what the baseline must not do.
func (c uncachedClient) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	ids := make([]uint32, len(ts))
	for i, t := range ts {
		var err error
		if ids[i], err = c.Register(t); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

func (c uncachedClient) LookupBatch(ids []uint32) ([]taint.Taint, error) {
	ts := make([]taint.Taint, len(ids))
	for i, id := range ids {
		var err error
		if ts[i], err = c.Lookup(id); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

func (uncachedClient) Learn([]uint32, [][]byte) error { return nil }
func (c uncachedClient) Tree() *taint.Tree            { return c.tree }
func (uncachedClient) Close() error                   { return nil }

// WireFormatComparison quantifies §III-D-2's bandwidth argument: wire
// bytes for n data bytes under (a) the Global ID design, (b) the naive
// serialize-the-taint-per-byte alternative and (c) what a stream sends
// at a taint's first crossing: (a) plus the blob once, in a definitions
// unit.
type WireFormatComparison struct {
	DataBytes       int
	GlobalIDWire    int // 5 bytes per data byte
	InlineBlobWire  int // 1 + 2 + len(blob) per data byte
	DefinedOnceWire int // GlobalIDWire + one definitions unit
	BlobLen         int
}

// CompareWireFormats computes the comparison for n bytes all tainted by
// one realistic taint (descriptor-style tag value).
func CompareWireFormats(n int) (WireFormatComparison, error) {
	tree := taint.NewTree()
	t := tree.NewSource(
		"org.apache.zookeeper.server.quorum.FastLeaderElection$Notification.vote",
		"192.168.10.21:28841",
	)
	blob, err := taint.MarshalTaint(t)
	if err != nil {
		return WireFormatComparison{}, err
	}
	return WireFormatComparison{
		DataBytes:       n,
		GlobalIDWire:    wire.WireLen(n),
		InlineBlobWire:  n * (1 + 2 + len(blob)),
		DefinedOnceWire: wire.WireLen(n) + len(wire.AppendDefinitions(nil, []uint32{1}, [][]byte{blob})),
		BlobLen:         len(blob),
	}, nil
}

// WriteAblations prints both ablations.
func WriteAblations(w io.Writer, size, iters int) error {
	res, err := MeasureCachingAblation(size, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ABLATION A1: TAINT MAP CLIENT CACHING (%d tainted bytes)\n", size)
	fmt.Fprintf(w, "  cached client:   %s\n", res.Cached)
	fmt.Fprintf(w, "  uncached client: %s (%.2fx)\n\n", res.Uncached, Overhead(res.Uncached, res.Cached))

	cmp, err := CompareWireFormats(size)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ABLATION A2: WIRE FORMAT (%d data bytes, %d-byte serialized taint)\n", cmp.DataBytes, cmp.BlobLen)
	fmt.Fprintf(w, "  Global ID design: %10d wire bytes (%.2fx data)\n",
		cmp.GlobalIDWire, float64(cmp.GlobalIDWire)/float64(cmp.DataBytes))
	fmt.Fprintf(w, "  inline taint blob:%10d wire bytes (%.2fx data)\n",
		cmp.InlineBlobWire, float64(cmp.InlineBlobWire)/float64(cmp.DataBytes))
	fmt.Fprintf(w, "  blob once, then ids:%8d wire bytes (%.4fx data; the first crossing of a taint on a stream)\n",
		cmp.DefinedOnceWire, float64(cmp.DefinedOnceWire)/float64(cmp.DataBytes))
	return nil
}
