package dista

import (
	"sync"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/instrument"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Hot-path benchmarks backing BENCH_1.json: the operations the
// run-based shadow representation targets. Uniform cases model the
// dominant real workload (a whole buffer carrying one taint); Mixed
// cases are the adversarial per-byte-label workload that must not
// regress past the dense representation.

const mixedSize = 4 << 10

// encodeLabelsToWire is the sender's composite label→wire path: walk
// the label runs, register each distinct taint, and emit groups — what
// Endpoint.Write does between the caller's Bytes and socketWrite0.
func encodeLabelsToWire(client taintmap.Client, b taint.Bytes) []byte {
	var runs []wire.Run
	var ts []taint.Taint
	b.ForEachRun(func(from, to int, t taint.Taint) {
		runs = append(runs, wire.Run{N: to - from})
		ts = append(ts, t)
	})
	ids, err := client.RegisterBatch(ts)
	if err != nil {
		panic(err)
	}
	for i := range runs {
		runs[i].ID = ids[i]
	}
	return wire.EncodeRuns(nil, b.Data, runs)
}

// decodeWireToLabels is the receiver's composite wire→label path: feed
// the stream decoder, resolve the run ids, and label the destination
// buffer — what Endpoint.Read does between socketRead0 and the
// caller's Bytes.
func decodeWireToLabels(client taintmap.Client, raw []byte, n int) taint.Bytes {
	var dec wire.StreamDecoder
	dec.Feed(raw)
	data, runs := dec.NextRuns(n)
	ids := make([]uint32, len(runs))
	for i, r := range runs {
		ids[i] = r.ID
	}
	ts, err := client.LookupBatch(ids)
	if err != nil {
		panic(err)
	}
	buf := taint.WrapBytes(data)
	pos := 0
	for i, r := range runs {
		buf.SetRange(pos, pos+r.N, ts[i])
		pos += r.N
	}
	return buf
}

func BenchmarkHotPath(b *testing.B) {
	b.Run("TaintAllUniform", func(b *testing.B) {
		tree := taint.NewTree()
		tag := tree.NewSource("u", "l")
		buf := taint.MakeBytes(benchSize)
		b.SetBytes(benchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.TaintAll(tag)
		}
	})
	b.Run("UnionUniform", func(b *testing.B) {
		tree := taint.NewTree()
		buf := taint.MakeBytes(benchSize)
		buf.TaintAll(tree.NewSource("u", "l"))
		b.SetBytes(benchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = buf.Union()
		}
	})
	b.Run("EncodePathUniform", func(b *testing.B) {
		tree := taint.NewTree()
		client := taintmap.NewLocalClient(taintmap.NewStore(), tree)
		buf := taint.MakeBytes(benchSize)
		buf.TaintAll(tree.NewSource("u", "l"))
		b.SetBytes(benchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = encodeLabelsToWire(client, buf)
		}
	})
	b.Run("DecodePathUniform", func(b *testing.B) {
		tree := taint.NewTree()
		client := taintmap.NewLocalClient(taintmap.NewStore(), tree)
		buf := taint.MakeBytes(benchSize)
		buf.TaintAll(tree.NewSource("u", "l"))
		raw := encodeLabelsToWire(client, buf)
		b.SetBytes(benchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = decodeWireToLabels(client, raw, benchSize)
		}
	})
	b.Run("MixedSetLabel", func(b *testing.B) {
		tree := taint.NewTree()
		t1 := tree.NewSource("m1", "l")
		t2 := tree.NewSource("m2", "l")
		buf := taint.MakeBytes(mixedSize)
		b.SetBytes(mixedSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < mixedSize; j++ {
				if j%2 == 0 {
					buf.SetLabel(j, t1)
				} else {
					buf.SetLabel(j, t2)
				}
			}
		}
	})
	b.Run("MixedLabelAt", func(b *testing.B) {
		tree := taint.NewTree()
		t1 := tree.NewSource("m1", "l")
		t2 := tree.NewSource("m2", "l")
		buf := taint.MakeBytes(mixedSize)
		for j := 0; j < mixedSize; j++ {
			if j%2 == 0 {
				buf.SetLabel(j, t1)
			} else {
				buf.SetLabel(j, t2)
			}
		}
		b.SetBytes(mixedSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < mixedSize; j++ {
				_ = buf.LabelAt(j)
			}
		}
	})
	// MixedStreamExchange is the end-to-end mixed per-byte-label
	// workload: a payload alternating two taints on every byte crosses
	// an instrumented connection (label walk, Taint Map traffic, group
	// encode, stream decode, label adoption). This is the workload-level
	// benchmark behind the "mixed labels no slower than ~1.2x of seed"
	// criterion; per-call accessor costs are tracked separately by
	// MixedSetLabel/MixedLabelAt.
	b.Run("MixedStreamExchange", func(b *testing.B) {
		const size = 4 << 10
		net := netsim.New()
		store := taintmap.NewStore()
		mk := func(name string) *tracker.Agent {
			a := tracker.New(name, tracker.ModeDista)
			return tracker.New(name, tracker.ModeDista,
				tracker.WithTaintMap(taintmap.NewLocalClient(store, a.Tree())))
		}
		sAgent, rAgent := mk("s"), mk("r")
		cs, cr := net.Pipe()
		sender := instrument.NewAdaptiveEndpoint(sAgent, cs)
		receiver := instrument.NewAdaptiveEndpoint(rAgent, cr)
		payload := taint.MakeBytes(size)
		t1 := sAgent.Source("s", "mix1")
		t2 := sAgent.Source("s", "mix2")
		for i := 0; i < size; i++ {
			if i%2 == 0 {
				payload.SetLabel(i, t1)
			} else {
				payload.SetLabel(i, t2)
			}
		}
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			wg.Add(1)
			var recvErr error
			go func() {
				defer wg.Done()
				buf := taint.MakeBytes(size)
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
			if err := sender.Write(payload); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
			if recvErr != nil {
				b.Fatal(recvErr)
			}
		}
	})
	b.Run("CombineCached", func(b *testing.B) {
		tree := taint.NewTree()
		x := tree.NewSource("x", "l")
		y := tree.NewSource("y", "l")
		taint.Combine(x, y) // warm the memo
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = taint.Combine(x, y)
		}
	})
	b.Run("SingleTaintEncode", func(b *testing.B) {
		data := make([]byte, benchSize)
		runs := []wire.Run{{N: benchSize, ID: 42}}
		b.SetBytes(benchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = wire.EncodeRuns(nil, data, runs)
		}
	})
	b.Run("SingleTaintDecode", func(b *testing.B) {
		data := make([]byte, benchSize)
		raw := wire.EncodeRuns(nil, data, []wire.Run{{N: benchSize, ID: 42}})
		b.SetBytes(benchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var dec wire.StreamDecoder
			dec.Feed(raw)
			_, _ = dec.NextRuns(benchSize)
		}
	})
}
