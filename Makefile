GO ?= go

# Hot-path benchmark selection shared by `bench` and the A/B harness.
BENCH_RE := BenchmarkHotPath|BenchmarkTaintMap$$|BenchmarkWireCodec|BenchmarkTaintCombine

.PHONY: build test race race-taintmap vet lint inline-check loc check ci chaos bench bench-ab bench-hotpath bench-taintmap bench-distavet bench-cleanpath bench-cluster bench-grayfail bench-load soak-load fuzz fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The mux's read-role handoffs, the server's Close, the store arena's
# lock-free reads of concurrent appends and a replica's refusal of a
# conflicting push, five times more under the race detector: their races
# are ones of timing, which one pass samples once (~6 s).
RACE_AGAIN = $(GO) test -race -count=5 -run 'TestReadRole|TestFrozenTransportContract|TestServerCloseLogs|TestBatchOfOneEquivalence|TestArenaConcurrent|TestClusterReplicaRefusesConflict' ./internal/taintmap

race:
	$(GO) test -race ./...
	$(RACE_AGAIN)

# The concurrency-heavy taint map suite under the race detector; part of
# `race` too, but callable alone for a quick pre-commit signal.
race-taintmap:
	$(GO) test -race ./internal/taintmap/...
	$(RACE_AGAIN)

vet:
	$(GO) vet ./...

# distavet: the in-tree static-analysis suite (internal/analysis) that
# enforces the taint-soundness invariants — shadowdrop, labelcopy,
# errcmp, lockorder, mustcheck, idbits, tierencode, taintflow,
# deadsuppress. Exits non-zero on any finding; silence a deliberate
# exception with `//lint:ignore distavet/<name> reason`. The -facts
# cache makes warm re-runs replay unchanged packages (keyed by content
# hash of the package, its import closure and the analyzer set).
lint:
	$(GO) run ./cmd/distavet -facts .distavet-facts ./...

# The functions whose doc comments promise that the compiler inlines
# them — the per-byte and per-run primitives of the label and group
# loops — checked against what it actually decides (-gcflags=-m), so the
# promise cannot rot: a function that grows past the inlining budget
# fails the gate, and then either it shrinks or its comment changes and
# it leaves this list. (Bytes.LabelAt and Bytes.SetLabel left it that
# way: they cost 92 and 121 against a budget of 80 however the slow path
# is split off, and say so.) Three entries sit on the clean path.
# FrameDecoder.Defines is the receive side's "definitions pending?"
# test, a load and a compare on every read. AppendFrameHeader and
# Agent.AddTraffic are all the clean branch of streamWriter.write calls
# between b.Clean() and the native once the stream's tier selector is
# gone: a clean frame is assembled without leaving the function. The
# sender's "anything registered?" is no function to list — the
# len(pendingAt) compare coverRuns always made, inside the tainted
# branch of a write.
INLINED := 'internal/core/taint/shadow.go:norm' \
	'internal/core/taint/shadow.go:(*shadow).locate' \
	'internal/core/taint/taint.go:Taint.Empty' \
	'internal/core/taint/taint.go:Taint.GlobalID' \
	'internal/core/wire/wire.go:GroupWord' \
	'internal/core/wire/wire.go:PutGroup' \
	'internal/core/wire/wire.go:encodeGroups' \
	'internal/core/wire/wire.go:GroupID' \
	'internal/core/wire/wire.go:(*StreamDecoder).materialise' \
	'internal/core/wire/wire.go:(*StreamDecoder).peek' \
	'internal/core/wire/frame.go:(*FrameDecoder).Defines' \
	'internal/core/wire/frame.go:AppendFrameHeader' \
	'internal/core/tracker/tracker.go:(*Agent).AddTraffic' \
	'internal/instrument/endpoint.go:(*firstSeen[go.shape.uint32]).find' \
	'internal/instrument/endpoint.go:(*firstSeen[go.shape.uint32]).add'
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/core/taint ./internal/core/tracker ./internal/core/wire ./internal/instrument 2>&1); \
	for f in $(INLINED); do \
		echo "$$out" | sed -n "s|^$${f%%:*}:[0-9:]* ||p" | grep -qFx "can inline $${f##*:}" \
			|| { echo "inline-check: $${f##*:} ($${f%%:*}) is documented as inlined but the compiler does not inline it"; exit 1; }; \
	done; \
	echo "inline-check: $(words $(INLINED)) functions inline as documented"

# Non-test Go lines per package and in total — the size ROADMAP asks
# every PR to report: *.go minus *_test.go, with benchmark/ (the harness,
# not the product) and the analyzers' golden corpora left out. With
# BASE=<rev> it prints, per package, the lines at that revision (its tree
# unpacked into a temporary directory), the lines here and the delta:
#   make loc BASE=HEAD~1
LOC = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/analysis/testdata/*' \
	| xargs wc -l \
	| awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; t += $$1 } \
		END { for (p in n) printf "%7d %s\n", n[p], p; printf "%7d total\n", t }'
loc:
ifdef BASE
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && git archive $(BASE) | tar -x -C "$$tmp" \
		&& (cd "$$tmp" && $(LOC)) > "$$tmp/.loc" \
		&& $(LOC) | awk 'NR == FNR { b[$$2] = $$1; n[$$2] += 0; next } { n[$$2] = $$1 } \
			END { for (p in n) printf "%7d -> %7d %+6d %s\n", b[p], n[p], n[p] - b[p], p }' "$$tmp/.loc" - \
		| sort -k5
else
	@$(LOC) | sort -k2
endif

# Chaos suite under the race detector: kill/restart the Taint Map server
# mid-workload, random stream resets — every taint must survive with a
# correct, stable resolution. The instrument scenario additionally pins
# the clean-path bypass: an outage must never downgrade a tainted buffer
# onto the passthrough frame. Part of `check`; callable alone when
# iterating on the resilience layer.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/taintmap ./internal/instrument

# Tier-1 gate: everything CI runs.
check: vet lint inline-check build test race chaos soak-load fuzz-smoke bench-cleanpath bench-cluster bench-grayfail bench-distavet bench-load loc

# Alias for CI pipelines: the full gate, spelled out in build order.
ci: build vet lint inline-check test race fuzz-smoke chaos soak-load bench-cleanpath bench-cluster bench-grayfail bench-distavet bench-load

# Regenerate every live benchmark artifact in one pass. BENCH_3.json is
# frozen: its bench-resilience target and Resilient8 <= 1.10x Mux8 bound
# went with the resilient client — a one-address deployment runs the
# cluster client, whose cost on one server bench-cluster bounds at 1.05x.
bench: bench-hotpath bench-taintmap bench-distavet bench-cleanpath bench-cluster bench-grayfail bench-load

# A/B the working tree against a base commit on one workload of the
# repository's benchmark (BENCHMARK.json): cmd/benchab builds ./benchmark
# at BASE (its `git archive` unpacked under a temporary directory — set
# TMPDIR where /tmp is off limits) and here, prints each binary's
# instrument.adoptGroups address mod 64 (dense_bulk follows it), runs
# PAIRS alternating pairs with identical -seed/-seconds, and prints per
# end-to-end metric each side's median and quartiles, the pairs the
# change won and the verdict (a gain needs >= 9/10 wins and medians
# further apart than the base's interquartile distance). Ten 20 s pairs
# take ~8 minutes per workload (~14 on a two-core box), so this is a
# tool for a perf claim, not part of `check`.
#   make bench-ab BASE=HEAD~1 WORKLOAD=dense_bulk [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1
bench-ab:
	$(GO) run ./cmd/benchab -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# Run the hot-path microbenchmarks and refresh BENCH_1.json. Medians of
# -count=3 repetitions; seed baselines are embedded in cmd/benchjson.
bench-hotpath:
	$(GO) test -run=NONE -bench='$(BENCH_RE)' -benchmem -benchtime=1s -count=3 . | tee bench_hotpath.txt
	$(GO) run ./cmd/benchjson -in bench_hotpath.txt -out BENCH_1.json

# Run the concurrent Taint Map service benchmarks (multiplexed client vs
# the same client held to one request in flight, plus single-client
# latency) and refresh BENCH_2.json. Medians of -count=5 repetitions: the shared box
# is noisy, and the headline criterion is an in-run ratio, so extra
# repetitions buy stability where it matters.
bench-taintmap:
	$(GO) test -run=NONE -bench=BenchmarkTaintMapConcurrent -benchmem -benchtime=1s -count=5 . | tee bench_taintmap.txt
	$(GO) run ./cmd/benchjson -in bench_taintmap.txt -out BENCH_2.json

# Benchmark the distavet suite itself into BENCH_9.json: the full
# nine-analyzer suite (interprocedural index, summary fixpoint,
# taintflow/deadsuppress included) vs the original five-analyzer core
# over the same pre-loaded module, plus the warm fact-cache replay.
# Both criteria are in-run ratios: Suite <= 1.5x Core (the summary
# engine rides one shared index build) and SuiteWarm <= 0.35x Suite
# (a warm cache must actually skip re-analysis, not just re-verify).
# BENCH_4.json remains frozen as the pre-interprocedural artifact.
bench-distavet:
	$(GO) test -run=NONE -bench=BenchmarkDistavet -benchtime=1s -count=3 . | tee bench_distavet.txt
	$(GO) run ./cmd/benchjson -in bench_distavet.txt -out BENCH_9.json

# Clean-path bypass benchmarks, refreshed into BENCH_5.json, plus the
# wire tier suite into BENCH_7.json. The BENCH_5 headline criteria are
# in-run ratios (passthrough >= 5x the always-encode comparator the
# benchmark builds from the codec and the raw natives, clean write
# <= 1.5x the raw netsim copy floor, 0 allocs/op on the clean write)
# plus the tainted exchange held to the seed baseline; -benchmem is
# required for the pool-leak check. The BENCH_7 criteria are in-run
# ratios too: uniform <= 1.3x and sparse <= 1.5x of the clean floor.
bench-cleanpath:
	$(GO) test -run=NONE -bench='BenchmarkCleanPath|BenchmarkHotPath/MixedStreamExchange' -benchmem -benchtime=0.5s -count=3 . | tee bench_cleanpath.txt
	$(GO) run ./cmd/benchjson -in bench_cleanpath.txt -out BENCH_5.json
	$(GO) test -run=NONE -bench='BenchmarkAdaptivePath' -benchmem -benchtime=0.5s -count=5 . | tee bench_adaptive.txt
	$(GO) run ./cmd/benchjson -in bench_adaptive.txt -out BENCH_7.json

# Taint Map cluster benchmarks, refreshed into BENCH_6.json. Both
# headline criteria are in-run ratios: the scaling series (the same
# 8-goroutine mixed workload against 1, 2 and 4 service-modeled
# members) must register >= 2.5x faster at 4 members, and the cluster
# client pointed at a single plain server must stay within 1.05x of the
# bare multiplexed client. Part of `check`: a change that quietly
# serializes the members (or fattens the routing layer) fails CI.
# The Mux8/Cluster8 pair needs care to measure a 5% bound on a noisy
# shared host: each side runs in its own `go test` process (so both
# benchmarks are first-in-process — heap age and GC pacing are
# position-dependent and would otherwise land entirely on whichever
# ran second) at a fixed iteration count (time-based calibration picks
# different b.N per side, which skews per-op cost), interleaved five
# times so slow host drift cancels in the medians (benchjson requires
# >= 5 samples per point of the scaling series).
bench-cluster:
	$(GO) test -run=NONE -bench='BenchmarkTaintMapCluster' -benchmem -benchtime=0.5s -count=5 . | tee bench_cluster.txt
	for i in 1 2 3 4 5; do \
		$(GO) test -run=NONE -bench='BenchmarkTaintMapConcurrent/Mux8$$' -benchmem -benchtime=2000000x -count=1 . || exit 1; \
		$(GO) test -run=NONE -bench='BenchmarkTaintMapConcurrent/Cluster8$$' -benchmem -benchtime=2000000x -count=1 . || exit 1; \
	done | tee -a bench_cluster.txt
	$(GO) run ./cmd/benchjson -in bench_cluster.txt -out BENCH_6.json

# Gray-failure benchmarks, refreshed into BENCH_8.json. The criterion is
# an in-run ratio: the lookup pair measures memo-cold wire lookups on a
# 2-member RF-2 cluster, healthy vs one replica stalled (accepts
# requests, never answers); the stalled tail must stay <= 3x the
# healthy tail, which holds only if the breaker + hedge machinery turns
# the stall into instant fall-through. Fixed iteration counts keep
# every measured lookup memo-cold (one id pool pass per run, no
# time-based recalibration). The Mixed pair that held the hedged
# client's clean-path overhead to 1.05x of the sequential client is
# retired with its comparator: HedgeDelay < 0, which selected the
# sequential replica walk, is gone — the cluster client has one replica
# loop, inline on one replica and hedged on several.
bench-grayfail:
	$(GO) test -run=NONE -bench='BenchmarkGrayFail/(LookupHealthy|LookupStalled)$$' -benchmem -benchtime=5000x -count=5 . | tee bench_grayfail.txt
	$(GO) run ./cmd/benchjson -in bench_grayfail.txt -out BENCH_8.json

# Load-plane soaks, refreshed into BENCH_10.json. Each benchmark
# iteration is one whole closed-loop run (-benchtime=1x), repeated for
# medians. Both criteria are in-run ratios over identical per-op
# workloads: the 50k-connection soak's p999 must stay <= 12x the
# 1k-connection baseline's p999 (a 50x fan-in priced at strongly
# sub-linear tail growth; measured ~8x median on this box), and the
# polled echo sink must show >= 5x goroutine headroom against the
# goroutine-per-connection sink shape on the same 5k-connection
# workload (measured ~1000x: 5001 parked readers vs 5 poll workers).
bench-load:
	$(GO) test -run=NONE -bench='BenchmarkLoadPlane' -benchtime=1x -count=3 . | tee bench_load.txt
	$(GO) run ./cmd/benchjson -in bench_load.txt -out BENCH_10.json

# The acceptance soak: 50,000 concurrent instrumented connections under
# the race detector, multiplexed over a handful of goroutines (the race
# runtime's ~8k goroutine ceiling makes goroutine-per-connection
# impossible — finishing at all is the fabric claim).
soak-load:
	$(GO) test -race -run 'TestSoak50k' -count=1 -v ./internal/load

# Short fuzz pass over the wire round-trip property (CI smoke; the
# seeded corpus also runs as part of plain `go test`).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzStreamRoundTrip -fuzztime=20s ./internal/core/wire

# ~10s per target over the taint map protocol surface — the server-side
# frame parser and the blob/id list codecs — and ~3s over each target of
# the wire format, which range over the tier table's rows: the stream,
# frame and one-frame-datagram round trips, the decoder fed arbitrary
# bytes, and the tier-transition fuzzer, which drives an endpoint pair
# through random density schedules and checks per-byte label delivery
# across encoding switches and every write's wire bytes against its
# buffer's sound-minimum frame. Each wire target's seed corpus holds
# definitions units — ahead of frames, as payload, refused ones, one as a
# datagram — and the schedules register taints mid-stream. The taint
# blob target holds UnmarshalTaint's walk over wire bytes to the string
# walk (FromKeys of the parsed keys) under the real and a colliding tag
# hash. `go test` accepts one -fuzz pattern per invocation, hence one run
# per target.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='FuzzUnmarshalTaint$$' -fuzztime=5s ./internal/core/taint
	$(GO) test -run=NONE -fuzz=FuzzServeConn -fuzztime=10s ./internal/taintmap
	$(GO) test -run=NONE -fuzz=FuzzParseBlobList -fuzztime=10s ./internal/taintmap
	$(GO) test -run=NONE -fuzz='FuzzClusterServeConn$$' -fuzztime=10s ./internal/taintmap
	$(GO) test -run=NONE -fuzz='FuzzParseRing$$' -fuzztime=5s ./internal/taintmap
	$(GO) test -run=NONE -fuzz='FuzzStreamRoundTrip$$' -fuzztime=3s ./internal/core/wire
	$(GO) test -run=NONE -fuzz='FuzzFrameRoundTrip$$' -fuzztime=3s ./internal/core/wire
	$(GO) test -run=NONE -fuzz='FuzzPacketRoundTrip$$' -fuzztime=3s ./internal/core/wire
	$(GO) test -run=NONE -fuzz='FuzzFrameDecoderRobust$$' -fuzztime=3s ./internal/core/wire
	$(GO) test -run=NONE -fuzz='FuzzTierTransition$$' -fuzztime=10s ./internal/instrument
