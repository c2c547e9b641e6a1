GO ?= go

.PHONY: build test race race-taintmap vet fmt lint inline-check wallclock loc check ci chaos invariants bench-ab soak-load fuzz fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The mux's read-role handoffs, the server's Close, the store arena's
# lock-free reads of concurrent appends, a replica's refusal of a
# conflicting push, concurrent pushes sharing one peer client, lone
# registrations of one blob racing on one shared client, four
# connections whose large reads borrow scratch from one pool (a buffer
# given back early shows as another connection's bytes), an agent's
# queue of deferred registrations, shared by streams on their own
# goroutines and drained by another, and a batch registration in flight —
# its answer read by the connection's helper while the agent sends on,
# collected at a reuse, a drain, a reset or after an idle past the call
# timeout — five times more under the race detector: their races are ones
# of timing, which one pass samples once (~12 s).
RACE_AGAIN = $(GO) test -race -count=5 -run 'TestReadRole|TestFrozenTransportContract|TestServerCloseLogs|TestBatchOfOneEquivalence|TestArenaConcurrent|TestClusterReplicaRefusesConflict|TestPeerPushesShareOneConnection|TestConcurrentClients|TestBorrowedScratchAcrossConnections|TestDeferredRegistrationConcurrent|TestInFlightRegistration|TestFreshExchangeTaintMapTraffic|TestChaosStreamOutage' ./internal/taintmap ./internal/instrument

# The tag tree's lock-free readers against its one writer lock: interning
# from many goroutines, unions through the combine cache's slots, and
# chunk, arena and hub table growth under readers that walk, look up and
# combine what was just made — five times more, for the same reason.
RACE_TREE = $(GO) test -race -count=5 -run 'TestChildrenConcurrent|TestConcurrentCombine|TestTreeGrowthConcurrent' ./internal/core/taint

race:
	$(GO) test -race ./...
	$(RACE_AGAIN)
	$(RACE_TREE)

# The concurrency-heavy taint map suite under the race detector; part of
# `race` too, but callable alone for a quick pre-commit signal.
race-taintmap:
	$(GO) test -race ./internal/taintmap/...
	$(RACE_AGAIN)

vet:
	$(GO) vet ./...

# Every Go file as gofmt prints it; the files it would change are listed.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "fmt: gofmt would change:"; echo "$$out"; exit 1; }

# distavet: the in-tree static-analysis suite (internal/analysis) that
# enforces the taint-soundness invariants — shadowdrop, labelcopy,
# errcmp, lockorder, mustcheck, tierencode, taintflow,
# deadsuppress. Exits non-zero on any finding; silence a deliberate
# exception with `//lint:ignore distavet/<name> reason`. The standard
# library is read from its export data (one `go list -export -deps`),
# never type-checked from source, so every run is a whole one: there is
# no cache to go stale.
lint:
	$(GO) run ./cmd/distavet ./...

# The functions whose doc comments promise that the compiler inlines
# them — the per-byte and per-run primitives of the label and group
# loops — checked against what it actually decides (-gcflags=-m), so the
# promise cannot rot: a function that grows past the inlining budget
# fails the gate, and then either it shrinks or its comment changes and
# it leaves this list. (Bytes.LabelAt and Bytes.SetLabel left it that
# way: they cost 92 and 121 against a budget of 80 however the slow path
# is split off, and say so.) Five entries sit on the clean path.
# FrameDecoder.Defines is the receive side's "definitions pending?"
# test, a load and a compare on every read, and wholePassthrough its "is
# this read one whole passthrough frame that fits?", which FrameDecoder.Whole
# asks once the decoder holds nothing: a clean read answered yes calls
# only clearStale, the receive side's one stale-label rule (shared with
# adoptRuns' clean delivery), before it is copied out of the read
# buffer. AppendFrameHeader and
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
	'internal/core/wire/frame.go:wholePassthrough' \
	'internal/core/wire/frame.go:AppendFrameHeader' \
	'internal/core/tracker/tracker.go:(*Agent).AddTraffic' \
	'internal/instrument/endpoint.go:clearStale' \
	'internal/instrument/endpoint.go:(*firstSeen[go.shape.uint32]).find' \
	'internal/instrument/endpoint.go:(*firstSeen[go.shape.uint32]).add'
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/core/taint ./internal/core/tracker ./internal/core/wire ./internal/instrument 2>&1); \
	for f in $(INLINED); do \
		echo "$$out" | sed -n "s|^$${f%%:*}:[0-9:]* ||p" | grep -qFx "can inline $${f##*:}" \
			|| { echo "inline-check: $${f##*:} ($${f%%:*}) is documented as inlined but the compiler does not inline it"; exit 1; }; \
	done; \
	echo "inline-check: $(words $(INLINED)) functions inline as documented"

# Every timer and clock read of the taint map runs on a netsim.Clock —
# the server's deadlines on its network's, a client's call timeout and
# deadlines on its own — so that a test on a virtual clock drives all of
# them. The gate fails on a direct wall-clock call in internal/taintmap's
# non-test code (comments aside) and prints each offending line.
WALLCLOCK := 'time\.(Now|Since|Until|NewTimer|NewTicker|After|AfterFunc|Sleep)\('
wallclock:
	@out=$$(grep -nE $(WALLCLOCK) $$(ls internal/taintmap/*.go | grep -v '_test\.go$$') | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	test -z "$$out" || { echo "wallclock: direct wall-clock calls in internal/taintmap:"; echo "$$out"; exit 1; }; \
	echo "wallclock: internal/taintmap runs on netsim.Clock"

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
check: vet fmt lint inline-check wallclock build test race chaos soak-load fuzz-smoke loc invariants

ci: check

# The design invariants (invariants_test.go): in-run ratios that pin a
# design decision — the mux's pipelining, the cluster of one, cluster
# scaling, the passthrough, uniform and sparse tiers against the clean
# floor, the gray-failure tail, distavet's suite and the
# 50k-connection soak tail. Each runs its two sides in alternating pairs
# at fixed iteration counts, logs the median ratio against its bound and
# fails past it; nothing is written. They are benchmarks so that `go
# test ./...` does not run them.
invariants:
	$(GO) test -run=NONE -bench=Invariant -benchtime=1x .

# A/B the working tree against a base commit on one workload of the
# repository's benchmark (BENCHMARK.json): cmd/benchab builds ./benchmark
# at BASE (its `git archive` unpacked under a temporary directory — set
# TMPDIR where /tmp is off limits) and here, prints each binary's
# address mod 64 of every function holding a dense_bulk per-byte loop
# (adoptGroups, putDense, encodeDense, the store's forEach, SetLabel;
# dense_bulk follows their placement), runs
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
# buffer's sound-minimum frame; its shape bit 4 fails the receiver's
# lookups through the middle third of the messages, so a delivery taken
# in one pass meets a third id it cannot resolve, ends short and is
# retried (seeds under internal/instrument/testdata/fuzz). Each wire
# target's seed corpus holds definitions units — ahead of frames, as
# payload, refused ones, one as a datagram — and the schedules register taints mid-stream. The taint
# blob target holds UnmarshalTaint's walk over wire bytes to the string
# walk (FromKeys of the parsed keys) under the real and a colliding tag
# hash. The data-stream target (~3s) writes random primitives with random
# labels through a small BufferedOutputStream, which labels each value in
# its buffer, and reads them back through DataInputStream. The deferred
# registration target (~5s) runs schedules of fresh and reused taints,
# relays, Taint Map outages, connection resets with a batch in flight,
# idles past the call timeout, refused natives and drains over three
# streams of an agent pair and a one-member Taint Map on a virtual clock,
# from the seeds in code and under internal/instrument/testdata/fuzz. `go test` accepts one -fuzz pattern
# per invocation, hence one run per target.
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
	$(GO) test -run=NONE -fuzz='FuzzDeferredRegistration$$' -fuzztime=5s ./internal/instrument
	$(GO) test -run=NONE -fuzz='FuzzDataStreamRoundTrip$$' -fuzztime=3s ./internal/jre
