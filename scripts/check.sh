#!/usr/bin/env sh
# Tier-1 verification: gofmt, build, vet, rtlint, race-enabled tests.
# Run from anywhere; operates on the repository root.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The ledger is its own module built against this tree: vet it here so a
# deleted or renamed API it calls fails in seconds, not after the race suite.
echo "== go vet perfledger"
(cd perfledger && GOWORK=off GOPROXY=off go vet .)

# The ledger's own unit tests (metric catalog vs BENCHMARK.json among them):
# go test ./... stops at the nested module. -short skips TestLedgerSmoke,
# which the perfledger smoke step below covers.
echo "== go test perfledger"
(cd perfledger && GOWORK=off GOPROXY=off go test -short -count 1 .)

# Other architectures: internal/tensor has an amd64 assembly kernel, and
# every other GOARCH must still build from the Go tiles alone.
echo "== GOARCH=arm64 go build ./... + go vet ./internal/tensor"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor

echo "== rtlint ./..."
mkdir -p out
# Machine-readable report kept as a CI artifact; the command still exits
# non-zero on any finding (`//rtlint:ignore <check> <reason>` is the only
# suppression).
go run ./cmd/rtlint -json ./... > out/rtlint.json

# Analyzer self-test: the corpus wants and the seeded scratch bugs must
# still fire, so a regression in the CFG/dataflow engine cannot silently
# turn the checks into no-ops.
echo "== rtlint corpus + seeded-scratch self-test"
go test -count 1 -run 'TestCorpus|TestSeededScratch' ./internal/analysis

# Focused journal checks first: golden-report drift, journal determinism,
# the frozen-detector parity checks (input-only backward and its
# input-channel split, batched verify, concurrent window frames), the
# fused-block parity checks (fused against the unfused chain per block and
# per detector, at batch N, on serving clones, and after the batch-norm
# state changes under a fused block: retraining, in-place edits,
# LoadState), the matmul kernel parity checks (the packed path and the row
# loop on their row and column boundaries, and the AVX2 tile, with the tile
# on and off) and the decal-window parity checks fail in seconds here,
# before the full race suite spins up.
echo "== golden journal + report + frozen-detector, fused-block and matmul parity"
go test -count 1 -run 'TestTrainJournal|TestTrainGolden|TestVerifyChannelMatchesPerView|TestDecalWindowMatchesFullRaster|TestForwardFramesWorkerCountInvariant' ./internal/attack
go test -count 1 -run 'TestWarpWindowMatchesFullRaster|TestCompositeWindowMatchesFullCanvas' ./internal/imaging
go test -count 1 -run 'TestConvBNLeakyFusedParity|TestConvBNLeakyRefoldAfterTraining' ./internal/nn
go test -count 1 -run 'TestInputGradMatchesBackward|TestFusedModelBitIdentical|TestFusedCloneServingPath|TestForwardBatchMatchesSingles' ./internal/yolo
go test -count 1 -run 'TestConv2DInputGradChannelSplitBitExact|TestMatMulBlockedMatchesRefBitExact|TestMatMulBlockedPartialRows|TestMatMulTilesMatchRefBitExact|TestTile4x8MatchesRef' ./internal/tensor
go test -count 1 -run 'Golden' ./internal/obs ./cmd/runreport

# One iteration of each tensor benchmark (about 0.5 s): they call the
# kernels directly, matMulRowsPacked on 1-row shapes included, so a kernel
# change that breaks a benchmark fails here rather than at the next
# profiling session.
echo "== tensor benchmarks, one iteration each"
go test -count 1 -run '^$' -bench . -benchtime 1x ./internal/tensor

# Fabric smoke gate: a gateway fronting two real nodes over loopback TCP
# must complete an evaluate round-trip and drain cleanly, under the race
# detector, and a node must answer one job with exactly one frame (Health
# first, one Result per Job, a draining Health on Close), a node closed
# while jobs stream in must answer every job it accepted before Close
# returns, and the client must read every one of those replies, a node
# that drains and restarts at the same address must get jobs again, and a
# gateway closed while a backend is still dialing must hang up on that
# connection once the dial completes. Fast and focused, so fabric wiring
# regressions fail here with a readable name before the full suite runs.
echo "== fabric smoke (gateway + 2 nodes, one frame per job, close under load, restart, close while dialing)"
go test -race -count 1 -run 'TestFabricSmoke|TestNodeAnswersEachJobWithOneFrame|TestNodeCloseAnswersEveryAcceptedJob|TestNodeCloseRepliesReachPeer|TestGatewayRoutesRestartedNode|TestGatewayCloseDropsDialingBackend' ./internal/fabric

# Trace golden gate: the committed tracetool fixture must merge
# byte-for-byte into testdata/merged.golden, and a live gateway plus
# three journaled nodes must produce one causal tree whose merged
# rendering is identical across fresh runs (injected logical clocks).
echo "== trace golden (tracetool fixture + cross-process merge)"
go test -count 1 ./cmd/tracetool
go test -race -count 1 -run 'TestTraceGoldenCrossProcess' ./internal/fabric

# Chaos gate: seed-deterministic fault injection (partitions, corrupt and
# truncated frames, slow-loris handshakes, duplicate delivery) against the
# chaos wrappers and the gateway/node pair, race-enabled. Seeds are pinned
# in the tests — a failure here reproduces byte-for-byte.
echo "== chaos suite (deterministic fault injection)"
go test -race -count 1 -run 'TestChaos' ./internal/chaos ./internal/fabric

# JSONL policy gate: the one reader's skip-and-count policy, pinned on the
# run journal and the gateway WAL (committed fuzz seeds included), and the
# warnings runreport and tracetool print for a damaged journal, so a
# policy regression fails here under a readable name.
echo "== one JSONL reader (journal + WAL + CLI warnings)"
go test -count 1 -run 'TestReadJournal|FuzzReadJournal|TestWAL|FuzzWALReplay' ./internal/obs ./internal/fabric
go test -count 1 -run 'TestRunWarnsOnMidFileCorruption' ./cmd/runreport
go test -count 1 -run 'TestTracetoolMidFileCorruptionWarnsAndMerges|TestTracetoolTornJournalWarnsAndMerges' ./cmd/tracetool

# Request-reader gate: the single-pass evaluate and detect readers agree
# with encoding/json on every committed seed (one per fallback trigger),
# the node's envelope pass agrees with json.Unmarshal and refuses
# bare-request payloads, the per-route body limits hold at servd and the
# gateway (a declared detect length is not allocated before its bytes
# arrive), a body whose patch escapes '/' shares the plain body's digest,
# node and cache entry, and a detect body with a null element or an
# escaped key answers as encoding/json reads it, with each fallback
# counted.
echo "== one request reader, evaluate and detect (fuzz seeds + envelope + limits + fallback bodies)"
go test -count 1 -run 'FuzzDecodeEvalRequest|TestDecodeEvalRequestFallbacks|FuzzDecodeDetectRequest|TestDecodeDetectRequestFallbacks|TestPlainASCIIEveryByteEveryLane|TestEvalDecodeFallbackMetric|TestDetectDecodeFallbackMetric|TestRequestBodyLimits|TestDetectDeclaredLengthAllocatesOnArrival' ./internal/serve
go test -count 1 -run 'FuzzJobEnvelope|TestDecodeJobBareAndMalformed|TestGatewayRequestBodyLimits|TestGatewayEscapedBodySharesPlainEntry' ./internal/fabric

# Hit-path and host-independence gate: the allocation bound on an executor
# cache hit, and the trained bytes at GOMAXPROCS 1, 3 and 4, which must
# match the golden recorded at 2 (3 splits the detector's input channels
# into uneven chunks).
echo "== cache-hit allocations + GOMAXPROCS=1,3,4 training golden"
go test -count 1 -run 'TestCacheHitSkipsPatchDecode' ./internal/serve
GOMAXPROCS=1 go test -count 1 -run TestTrainGolden ./internal/attack
GOMAXPROCS=3 go test -count 1 -run TestTrainGolden ./internal/attack
GOMAXPROCS=4 go test -count 1 -run TestTrainGolden ./internal/attack

echo "== go test -race ./..."
go test -race ./...

# Kernel smoke: one short production-vs-reference window per benchmark,
# recorded to a scratch artifact and never gated (one window is too noisy
# to compare). The speedup gate runs on `make bench` against the committed
# BENCH_tensor.json.
echo "== benchperf smoke"
mkdir -p out
go run ./cmd/benchperf -smoke -out out/bench_smoke.json

# Ledger output gate: every perfledger workload in 1 s windows. It recomputes
# the eval and detect responses in process and exits 1 on any byte mismatch
# or failed operation.
echo "== perfledger smoke"
bash perfledger/run.sh -smoke

echo "== checks passed"
