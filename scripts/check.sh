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

echo "== rtlint ./..."
mkdir -p out
# Machine-readable report kept as a CI artifact; the command still exits
# non-zero on any finding the baseline does not cover.
go run ./cmd/rtlint -json ./... > out/rtlint.json

# Baseline-free gate: the tree must be clean on its own. A committed
# rtlint.baseline means someone grandfathered a violation instead of
# fixing it — reject that here.
if [ -f rtlint.baseline ]; then
    echo "check: rtlint.baseline exists; fix the findings instead of grandfathering them" >&2
    exit 1
fi

# Analyzer self-test: the corpus wants and the seeded scratch bugs must
# still fire, so a regression in the CFG/dataflow engine cannot silently
# turn the checks into no-ops.
echo "== rtlint corpus + seeded-scratch self-test"
go test -count 1 -run 'TestCorpus|TestSeededScratch' ./internal/analysis

# Focused journal checks first: golden-report drift, journal determinism
# and the frozen-detector parity checks (input-only backward, batched
# verify) fail in seconds here, before the full race suite spins up.
echo "== golden journal + report + frozen-detector parity"
go test -count 1 -run 'TestTrainJournal|TestTrainGolden|TestVerifyChannelMatchesPerView' ./internal/attack
go test -count 1 -run 'TestInputGradMatchesBackward' ./internal/yolo
go test -count 1 -run 'Golden' ./internal/obs ./cmd/runreport

# Fabric smoke gate: a gateway fronting two real nodes over loopback TCP
# must complete an evaluate round-trip and drain cleanly, under the race
# detector. Fast and focused, so fabric wiring regressions fail here with
# a readable name before the full suite runs.
echo "== fabric smoke (gateway + 2 nodes)"
go test -race -count 1 -run 'TestFabricSmoke' ./internal/fabric

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

echo "== go test -race ./..."
go test -race ./...

echo "== benchperf smoke"
mkdir -p out
go run ./cmd/benchperf -smoke -out out/bench_smoke.json

# Serving gate: micro-batched throughput must stay >= 2x the batch-size-1
# baseline on the duplicate-heavy burst workload, and must not regress more
# than the tolerance against the committed BENCH_serve.json. Writes a scratch
# artifact; the committed file only changes via `make bench-serve`.
echo "== benchperf serve smoke"
go run ./cmd/benchperf -serve -smoke -prev BENCH_serve.json -out out/bench_serve_smoke.json

# Ledger output gate: every perfledger workload in 1 s windows. It recomputes
# the eval and detect responses in process and exits 1 on any byte mismatch
# or failed operation.
echo "== perfledger smoke"
bash perfledger/run.sh -smoke

echo "== checks passed"
