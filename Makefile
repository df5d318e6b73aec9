# Development entry points. `make check` is the tier-1 verify path:
# gofmt + build + vet + rtlint + race-enabled tests (scripts/check.sh).

.PHONY: check build vet lint test race chaos trace bench bench-tables serve report

check:
	./scripts/check.sh

build:
	go build ./...

vet:
	go vet ./...

# Repo-specific invariants (determinism, reentrancy, numeric safety,
# goroutine lifecycle, lock discipline, context propagation, no library
# code without a production caller) with a per-check wall-clock breakdown. See DESIGN.md "Correctness invariants"
# for what each check enforces.
lint:
	go run ./cmd/rtlint -timing ./...

test:
	go test ./...

race:
	go test -race ./...

# Deterministic fault-injection suite: the chaos wrappers' own unit tests
# plus the fabric scenarios (partition failover, breaker trips, WAL
# replay, deadline propagation, membership churn). Seeds are fixed in the
# tests, so every run sees the same fault schedule; always race-enabled.
chaos:
	go test -race -count 1 -run 'TestChaos' ./internal/chaos ./internal/fabric

# Distributed-tracing golden gate: the committed tracetool fixture (three
# journals merging byte-for-byte into testdata/merged.golden) plus the
# live gateway+3-node cross-process trace tests. Regenerate the fixture
# after an intentional format change with:
#   go test ./cmd/tracetool -run Golden -update
trace:
	go test -race -count 1 ./cmd/tracetool
	go test -race -count 1 -run 'TestTrace' ./internal/fabric

# Measure the tensor kernels against the preserved reference kernels and
# refresh the committed perf record (see DESIGN.md "Performance"). Run on a
# quiet machine; the regression gate compares speedup ratios against the
# committed BENCH_tensor.json, not ns/op. End-to-end workloads (attack
# window, evaluation, detection) are measured by perfledger/run.sh.
bench:
	go run ./cmd/benchperf -runs 5 -out BENCH_tensor.json

# Regenerate the paper tables/figures at reduced budget (needs
# testdata/detector.rtwt from `go run ./cmd/trainyolo`; the transfer table
# also needs testdata/detector_b.rtwt). Keeps the budget, seed and output
# directory of the former `go test -bench` suite: 200 iterations per patch,
# 3 evaluation runs, seed -10, out/bench.
bench-tables:
	go run ./cmd/benchtab -iters 200 -runs 3 -seed=-10 -out out/bench

# Run the evaluation service locally.
serve:
	go run ./cmd/servd -addr :8080

# Render a JSONL run journal (written via `attackgen -journal` or
# `evalattack -journal`) into per-restart-segment summaries.
JOURNAL ?= out/run.jsonl
report:
	go run ./cmd/runreport $(JOURNAL)
