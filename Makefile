.PHONY: all build test analyze lint sanitize bench-smoke profile-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Static analysis over the built-in workloads: join-graph checks, trace
# replay verification, and the operator-contract sanitizer.
analyze:
	dune exec bin/rox_cli.exe -- analyze

# Static mutable-state lint (RX510/RX511): every top-level mutable
# global and mutable record field under lib/ must carry a documented
# guard in the capability allowlist, and a "mutex:" guard must sit in a
# file that builds its state with Guarded.create, so the lock is one the
# type checker enforces. JSON diagnostics land next to the other CI
# artifacts.
lint:
	dune exec bin/rox_cli.exe -- lint
	dune exec bin/rox_cli.exe -- lint --json > rox_lint.json

# Runtime contract checks (RX301-RX306, and RX504: every session entry
# checked against the domain that claimed the session): the analyze
# workloads plus the
# fuzz suite with every operator call cross-checked — columnar kernels
# bit-for-bit against the row-major reference, index-domain steps against
# the candidate-column path, cache hits against fresh recomputation,
# sorted flags audited — then the serve suite under the same contracts,
# so cache replay (RX304) and the owner check run on the concurrent
# served path too, the
# property suite, whose index-domain property drives the RX306 step
# cross-check over every axis and domain kind, and the join-graph suite,
# whose edge-by-edge replays cross-check the T(v) refresh that skips
# carried columns against RX306, the core suite, whose optimizer runs
# re-check every replay of the per-query sampled-run memo (RX304), and
# the classical and extensions suites, so the static, enumerated and
# mid-query policies run the one execution driver under the contracts
# too. The suites' direct operator calls take ROX_SANITIZE's mode from
# one test helper.
sanitize:
	ROX_SANITIZE=1 dune exec bin/rox_cli.exe -- analyze
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test fuzz
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test serve
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test props
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test joingraph
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test core
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test classical
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test extensions

# Quick benchmarks: telemetry overhead on the Figure 5 workload
# (BENCH_telemetry.json, <3% target), and the serving front-end
# (BENCH_serve.json: saturation qps at 1 and N worker domains, open-loop
# p50/p99, a scripted socketpair session, audits required clean).
bench-smoke:
	dune exec bench/main.exe -- telemetry serve

# An instrumented run of the built-in XMark workload: --profile summary
# on stderr, Chrome trace-event JSON + Prometheus metrics on disk, a
# slow-query log at --slow-ms 0 (one JSONL line per query), then the
# emitted trace parsed back and schema-checked (well-nested spans,
# non-negative durations). The trace loads in Perfetto / chrome://tracing.
profile-smoke:
	dune exec bin/rox_cli.exe -- profile --repeat 2 \
	  --trace-out rox_trace.json --metrics-out rox_metrics.prom \
	  --slow-log rox_slow.jsonl --slow-ms 0
	dune exec bin/rox_cli.exe -- trace-validate rox_trace.json

# Every gate once, failing loudly. Benchmarks are not part of check: CI
# runs bench-smoke as its own step (and uploads the BENCH_*.json files),
# so a local check never rewrites the committed results.
check: build test analyze lint sanitize profile-smoke

clean:
	dune clean
