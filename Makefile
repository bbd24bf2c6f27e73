.PHONY: all build test analyze lint racecheck sanitize bench-smoke profile-smoke serve-smoke recorder-smoke check clean

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
# guard in the capability allowlist. JSON diagnostics land next to the
# other CI artifacts.
lint:
	dune exec bin/rox_cli.exe -- lint
	dune exec bin/rox_cli.exe -- lint --json > rox_lint.json

# Dynamic race detection (RX501-RX504): prove the detector's teeth on
# the seeded fixtures (the planted unguarded counter must come back
# RX501, its mutex-guarded twin clean), then replay the multi-domain
# workload — concurrent sessions on one shared cache, then the
# same queries through the serving front-end — under the armed access
# log and require it race-free. The explicit seeded-race invocation
# asserts the non-zero exit path CI depends on.
racecheck:
	dune exec bin/rox_cli.exe -- racecheck
	dune exec bin/rox_cli.exe -- racecheck --json > rox_racecheck.json
	@if dune exec bin/rox_cli.exe -- racecheck --fixture seeded-race \
	  > /dev/null 2>&1; then \
	  echo "racecheck: seeded race was NOT flagged (expected exit 1)"; exit 1; \
	else echo "racecheck: seeded race correctly rejected"; fi

# Runtime contract checks (RX301-RX307): the analyze workloads plus the
# fuzz suite with every operator call cross-checked — columnar kernels
# bit-for-bit against the row-major reference, cache hits against fresh
# recomputation, sorted flags audited, session confinement (no global
# reads on a session's path) armed — then the serve suite under the same
# contracts, so cache replay (RX304) and confinement (RX307) run on the
# concurrent served path too.
sanitize:
	ROX_SANITIZE=1 dune exec bin/rox_cli.exe -- analyze
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test fuzz
	ROX_SANITIZE=1 dune exec test/test_main.exe -- test serve

# Quick benchmarks: the cache experiment (BENCH_cache.json), the
# columnar relation kernels vs the row-major reference
# (BENCH_relation.json, warns under 2x at 10^5 rows), concurrent
# sessions on OCaml 5 domains (BENCH_parallel.json, bit-identity
# enforced; speedup tracks physical cores), telemetry overhead on
# the Figure 5 workload (BENCH_telemetry.json, <3% target), and the
# serving front-end (BENCH_serve.json: saturation qps at 1 and N
# worker domains, open-loop p50/p99, a scripted socketpair session,
# audits required clean).
bench-smoke:
	dune exec bench/main.exe -- cache relation parallel telemetry serve

# A scripted protocol session against an in-process server over a
# socketpair: PING, repeated QUERY (answers must be bit-identical),
# a budget-aborted QUERY (structured ERR, not a dropped connection),
# STATS accounting, QUIT — then the RX601/RX603 self-audit.
serve-smoke:
	dune exec bin/rox_cli.exe -- serve --smoke

# The flight-recorder acceptance loop, under the sanitizer: the serve
# smoke script with a slow log armed at --slow-ms 0, so every request
# writes a JSONL line (validated in-script, line count reconciled with
# the recorder) and at least one trace is retained, fetched over TRACE,
# and exported — then the exported file must pass the Chrome-trace
# schema check.
recorder-smoke:
	ROX_SANITIZE=1 dune exec bin/rox_cli.exe -- serve --smoke \
	  --slow-log rox_slow.jsonl --slow-ms 0
	dune exec bin/rox_cli.exe -- trace-validate rox_slow.jsonl.trace.json

# An instrumented run of the built-in XMark workload: --profile summary
# on stderr, Chrome trace-event JSON + Prometheus metrics on disk, then
# the emitted trace parsed back and schema-checked (well-nested spans,
# non-negative durations). The trace loads in Perfetto / chrome://tracing.
profile-smoke:
	dune exec bin/rox_cli.exe -- profile --repeat 2 \
	  --trace-out rox_trace.json --metrics-out rox_metrics.prom
	dune exec bin/rox_cli.exe -- trace-validate rox_trace.json

# Every gate once, failing loudly. Benchmarks are not part of check: CI
# runs bench-smoke as its own step (and uploads the BENCH_*.json files),
# so a local check never rewrites the committed results.
check: build test analyze lint racecheck sanitize profile-smoke serve-smoke recorder-smoke

clean:
	dune clean
