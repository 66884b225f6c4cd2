# Developer entry points.  `make check` is the gate every change must
# pass: the tier-1 test suite plus lint (when ruff is installed).

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

.PHONY: check test fast bench bench-smoke perfbench-smoke bench-trend trace-diff profile lint detlint detlint-report

## The tier-1 gate: full unit suite + lint + determinism linter.
check: test lint detlint

## Full unit test suite (tier-1 command).
test:
	$(PYTEST) -x -q

## Fast loop: unit tests without anything marked slow.
fast:
	$(PYTEST) -x -q -m "not slow"

## Paper-figure benchmark sweeps (slow; writes benchmarks/results/).
## Knobs (also honored as plain environment variables):
##   make bench WORKERS=8              # worker process count
##   make bench CACHE_DIR=.bench-cache # persistent spec-hash result cache,
##                                     # reused across invocations
WORKERS ?= $(WHITEFI_BENCH_WORKERS)
CACHE_DIR ?= $(WHITEFI_BENCH_CACHE_DIR)
bench:
	WHITEFI_BENCH_WORKERS="$(WORKERS)" \
	WHITEFI_BENCH_CACHE_DIR="$(CACHE_DIR)" \
	$(PYTEST) -q benchmarks

## Smoke-run the wsdb benchmark drivers with tiny parameters (CI runs
## this so sweep drivers cannot silently rot between full `make bench`
## invocations; paper-scale assertions are skipped).
bench-smoke:
	WHITEFI_BENCH_SMOKE=1 \
	WHITEFI_BENCH_WORKERS="$(WORKERS)" \
	$(PYTEST) -q benchmarks/bench_citywide_wsdb.py \
	    benchmarks/bench_roaming_wsdb.py benchmarks/bench_wsdb_cluster.py \
	    benchmarks/bench_scale.py benchmarks/bench_trace_replay.py
	PYTHONPATH=$(PYTHONPATH) python scripts/profile_run.py \
	    --kind querystorm --clients 300 --duration-us 20e6 \
	    --out benchmarks/results/telemetry-smoke
	python scripts/metrics_report.py \
	    benchmarks/results/telemetry-smoke.metrics.json
	python scripts/span_report.py \
	    benchmarks/results/telemetry-smoke.spans.jsonl

## Smoke-run the repository benchmark (perfbench/, BENCHMARK.json): the
## tracer's self-test, then a 1-second untraced run of every workload.
## run.py exits non-zero when a report breaks an invariant, sessions
## disagree on the report digest, or the scalar and vector engines
## diverge, so a src/ change that breaks the benchmark fails here.
PERFBENCH_WORKLOADS := roam-dense roam-sparse storm churn-observed
perfbench-smoke:
	python3 perfbench/tracer.py
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench $$w"; \
		python3 perfbench/run.py --workload $$w --seed 2009 \
		    --seconds 1 --trace 0 || exit 1; \
	done

## Profile a 10k-client vector roaming run: per-phase wall-clock
## breakdown (JSON + Chrome trace-event timeline), the sim-clock
## metrics snapshot (JSON + Prometheus), and the span table
## (JSONL + Chrome trace events), written under
## benchmarks/results/profile.*.
profile:
	PYTHONPATH=$(PYTHONPATH) python scripts/profile_run.py \
	    --kind roaming --clients 10000 --out benchmarks/results/profile

## Compare the last two comparable BENCH_scale.json entries; fails on a
## >20% clients/sec regression (no-op with nothing to compare).
bench-trend:
	python scripts/bench_trend.py

## Diff two recorded run traces event-by-event (exit 1 on any delta):
##   make trace-diff A=path/to/a.jsonl.gz B=path/to/b.jsonl.gz
trace-diff:
	PYTHONPATH=$(PYTHONPATH) python scripts/trace_diff.py $(A) $(B)

## Determinism & clock-discipline linter (repro.detlint): fails on any
## unsuppressed finding against detlint.toml + detlint.baseline.json.
## Stdlib-only, so it runs in a bare container.  Also writes the JSON
## findings artifact CI uploads.
detlint:
	PYTHONPATH=$(PYTHONPATH) python -m repro.detlint \
	    --out benchmarks/results/detlint.json

## Per-rule / per-package suppression-debt tables (never gates).
detlint-report:
	python scripts/detlint_report.py

## Lint src and tests.  The container may not ship ruff; skip with a
## notice rather than fail, so `make check` works everywhere.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif python -c "import ruff" >/dev/null 2>&1; then \
		python -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi
