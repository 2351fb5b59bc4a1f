# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test bench bench-backends bench-serve bench-sampling reproduce compare corpus examples lint analyze analyze-concurrency verify verify-fuzz metrics-smoke serve-smoke clean

# Differential fuzz campaign size for `make verify-fuzz`.
FUZZ_BUDGET ?= 10000
FUZZ_SEED ?= 0

# Parallelism and corpus location for the corpus/reproduce targets.
JOBS ?= 4
CORPUS_DIR ?= $(HOME)/.cache/repro/corpus

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backends.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sampling.py

# Per-backend kernel throughput (writes BENCH_kernel_backends.json;
# exits non-zero if the fused backend is not >=3x the scalar reference).
bench-backends:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backends.py

# Service load test: 1000 jobs through a live `repro serve` instance
# (writes BENCH_serve.json with jobs/sec and p50/p99 latency).
bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py

# Phase-aware sampling accuracy gate (writes BENCH_sampling.json; exits
# non-zero unless every bundled program's sampled estimate lands within
# 2% absolute hit ratio of the full run at >10x fewer touched events).
bench-sampling:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sampling.py

# Regenerate every table and figure of the paper (plus extensions).
reproduce:
	PYTHONPATH=src $(PYTHON) -m repro.cli all

# Same, with paper-vs-measured columns where reference data exists.
compare:
	PYTHONPATH=src $(PYTHON) -m repro.cli all --compare

# Pre-record every trace the experiments replay into the persistent
# corpus, then verify the store.  Later `repro all` runs (serial or
# --jobs N) replay from disk instead of re-recording.
corpus:
	PYTHONPATH=src $(PYTHON) -m repro.cli corpus record --jobs $(JOBS) --dir $(CORPUS_DIR)
	PYTHONPATH=src $(PYTHON) -m repro.cli corpus verify --dir $(CORPUS_DIR)

examples:
	for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done

# Repo-invariant linter (always available) plus ruff/mypy when installed.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli lint
	-$(PYTHON) -m ruff check src tests || true
	-$(PYTHON) -m mypy || true

# Static dataflow analysis with dynamic cross-validation (the CI gate).
analyze:
	PYTHONPATH=src $(PYTHON) -m repro.cli analyze --check

# Race & filesystem-atomicity analyzer over the service/corpus layer:
# the tree must be clean and the checked-in regression fixtures must
# still be caught (both halves gate CI).
analyze-concurrency:
	PYTHONPATH=src $(PYTHON) -m repro.cli analyze --concurrency
	! PYTHONPATH=src $(PYTHON) -m repro.cli analyze --concurrency tests/fixtures/concurrency >/dev/null 2>&1
	@echo "analyze-concurrency ok (tree clean, fixtures caught)"

# Mutation smoke: the differential harness must catch every planted
# kernel fault and stay silent on the clean tree (the PR-time gate).
verify:
	PYTHONPATH=src $(PYTHON) -m repro.cli verify smoke
	PYTHONPATH=src $(PYTHON) -m repro.cli verify replay

# Full fuzz campaign (the nightly gate; ~2 min at the default budget).
verify-fuzz:
	PYTHONPATH=src $(PYTHON) -m repro.cli verify fuzz --budget $(FUZZ_BUDGET) --seed $(FUZZ_SEED)

# Observability smoke: run a bundled program with metrics enabled,
# schema-validate the snapshot, and check the Prometheus rendering
# carries the core gauge/counter names (the metrics-smoke CI job).
metrics-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli stats --program saxpy \
		--metrics-out metrics-smoke.json --validate
	PYTHONPATH=src $(PYTHON) -m repro.cli stats --from metrics-smoke.json --validate
	PYTHONPATH=src $(PYTHON) -m repro.cli stats --from metrics-smoke.json \
		--format prom | grep -q "repro_sim_FP_MUL_hit_ratio"
	PYTHONPATH=src $(PYTHON) -m repro.cli stats --from metrics-smoke.json \
		--format prom | grep -q "repro_kernel_FP_MUL_table_lookups_total"
	rm -f metrics-smoke.json
	@echo "metrics-smoke ok"

# Service smoke: start `repro serve`, submit three bundled-program jobs
# over HTTP, assert bit-identical results vs direct execution, dedup,
# and the /metrics queue/job series (the serve-smoke CI job).
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve.smoke

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
