# Convenience targets for the skimmed-sketches reproduction.

PYTHON ?= python

.PHONY: install test e2e-test bench experiments examples metrics-smoke monitor-smoke profile-smoke workloads-smoke lint check clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The end-to-end benchmark's own tests (benchmarks/e2e): they call the
# public engine API the benchmark drives, so an API break fails here
# rather than only when the benchmark runs.
e2e-test:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Static analysis: the domain-invariant linter (always; rules R1-R6,
# one file at a time), which also writes its findings as SARIF to
# .lint.sarif for CI to upload (before it exits 1 on a finding), a strict
# audit of every `# repro: noqa[...]` suppression (each must carry a
# reason), plus mypy strict on the kernel packages (when mypy is
# installed — `pip install -e .[lint]`).  See docs/STATIC_ANALYSIS.md.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src tests examples benchmarks \
		--sarif .lint.sarif
	PYTHONPATH=src $(PYTHON) -m repro.analysis suppressions \
		src tests examples benchmarks --strict
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping type check (pip install -e .[lint])"; \
	fi

# Umbrella gate: every check CI runs (CI also uploads the outputs).
check: lint test e2e-test metrics-smoke monitor-smoke profile-smoke workloads-smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro.eval figure5a figure5b census example1 \
		space-scaling dyadic-cost threshold-ablation baseline-panel

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; $(PYTHON) $$script || exit 1; \
	done

# Run one instrumented benchmark and validate the emitted metrics
# snapshot (schema + required metric names); see docs/OBSERVABILITY.md.
metrics-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.eval smoke --metrics-out .metrics-smoke.json
	PYTHONPATH=src $(PYTHON) -m repro.obs .metrics-smoke.json \
		sketch.update.elements skim.passes estimate.joins \
		skim.seconds eval.experiment.seconds hash.tables.built
	rm -f .metrics-smoke.json

# Run the audited smoke workload, then serve the resulting audit JSONL +
# metrics snapshot over HTTP and scrape every endpoint (Prometheus
# exposition must parse, at least one audit must round-trip); then
# capture a query-path trace of the same workload, validate it and
# convert it for Perfetto.  The outputs are kept for CI to upload; see
# the "Estimate-quality monitoring" section of docs/OBSERVABILITY.md.
monitor-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.eval smoke \
		--metrics-out .monitor-smoke.metrics.json \
		--audit-out .monitor-smoke.audits.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.monitor selfcheck \
		--metrics .monitor-smoke.metrics.json \
		--audits .monitor-smoke.audits.jsonl --min-audits 1
	PYTHONPATH=src $(PYTHON) -m repro.eval smoke \
		--trace-out .monitor-smoke.trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.trace validate .monitor-smoke.trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.trace convert \
		.monitor-smoke.trace.jsonl .monitor-smoke.trace.chrome.json

# Continuous-profiling selfcheck: run a sampled workload, prove span
# attribution and the exporter round trips (collapsed/speedscope/JSONL);
# then record a profiled smoke run, print its hottest frames, convert it
# to collapsed stacks, and serve and scrape it at /profile.  The outputs
# are kept for CI to upload; see the "Continuous profiling" section of
# docs/OBSERVABILITY.md.
profile-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.profile selfcheck --seconds 20
	PYTHONPATH=src $(PYTHON) -m repro.profile record \
		--out .profile-smoke.prof.jsonl --seconds 5 --hz 97
	PYTHONPATH=src $(PYTHON) -m repro.profile top .profile-smoke.prof.jsonl \
		--limit 10
	PYTHONPATH=src $(PYTHON) -m repro.profile convert \
		.profile-smoke.prof.jsonl .profile-smoke.collapsed \
		--format collapsed
	PYTHONPATH=src $(PYTHON) -m repro.monitor selfcheck \
		--profile .profile-smoke.prof.jsonl --min-audits 0

# Adversarial-workload accuracy gate: prove corpus determinism and
# audit coverage, then run the audited smoke corpus and
# gate realized error / CI coverage / residual verdicts / drift alerts
# against the committed baseline.  Every number is seed-deterministic,
# so the full tolerance gate holds across machines.  The ACCURACY
# document is kept (.workloads-smoke.json) for CI to upload; see
# docs/WORKLOADS.md.
workloads-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.workloads selfcheck
	PYTHONPATH=src $(PYTHON) -m repro.workloads run --suite smoke \
		--json-out .workloads-smoke.json --quiet
	PYTHONPATH=src $(PYTHON) -m repro.workloads compare \
		benchmarks/baselines/ACCURACY_baseline.json .workloads-smoke.json

clean:
	rm -rf src/repro.egg-info .pytest_cache .hypothesis .benchmarks
	rm -f .lint.sarif .monitor-smoke.* .profile-smoke.* .workloads-smoke.json
	find . -name __pycache__ -type d -exec rm -rf {} +
