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

# Static analysis: the domain-invariant linter (always; includes the
# interprocedural R9/R11 passes), a strict audit of every
# `# repro: noqa[...]` suppression (each must carry a reason), plus mypy
# strict on the kernel packages (when mypy is installed —
# `pip install -e .[lint]`).  See docs/STATIC_ANALYSIS.md.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src tests examples benchmarks
	PYTHONPATH=src $(PYTHON) -m repro.analysis suppressions \
		src tests examples benchmarks --strict
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping type check (pip install -e .[lint])"; \
	fi

# Umbrella gate: everything CI runs.
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
		skim.seconds eval.experiment.seconds
	rm -f .metrics-smoke.json

# Run the audited smoke workload, then serve the resulting audit JSONL +
# metrics snapshot over HTTP and scrape every endpoint (Prometheus
# exposition must parse, at least one audit must round-trip); see the
# "Estimate-quality monitoring" section of docs/OBSERVABILITY.md.
monitor-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.eval smoke \
		--metrics-out .monitor-smoke.metrics.json \
		--audit-out .monitor-smoke.audits.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.monitor selfcheck \
		--metrics .monitor-smoke.metrics.json \
		--audits .monitor-smoke.audits.jsonl --min-audits 1
	rm -f .monitor-smoke.metrics.json .monitor-smoke.audits.jsonl

# Continuous-profiling selfcheck: run a sampled+recorded workload, prove
# span attribution, exporter round trips (collapsed/speedscope/JSONL),
# the telemetry ring's byte bound + aging conservation, and the live
# /profile, /timeseries and /dashboard endpoints; then record a profiled
# smoke run's artifacts.  See the "Continuous profiling & flight
# recorder" section of docs/OBSERVABILITY.md.
profile-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.profile selfcheck --seconds 20
	PYTHONPATH=src $(PYTHON) -m repro.profile record \
		--out .profile-smoke.prof.jsonl \
		--timeseries-out .profile-smoke.ts.jsonl \
		--seconds 3 --hz 97 --interval 0.5
	PYTHONPATH=src $(PYTHON) -m repro.profile top .profile-smoke.prof.jsonl \
		--limit 10
	PYTHONPATH=src $(PYTHON) -m repro.profile convert \
		.profile-smoke.prof.jsonl .profile-smoke.collapsed \
		--format collapsed
	rm -f .profile-smoke.prof.jsonl .profile-smoke.ts.jsonl \
		.profile-smoke.collapsed

# Adversarial-workload accuracy gate: prove corpus determinism and
# audit coverage, then run the audited smoke corpus and
# gate realized error / CI coverage / residual verdicts / drift alerts
# against the committed baseline.  Every number is seed-deterministic,
# so the full tolerance gate holds across machines.  See
# docs/WORKLOADS.md.
workloads-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.workloads selfcheck
	PYTHONPATH=src $(PYTHON) -m repro.workloads run --suite smoke \
		--json-out .workloads-smoke.json --quiet
	PYTHONPATH=src $(PYTHON) -m repro.workloads compare \
		benchmarks/baselines/ACCURACY_baseline.json .workloads-smoke.json
	rm -f .workloads-smoke.json

clean:
	rm -rf src/repro.egg-info .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
