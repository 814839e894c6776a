# Convenience targets for the skimmed-sketches reproduction.

PYTHON ?= python

.PHONY: install test e2e-test bench bench-smoke experiments examples metrics-smoke monitor-smoke parallel-smoke scaling-gate profile-smoke workloads-smoke federate-smoke lint check clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The end-to-end benchmark's own tests (benchmarks/e2e): they call the
# public engine API the benchmark drives, so an API break fails here
# rather than only when the benchmark runs.
e2e-test:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Static analysis: the domain-invariant linter (always; includes the
# interprocedural R9/R10/R11 passes), a strict audit of every
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
check: lint test e2e-test metrics-smoke monitor-smoke parallel-smoke scaling-gate profile-smoke workloads-smoke federate-smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Run the registered smoke suite and gate the deterministic axes
# (relative error, sketch bytes) against the committed baseline.  The
# timing gate is off (--max-slowdown 0) because the baseline was timed
# on a different machine; run `python -m repro.bench compare` by hand
# with the default gate to chase local wall-clock regressions.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench run --suite smoke \
		--json-out .bench-smoke.json --quiet
	PYTHONPATH=src $(PYTHON) -m repro.bench compare \
		benchmarks/baselines/BENCH_baseline.json .bench-smoke.json \
		--max-slowdown 0
	rm -f .bench-smoke.json

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

# Prove serial-vs-sharded exactness on a seeded stream through the
# 4-worker shared-memory path (counters bit-identical, query answers
# equal); exit 1 on any mismatch.  See docs/PERFORMANCE.md.
parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.parallel selfcheck --workers 4

# "Parallel must win": sharded ingest at >1 worker must beat serial
# updates/s above the documented batch-size threshold (see
# docs/PERFORMANCE.md).  Gates the committed ingest.parallel records in
# BENCH_pr15.json — deterministic, so it holds on any machine.  Run
# `python -m repro.parallel scaling-gate` with no --bench-json to
# measure and gate live on this machine instead.
scaling-gate:
	PYTHONPATH=src $(PYTHON) -m repro.parallel scaling-gate \
		--bench-json benchmarks/results/BENCH_pr15.json

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
# serial==sharded audit equality, then run the audited smoke corpus and
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

# Federated-telemetry gate: prove the merge algebra + wire contracts
# (selfcheck), run a 3-site distributed round trip with telemetry-enabled
# sites (merged per-origin metrics, one stitched Perfetto trace, per-origin
# accumulated snapshots), then scrape everything through a federated
# monitor (origin-labelled /metrics + /topology health).  See the
# "Federated telemetry" section of docs/OBSERVABILITY.md.
federate-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.federate selfcheck
	PYTHONPATH=src $(PYTHON) -m repro.federate run --sites 3 --rounds 2 \
		--updates 500 --out-dir .federate-smoke
	PYTHONPATH=src $(PYTHON) -m repro.monitor selfcheck \
		--metrics .federate-smoke/metrics.json --min-audits 0 \
		--federate coordinator=.federate-smoke/metrics.json \
		--federate site.edge-0=.federate-smoke/telemetry.site.edge-0.json \
		--federate site.edge-1=.federate-smoke/telemetry.site.edge-1.json \
		--federate site.edge-2=.federate-smoke/telemetry.site.edge-2.json
	rm -rf .federate-smoke

clean:
	rm -rf src/repro.egg-info .pytest_cache .hypothesis .benchmarks .federate-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
