"""Tests for the adversarial workload corpus + accuracy gate (repro.workloads).

The corpus doubles as the repo's correctness fuzzer, so the properties
here are the load-bearing ones: byte-determinism per ``(family, params,
seed)``, signed-weight conservation through delete churn, the
near-annihilation limit (residual norm and estimate collapse onto the
tiny exact answer), coalescing round-trips (linearity), shadow-exact
ground-truth agreement, and the ``compare`` CLI's exit-1 gate on a
doctored ACCURACY record.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SkimmedSketchSchema
from repro.core.skim import residual_infinity_norm
from repro.errors import ParameterError, QueryError
from repro.hashing.bulk import coalesce_updates
from repro.sketches.hash_sketch import HashSketchSchema
from repro.sketches.serialize import sketch_state
from repro.streams.model import FrequencyVector
from repro.streams.query import TruePredicate
from repro.workloads import (
    ACCURACY_VERSION,
    FAMILIES,
    WorkloadBatch,
    WorkloadInstance,
    build_workload,
    compare_accuracy,
    family_names,
    run_suite,
    run_workload,
    suite_names,
    validate_accuracy,
    workloads_for,
)
from repro.workloads.__main__ import main as workloads_main

#: Small per-family params so property tests stay fast; every family
#: keeps its adversarial shape, just at toy scale.
SMALL_PARAMS = {
    "skew_drift": {
        "domain": 128, "phases": 3, "per_phase": 300,
        "z_start": 0.3, "z_end": 1.4, "shift": 8,
    },
    "delete_churn": {
        "domain": 128, "waves": 3, "per_wave": 400, "survivors": 12, "z": 1.0,
    },
    "filtered_subset_sum": {
        "domain": 128, "total": 1_200, "chunks": 3, "z": 0.8,
        "range_hi_fraction": 0.5, "modulus": 4, "remainder": 1,
        "inset_step": 3,
    },
    "join_correlated": {"domain": 128, "total": 1_200, "chunks": 3, "z": 1.0},
    "join_anticorrelated": {
        "domain": 128, "total": 1_200, "chunks": 3, "z": 1.0,
    },
}


def small_workload(family: str, seed: int = 0) -> WorkloadInstance:
    return build_workload(family, params=SMALL_PARAMS[family], seed=seed)


def batches_equal(a: WorkloadInstance, b: WorkloadInstance) -> bool:
    if len(a.batches) != len(b.batches):
        return False
    return all(
        x.stream == y.stream
        and np.array_equal(x.values, y.values)
        and np.array_equal(x.weights, y.weights)
        for x, y in zip(a.batches, b.batches)
    )


class TestRegistry:
    def test_expected_families_registered(self):
        assert family_names() == sorted(SMALL_PARAMS)

    def test_every_family_in_smoke_and_full(self):
        assert suite_names() == ["full", "smoke"]
        for family in FAMILIES.values():
            assert set(family.suites) == {"full", "smoke"}

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            build_workload("zipf_but_evil")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ParameterError):
            list(workloads_for("chaos"))

    def test_missing_params_rejected(self):
        with pytest.raises(ParameterError):
            build_workload("skew_drift", params={"domain": 64})


class TestDeterminism:
    """Acceptance criterion: every family is seed-deterministic."""

    @pytest.mark.parametrize("family", sorted(SMALL_PARAMS))
    def test_same_seed_is_byte_identical(self, family):
        first = small_workload(family, seed=7)
        again = small_workload(family, seed=7)
        assert first.fingerprint() == again.fingerprint()
        assert batches_equal(first, again)

    @pytest.mark.parametrize("family", sorted(SMALL_PARAMS))
    def test_different_seed_changes_corpus(self, family):
        assert (
            small_workload(family, seed=0).fingerprint()
            != small_workload(family, seed=1).fingerprint()
        )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_fingerprint_is_a_function_of_the_seed(self, seed):
        family = sorted(SMALL_PARAMS)[seed % len(SMALL_PARAMS)]
        assert (
            small_workload(family, seed=seed).fingerprint()
            == small_workload(family, seed=seed).fingerprint()
        )

    def test_fingerprint_covers_batch_order(self):
        instance = small_workload("join_correlated")
        reordered = WorkloadInstance(
            name=instance.name,
            family=instance.family,
            params=instance.params,
            seed=instance.seed,
            domain_size=instance.domain_size,
            streams=instance.streams,
            batches=list(reversed(instance.batches)),
            queries=instance.queries,
        )
        assert instance.fingerprint() != reordered.fingerprint()


class TestDeleteChurnConservation:
    """Insert/delete waves conserve total signed weight exactly."""

    @given(
        waves=st.integers(min_value=1, max_value=4),
        per_wave=st.integers(min_value=10, max_value=200),
        survivors=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_net_weight_is_survivors_per_wave(
        self, waves, per_wave, survivors, seed
    ):
        instance = build_workload(
            "delete_churn",
            params={
                "domain": 64, "waves": waves, "per_wave": per_wave,
                "survivors": survivors, "z": 1.0,
            },
            seed=seed,
        )
        for stream in instance.streams:
            assert instance.net_weight(stream) == waves * survivors
            assert instance.gross_mass(stream) == waves * (
                2 * per_wave - survivors
            )

    def test_deletes_only_remove_inserted_values(self):
        instance = small_workload("delete_churn")
        for stream in instance.streams:
            counts = instance.exact_frequencies(stream).counts
            assert counts.min() >= 0

    def test_survivors_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            build_workload(
                "delete_churn",
                params={
                    "domain": 64, "waves": 1, "per_wave": 10,
                    "survivors": 11, "z": 1.0,
                },
            )


class TestNearAnnihilation:
    """Satellite property: shrinking ``survivors`` drives the skimmed
    sketch's residual norm toward 0 and the estimate onto the exact
    (small) join size."""

    @staticmethod
    def _sketches(survivors: int, domain: int = 256):
        instance = build_workload(
            "delete_churn",
            params={
                "domain": domain, "waves": 3, "per_wave": 2_000,
                "survivors": survivors, "z": 1.1,
            },
            seed=5,
        )
        schema = SkimmedSketchSchema(128, 5, domain, seed=17)
        sketches = {}
        for stream in instance.streams:
            sketch = schema.create_sketch()
            for batch in instance.batches:
                if batch.stream == stream:
                    sketch.update_bulk(batch.values, batch.weights)
            sketches[stream] = sketch
        return instance, sketches

    def test_full_annihilation_is_the_zero_sketch(self):
        _, sketches = self._sketches(survivors=0)
        for sketch in sketches.values():
            _, residual = sketch.skim()
            assert residual_infinity_norm(residual) == 0.0
        assert sketches["f"].est_join_size(sketches["g"]) == 0.0

    def test_residual_norm_shrinks_with_survivors(self):
        norms = []
        for survivors in (1_000, 100, 2):
            _, sketches = self._sketches(survivors=survivors)
            _, residual = sketches["f"].skim()
            norms.append(residual_infinity_norm(residual))
        assert norms[0] >= norms[1] >= norms[2]

    def test_estimate_converges_on_small_exact_join(self):
        instance, sketches = self._sketches(survivors=10)
        exact = instance.exact_join("f", "g")
        estimate = sketches["f"].est_join_size(sketches["g"])
        # The surviving support is tiny, so after skimming the dense
        # values the estimate is essentially the exact inner product.
        assert exact > 0
        assert abs(estimate - exact) <= 0.25 * exact


class TestCoalesceRoundTrip:
    """Every family's batches survive coalescing unchanged (linearity)."""

    @pytest.mark.parametrize("family", sorted(SMALL_PARAMS))
    def test_coalesced_batches_rebuild_the_same_frequencies(self, family):
        instance = small_workload(family)
        for stream in instance.streams:
            raw = FrequencyVector.zeros(instance.domain_size)
            coalesced = FrequencyVector.zeros(instance.domain_size)
            for batch in instance.batches:
                if batch.stream != stream:
                    continue
                raw.apply_bulk(batch.values, batch.weights)
                uniques, masses = coalesce_updates(batch.values, batch.weights)
                coalesced.apply_bulk(uniques, masses)
            assert raw == coalesced

    @pytest.mark.parametrize("family", sorted(SMALL_PARAMS))
    def test_coalesced_batches_land_sketches_in_the_same_state(self, family):
        instance = small_workload(family)
        schema = HashSketchSchema(64, 3, instance.domain_size, seed=4)
        raw, coalesced = schema.create_sketch(), schema.create_sketch()
        for batch in instance.batches:
            raw.update_bulk(batch.values, batch.weights)
            uniques, masses = coalesce_updates(batch.values, batch.weights)
            coalesced.update_bulk(uniques, masses)
        raw_state, co_state = sketch_state(raw), sketch_state(coalesced)
        assert raw_state.keys() == co_state.keys()
        for key, value in raw_state.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, co_state[key])
            else:
                assert value == co_state[key]

    @pytest.mark.parametrize("family", sorted(SMALL_PARAMS))
    def test_coalescing_preserves_signed_mass(self, family):
        instance = small_workload(family)
        for batch in instance.batches:
            _, masses = coalesce_updates(batch.values, batch.weights)
            assert masses.sum() == pytest.approx(batch.weights.sum())


class TestGroundTruth:
    def test_exact_frequencies_apply_predicates(self):
        instance = small_workload("filtered_subset_sum")
        mod = instance.exact_frequencies("mod")
        predicate = instance.streams["mod"]
        for value, count in mod.nonzero_items():
            assert predicate.accepts(value), (value, count)

    def test_unknown_stream_rejected(self):
        instance = small_workload("skew_drift")
        with pytest.raises(ParameterError):
            instance.exact_frequencies("nope")

    def test_anticorrelated_join_is_small_but_nonzero(self):
        anti = small_workload("join_anticorrelated")
        corr = small_workload("join_correlated")
        assert 0 < anti.exact_join("f", "g") < corr.exact_join("f", "g")

    def test_self_join_matches_frequency_algebra(self):
        instance = small_workload("skew_drift")
        vec = instance.exact_frequencies("f")
        assert instance.exact_join("f", "f") == vec.self_join_size()


class TestHarness:
    """One shadow-exact audit run per family (acceptance criterion)."""

    @pytest.mark.parametrize("family", sorted(SMALL_PARAMS))
    def test_shadow_exact_agrees_with_corpus_ground_truth(self, family):
        instance = small_workload(family)
        record = run_workload(instance, width=64, depth=5)
        assert len(record["queries"]) == len(instance.queries)
        for row in record["queries"]:
            assert row["exact"] == pytest.approx(
                instance.exact_join(row["left"], row["right"])
            )
            assert row["realized_relative_error"] == pytest.approx(
                abs(row["estimate"] - row["exact"]) / abs(row["exact"])
            )

    def test_record_is_deterministic(self):
        first = run_workload(small_workload("delete_churn"), width=64, depth=5)
        again = run_workload(small_workload("delete_churn"), width=64, depth=5)
        assert first == again

    def test_zero_exact_join_raises(self):
        instance = WorkloadInstance(
            name="disjoint",
            family="disjoint",
            params={},
            seed=0,
            domain_size=16,
            streams={"f": TruePredicate(), "g": TruePredicate()},
            batches=[
                WorkloadBatch(
                    "f", np.zeros(4, dtype=np.int64), np.ones(4)
                ),
                WorkloadBatch(
                    "g", np.ones(4, dtype=np.int64), np.ones(4)
                ),
            ],
            queries=[("f", "g")],
        )
        with pytest.raises(ParameterError):
            run_workload(instance, width=64, depth=5)

    def test_audit_log_state_is_restored(self):
        from repro.monitor import AUDIT

        assert not AUDIT.enabled  # conftest isolation
        run_workload(small_workload("join_correlated"), width=64, depth=5)
        assert not AUDIT.enabled
        assert len(AUDIT) == 0


def _tiny_accuracy_doc() -> dict:
    """A minimal valid ACCURACY document for schema/compare tests."""
    return {
        "version": ACCURACY_VERSION,
        "kind": "repro.workloads",
        "suite": "smoke",
        "revision": "abc1234",
        "engine": {"width": 64, "depth": 5, "seed": 101},
        "records": [
            {
                "workload": "delete_churn",
                "family": "delete_churn",
                "params": {"domain": 64},
                "seed": 0,
                "updates": 100,
                "queries": [
                    {
                        "left": "f", "right": "g", "estimate": 11.0,
                        "exact": 10.0, "realized_relative_error": 0.1,
                        "covered": True, "ci_halfwidth": 4.0,
                        "residual_bound_ok": True,
                    }
                ],
                "max_realized_relative_error": 0.1,
                "mean_realized_relative_error": 0.1,
                "coverage_rate": 1.0,
                "residual_ok_rate": 1.0,
                "drift_alerts": 0,
            }
        ],
    }


class TestSchema:
    def test_valid_doc_passes(self):
        assert validate_accuracy(_tiny_accuracy_doc()) is not None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(version=99),
            lambda d: d.update(kind="repro.bench"),
            lambda d: d.update(records=[]),
            lambda d: d["records"][0].update(coverage_rate=1.5),
            lambda d: d["records"][0].update(max_realized_relative_error=-1),
            lambda d: d["records"][0].update(drift_alerts=-1),
            lambda d: d["records"][0].update(updates=-5),
            lambda d: d["records"][0]["queries"][0].pop("exact"),
            lambda d: d["records"][0].update(queries=[]),
        ],
    )
    def test_invalid_doc_rejected(self, mutate):
        doc = _tiny_accuracy_doc()
        mutate(doc)
        with pytest.raises(ParameterError):
            validate_accuracy(doc)

    def test_duplicate_record_key_rejected(self):
        doc = _tiny_accuracy_doc()
        doc["records"].append(copy.deepcopy(doc["records"][0]))
        with pytest.raises(ParameterError):
            validate_accuracy(doc)


class TestCompareGate:
    """Acceptance criterion: compare exits 0 on the PR, 1 on a doctored
    record."""

    def test_identical_docs_pass(self):
        _, regressions = compare_accuracy(
            _tiny_accuracy_doc(), _tiny_accuracy_doc()
        )
        assert regressions == []

    def test_doctored_error_fails(self):
        doctored = _tiny_accuracy_doc()
        doctored["records"][0]["max_realized_relative_error"] = 0.5
        _, regressions = compare_accuracy(_tiny_accuracy_doc(), doctored)
        assert any("max realized relative error" in r for r in regressions)

    def test_doctored_coverage_fails(self):
        doctored = _tiny_accuracy_doc()
        doctored["records"][0]["coverage_rate"] = 0.5
        _, regressions = compare_accuracy(_tiny_accuracy_doc(), doctored)
        assert any("coverage" in r for r in regressions)

    def test_doctored_residual_rate_fails(self):
        doctored = _tiny_accuracy_doc()
        doctored["records"][0]["residual_ok_rate"] = 0.0
        _, regressions = compare_accuracy(_tiny_accuracy_doc(), doctored)
        assert any("residual" in r for r in regressions)

    def test_new_drift_alerts_fail(self):
        doctored = _tiny_accuracy_doc()
        doctored["records"][0]["drift_alerts"] = 3
        _, regressions = compare_accuracy(_tiny_accuracy_doc(), doctored)
        assert any("drift alerts" in r for r in regressions)

    def test_removed_workload_fails(self):
        current = _tiny_accuracy_doc()
        current["records"][0]["workload"] = "something_else"
        _, regressions = compare_accuracy(_tiny_accuracy_doc(), current)
        assert any("disappeared" in r for r in regressions)

    def test_within_tolerance_passes(self):
        current = _tiny_accuracy_doc()
        current["records"][0]["max_realized_relative_error"] = 0.12
        _, regressions = compare_accuracy(
            _tiny_accuracy_doc(), current, max_error_increase=0.05
        )
        assert regressions == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        baseline.write_text(json.dumps(_tiny_accuracy_doc()))
        good.write_text(json.dumps(_tiny_accuracy_doc()))
        doctored = _tiny_accuracy_doc()
        doctored["records"][0]["max_realized_relative_error"] = 0.9
        doctored["records"][0]["coverage_rate"] = 0.0
        bad.write_text(json.dumps(doctored))

        assert workloads_main(["compare", str(baseline), str(good)]) == 0
        assert "no accuracy regressions" in capsys.readouterr().out
        assert workloads_main(["compare", str(baseline), str(bad)]) == 1
        assert "ACCURACY REGRESSIONS" in capsys.readouterr().out

    def test_cli_compare_rejects_garbage(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert workloads_main(
            ["compare", str(missing), str(missing)]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestCli:
    def test_list_names_every_family(self, capsys):
        assert workloads_main(["list"]) == 0
        out = capsys.readouterr().out
        for family in family_names():
            assert family in out

    def test_run_writes_valid_accuracy_doc(self, tmp_path, capsys):
        out_path = tmp_path / "ACCURACY_<rev>.json"
        code = workloads_main(
            [
                "run", "--suite", "smoke", "--quiet", "--width", "64",
                "--json-out", str(out_path),
            ]
        )
        assert code == 0
        written = list(tmp_path.glob("ACCURACY_*.json"))
        assert len(written) == 1
        assert "<rev>" not in written[0].name
        doc = validate_accuracy(json.loads(written[0].read_text()))
        assert {r["workload"] for r in doc["records"]} == set(family_names())
        assert doc["engine"]["width"] == 64

    def test_run_suite_function_validates(self):
        doc = run_suite("smoke", width=64)
        assert validate_accuracy(doc) is doc
        assert doc["version"] == ACCURACY_VERSION


class TestSelfcheckCli:
    def test_selfcheck_passes(self, capsys):
        assert workloads_main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck OK" in out
        assert "FAIL" not in out


class TestImportContract:
    """numpy and the engines must load lazily, never at module level.

    ``repro.workloads`` is a library package (it shares ``repro.errors``
    and the predicate AST), so unlike ``repro.bench`` it cannot be
    imported standalone — the enforceable half of the bench contract is
    that listing the corpus executes no numpy code: every ``import
    numpy`` in the package lives inside a function body.
    """

    def test_no_module_level_numpy_imports(self):
        import ast
        from pathlib import Path

        import repro.workloads

        package = Path(repro.workloads.__file__).parent
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "numpy" for n in names) or (
                    node.col_offset > 0
                ), f"{path.name}:{node.lineno} imports numpy at module level"
