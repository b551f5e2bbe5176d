"""The chaos harness's deterministic pieces: workload, verdicts,
percentiles, invariant checks."""

import pytest

from repro.service.loadgen import (
    Chain,
    STABLE_FIELDS,
    _check_runs,
    _percentiles,
    build_workload,
    stable_verdict,
)

pytestmark = pytest.mark.service


class TestWorkload:
    def test_totals_exactly_the_requested_jobs(self):
        for jobs in (1, 7, 50):
            chains = build_workload(jobs, seed=3)
            assert sum(len(c.sources) for c in chains) == jobs

    def test_same_seed_same_workload(self):
        assert build_workload(20, seed=7) == build_workload(20, seed=7)
        assert build_workload(20, seed=7) != build_workload(20, seed=8)

    def test_chains_mix_updates_in(self):
        chains = build_workload(40, seed=0)
        assert any(len(c.sources) > 1 for c in chains), "no update chains"
        for chain in chains:
            assert len(set(chain.sources)) == len(chain.sources), (
                "each version must differ from its predecessor"
            )

    def test_job_ids_are_stable_and_distinct(self):
        chain = build_workload(10, seed=0)[0]
        assert chain.job_ids() == chain.job_ids()
        assert len(set(chain.job_ids())) == len(chain.sources)


class TestStableVerdict:
    def test_excludes_machinery_fields(self):
        fast = {"name": "a", "ok": True, "times": {"p1": 0.1},
                "counters": {"states": 9}, "timing_samples": 3}
        slow = {"name": "a", "ok": True, "times": {"p1": 9.9},
                "counters": {"states": 12}, "timing_samples": 1}
        assert stable_verdict(fast) == stable_verdict(slow)

    def test_catches_verdict_drift(self):
        for field in STABLE_FIELDS:
            base = {name: None for name in STABLE_FIELDS}
            drifted = dict(base, **{field: "changed"})
            assert stable_verdict(base) != stable_verdict(drifted), field


class TestPercentiles:
    def test_empty_is_all_none(self):
        assert _percentiles([]) == {
            "p50_ms": None, "p95_ms": None, "p99_ms": None,
        }

    def test_orders_input_and_reports_milliseconds(self):
        values = [0.100, 0.001, 0.050]
        result = _percentiles(values)
        assert result["p50_ms"] == 50.0
        assert result["p99_ms"] == 100.0

    def test_nearest_rank_on_one_to_a_hundred_ms(self):
        values = [ms / 1000.0 for ms in range(100, 0, -1)]
        assert _percentiles(values) == {
            "p50_ms": 50.0, "p95_ms": 95.0, "p99_ms": 99.0,
        }

    def test_median_of_two_samples_is_the_smaller(self):
        result = _percentiles([0.002, 0.001])
        assert result["p50_ms"] == 1.0
        assert result["p99_ms"] == 2.0


def _run(states, outcomes, version_chains):
    return {
        "_states": states, "_outcomes": outcomes,
        "_version_chains": version_chains,
    }


class TestInvariantChecks:
    CHAIN = Chain(name="addon", sources=("var a = 1;", "var a = 2;"))

    def _clean_runs(self):
        ids = self.CHAIN.job_ids()
        states = {job_id: "done" for job_id in ids}
        outcomes = {
            job_id: {name: None for name in STABLE_FIELDS}
            for job_id in ids
        }
        chains = {"addon": ["sha-1", "sha-2"]}
        return (
            _run(states, outcomes, chains),
            _run(dict(states), {k: dict(v) for k, v in outcomes.items()},
                 dict(chains)),
        )

    def test_identical_runs_pass(self):
        control, chaos = self._clean_runs()
        checks = _check_runs([self.CHAIN], control, chaos)
        assert checks["ok"]

    def test_lost_job_is_flagged(self):
        control, chaos = self._clean_runs()
        chaos["_states"][self.CHAIN.job_ids()[1]] = "queued"
        checks = _check_runs([self.CHAIN], control, chaos)
        assert not checks["ok"]
        assert len(checks["lost_jobs"]) == 1

    def test_duplicate_version_record_is_flagged(self):
        control, chaos = self._clean_runs()
        chaos["_version_chains"]["addon"] = ["sha-1", "sha-2", "sha-2"]
        checks = _check_runs([self.CHAIN], control, chaos)
        assert not checks["ok"]
        assert len(checks["duplicate_side_effects"]) == 1

    def test_verdict_drift_is_flagged(self):
        control, chaos = self._clean_runs()
        chaos["_outcomes"][self.CHAIN.job_ids()[0]]["verdict"] = "fail"
        checks = _check_runs([self.CHAIN], control, chaos)
        assert not checks["ok"]
        assert len(checks["verdict_mismatches"]) == 1
