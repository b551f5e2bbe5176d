"""The benchmark's own tests, on seconds-long smoke sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: ``analysis`` is not in BENCHMARK.json (see README.md) but still runs.
WORKLOADS = ["fleet", "analysis", "store"]

_results: dict[tuple, dict] = {}


def run_smoke(workload: str, trace: int, seed: int = 5) -> dict:
    key = (workload, trace, seed)
    if key not in _results:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--size", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        _results[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _results[key]


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def is_exact(name: str, unit: str) -> bool:
    """Counts and count ratios; times and trace ratios vary run to run."""
    return unit != "s" and not name.startswith("trace.")


def test_every_name_and_unit_is_well_formed():
    names = [workload["name"] for workload in SPEC["workloads"]] + [
        metric["name"] for kind in ("end_to_end", "per_layer")
        for metric in SPEC[kind]
    ]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for kind in ("end_to_end", "per_layer"):
        for unit in declared(kind).values():
            assert UNIT.fullmatch(unit), unit


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_declared_metric_and_passes_its_checks(workload, trace):
    result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs_of_one_seed(workload):
    first = run_smoke(workload, 1)["metrics"]
    _results.pop((workload, 1, 5))
    second = run_smoke(workload, 1)["metrics"]
    for name, unit in declared("per_layer").items():
        if is_exact(name, unit):
            assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", ["fleet", "analysis"])
def test_no_self_time_is_negative(workload):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from tracing import PIPELINE_LAYERS, Tracer, summarize
        from workloads import build

        bench = build(workload, 3, "smoke", ROOT / ".perfbench_tmp")
        tracer = Tracer()
        tracer.install(PIPELINE_LAYERS)
        try:
            tally = bench.run_pass(tracer)
        finally:
            tracer.uninstall()
    finally:
        del sys.path[:2]
    assert not tally.failures
    assert tracer.spans
    for span in tracer.spans:
        assert span.self_time >= 0.0, span
    for (name, _parent), totals in summarize(tracer.spans).items():
        assert totals.self_time >= 0.0, name


def test_refuses_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_times_scale_to_the_reference_speed():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from calibrate import REFERENCE_S, ParallelReference
        from workloads import CALIBRATION_WINDOW, Tally

        reference = ParallelReference(2)
        try:
            assert reference() > 0.0
        finally:
            reference.close()
    finally:
        del sys.path[:2]
    tally = Tally(reference=[REFERENCE_S * 2] * (2 * CALIBRATION_WINDOW + 1))
    # Twice as slow as the reference speed: every time reads half.
    assert tally.scaled([(0.5, 0), (3.0, CALIBRATION_WINDOW)]) == [0.25, 1.5]
    tally.reference[-1] = REFERENCE_S  # one fast reading moves no median
    assert tally.scaled([(0.5, CALIBRATION_WINDOW)]) == [0.25]
