"""The fleet benchmark harness: section shape, soundness, merging."""

import json

import pytest

from repro.corpusgen.fleet import (
    FLEET_SECTION_KEYS,
    merge_fleet_section,
    render_fleet,
    run_fleet,
)

pytestmark = pytest.mark.fleet


@pytest.fixture(scope="module")
def section(tmp_path_factory):
    output = tmp_path_factory.mktemp("fleet") / "BENCH_corpus.json"
    return run_fleet(
        18, seed=0, workers=1, update_count=4, output=output
    ), output


class TestFleetRun:
    def test_zero_verdict_mismatches(self, section):
        report, _ = section
        assert report["verdict_mismatches"] == 0
        assert report["mismatches"] == []

    def test_section_schema(self, section):
        report, _ = section
        assert tuple(sorted(report)) == tuple(sorted(FLEET_SECTION_KEYS))

    def test_throughput_is_measured(self, section):
        report, _ = section
        throughput = report["throughput"]
        assert throughput["addons_per_s"] > 0
        assert throughput["addons_per_s_per_core"] > 0
        assert throughput["cores"] >= 1

    def test_hit_rates_recorded(self, section):
        report, _ = section
        assert 0.0 <= report["prefilter"]["hit_rate"] <= 1.0
        assert report["cache"]["hit_rate"] == 1.0  # warm run: all hits
        assert 0.0 <= report["updates"]["hit_rate"] <= 1.0

    def test_peak_rss_recorded(self, section):
        report, _ = section
        assert report["peak_rss_mb"] is None or report["peak_rss_mb"] > 0

    def test_generated_breakdown_sums(self, section):
        report, _ = section
        generated = report["generated"]
        assert generated["singles"] + generated["bundles"] == report["count"]

    def test_render_mentions_soundness(self, section):
        report, _ = section
        rendered = render_fleet(report)
        assert "verdict mismatches: 0" in rendered
        assert "SOUND" in rendered


class TestFleetMerge:
    def test_merge_into_existing_report_preserves_sections(self, tmp_path):
        path = tmp_path / "BENCH_corpus.json"
        path.write_text(json.dumps({
            "schema": "addon-sig/bench-corpus/v6",
            "corpus": {"count": 10},
            "prefilter": {"hit_rate": 0.33},
        }))
        merged = merge_fleet_section(path, {"count": 5})
        data = json.loads(path.read_text())
        assert data["schema"].endswith("/v8")
        assert data["corpus"] == {"count": 10}
        assert data["prefilter"] == {"hit_rate": 0.33}
        assert data["fleet"] == {"count": 5}
        assert merged == data

    def test_merge_creates_fresh_report(self, tmp_path):
        path = tmp_path / "BENCH_corpus.json"
        merge_fleet_section(path, {"count": 5})
        data = json.loads(path.read_text())
        assert data["fleet"]["count"] == 5

    def test_merge_survives_corrupt_report(self, tmp_path):
        path = tmp_path / "BENCH_corpus.json"
        path.write_text("{not json")
        merge_fleet_section(path, {"count": 5})
        assert json.loads(path.read_text())["fleet"]["count"] == 5

    def test_run_writes_and_merges(self, section):
        report, output = section
        data = json.loads(output.read_text())
        assert data["fleet"]["count"] == report["count"]
        assert data["schema"].endswith("/v8")


class TestFleetServiceArm:
    def test_service_round_trip_matches_expected_signatures(self):
        report = run_fleet(
            6, seed=0, workers=1, update_count=2, service=True, output=None
        )
        assert report["service"]["addons"] == 6
        assert report["service"]["ok"] == 6
        assert report["service"]["wall_s"] > 0
        assert report["verdict_mismatches"] == 0
        assert report["mismatches"] == []
