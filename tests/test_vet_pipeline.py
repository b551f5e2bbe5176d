"""The one vet pipeline and its two front ends (single file, bundle)."""

import pytest

import repro.api
import repro.webext.lowering
import repro.webext.pipeline
from repro.api import SingleFileFrontEnd, front_end, vet
from repro.browser import mozilla_spec
from repro.browser.chrome import webext_spec
from repro.diffvet.incremental import REFUSED_WEBEXT_BUNDLE, certify_unchanged
from repro.webext.loader import load_source
from repro.webext.pipeline import BundleFrontEnd

QUIET = "var a = 1;\nvar b = a + 1;"


def _bundle(tmp_path, background: str) -> str:
    (tmp_path / "manifest.json").write_text(
        '{"name": "quiet", "background": {"service_worker": "bg.js"}}'
    )
    (tmp_path / "bg.js").write_text(background)
    return load_source(tmp_path)


@pytest.fixture(params=["single", "bundle"])
def quiet_source(request, tmp_path):
    return QUIET if request.param == "single" else _bundle(tmp_path, QUIET)


def _refuse(*args, **kwargs):
    raise AssertionError("the prefiltered path must not lower")


def test_prefiltered_vet_never_lowers(quiet_source, monkeypatch):
    monkeypatch.setattr(repro.api, "lower", _refuse)
    monkeypatch.setattr(repro.webext.pipeline, "lower_parsed_extension", _refuse)
    monkeypatch.setattr(repro.webext.lowering, "lower_parsed_extension", _refuse)
    report = vet(quiet_source, prefilter=True)
    assert report.prefiltered
    assert report.result is None and report.pdg is None
    assert not report.signature.entries
    assert report.counters["prefiltered"] == 1
    assert "PREFILTERED" in report.render()


def test_front_end_follows_the_source_kind(tmp_path):
    single = front_end(QUIET)
    bundle = front_end(_bundle(tmp_path, QUIET))
    assert isinstance(single, SingleFileFrontEnd)
    assert single.default_spec is mozilla_spec
    assert isinstance(bundle, BundleFrontEnd)
    assert bundle.default_spec is webext_spec


def test_recovery_skips_name_the_file_only_for_bundles(tmp_path):
    broken = "var a = 1;\nvar b = ;\nvar c = a;"
    single = vet(broken, recover=True)
    bundle = vet(_bundle(tmp_path, broken), recover=True)
    assert [d.detail.split(":")[0] for d in single.degradations] == [
        "skipped top-level statement"
    ]
    assert [d.detail.split(":")[0] for d in bundle.degradations] == [
        "skipped top-level statement in bg.js"
    ]
    assert "components" not in single.counters
    assert bundle.counters["components"] == 1


def test_certificate_refuses_bundles(tmp_path):
    bundle = _bundle(tmp_path, QUIET)
    certificate = certify_unchanged(bundle, bundle, webext_spec())
    assert not certificate.certified
    assert certificate.reason == REFUSED_WEBEXT_BUNDLE == "refused:webext-bundle"
