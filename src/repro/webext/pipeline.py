"""The WebExtensions front end of :func:`repro.api.vet`.

:func:`repro.api.vet` runs the same stages for bundles as for single
files; :class:`BundleFrontEnd` supplies the four bundle-specific parts:
the multi-file parse and lowering, :class:`repro.browser.chrome
.WebExtEnvironment`, the :func:`repro.browser.chrome.webext_spec`
default, and the cross-component counters plus the sender-guard
downgrade of :mod:`repro.webext.guards`, applied *before* salvage
widening (a degraded run's ⊤ entries must stay ⊤).
"""

from __future__ import annotations

from repro.analysis import AnalysisResult, analyze
from repro.api import infer_detail
from repro.browser.chrome import WebExtEnvironment, webext_spec
from repro.ir import ProgramIR
from repro.js import node_count
from repro.pdg import build_pdg
from repro.signatures import InferenceDetail
from repro.webext.guards import downgrade_guarded, find_sender_guards
from repro.webext.loader import bundle_from_text
from repro.webext.lowering import lower_parsed_extension, parse_extension

__all__ = [
    "BundleFrontEnd",
    # Not called here (vet runs them via repro.api); perfbench's traced run patches them by name.
    "analyze",
    "build_pdg",
    "infer_detail",
    "node_count",
]


class BundleFrontEnd:
    """The front end for a serialized WebExtension bundle.

    Its extra counters record the cross-component shape of the run:
    ``components``, ``channels`` (distinct channels any loop
    dispatched), and ``sender_guards``.
    """

    environment = WebExtEnvironment
    default_spec = staticmethod(webext_spec)

    def __init__(self) -> None:
        self.parsed = None
        self.guards = None

    def parse_files(self, source: str, recover: bool):
        """``(trees, skips)``: every component file's AST in manifest
        order and the recovery skips as ``(path, skipped statement)``."""
        self.parsed = parse_extension(bundle_from_text(source), recover=recover)
        return self.parsed.parsed, self.parsed.skipped

    def lower_files(self, trees) -> ProgramIR:
        """Lower ``trees`` (parallel to the parsed files, possibly
        pruned) into one program; bookkeeping stays on the originals."""
        return lower_parsed_extension(self.parsed, programs=trees).program

    def post_inference(self, result, pdg, detail: InferenceDetail) -> InferenceDetail:
        """The sender-guard downgrade."""
        self.guards = find_sender_guards(result, pdg)
        return downgrade_guarded(detail, self.guards)

    def counters(self, result: AnalysisResult | None) -> dict[str, int]:
        counters = {"components": len(self.parsed.component_files)}
        if result is not None:
            counters["channels"] = len({
                channel
                for channels in result.loop_channels.values()
                for channel in channels
            })
            counters["sender_guards"] = len(self.guards.branches)
        return counters
