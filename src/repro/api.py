"""The public high-level API: the paper's three-phase pipeline.

- **Phase 1** (:func:`analyze_addon`): parse, lower (with the synthetic
  event loop), and run the base abstract interpretation under the
  browser environment.
- **Phase 2** (:func:`build_addon_pdg`): construct the annotated PDG.
- **Phase 3** (:func:`infer_addon_signature`): infer the security
  signature against a security spec (default: the Mozilla-flavored one).

:func:`vet` runs all three and returns a :class:`VettingReport`, which is
what the CLI and the evaluation harness consume. It is the only stage
sequence: single files and WebExtension bundles differ only in their
front end (:func:`front_end`). :func:`diff_vet` is the
*update*-shaped entry: given an approved old version and a new version,
it tries the incremental fast lane (change-surface certificate, see
:mod:`repro.diffvet.incremental`) and otherwise re-analyzes and
classifies the signature change (:mod:`repro.diffvet.diff`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis import AnalysisResult, analyze
from repro.browser import BrowserEnvironment, mozilla_spec
from repro.faults import Budget, Degradation, FailureKind
from repro.ir import ProgramIR, lower
from repro.js import node_count, parse, parse_with_recovery
from repro.pdg import PDG, build_pdg
from repro.perf import Counters, PhaseTimes
from repro.signatures import (
    Comparison,
    InferenceDetail,
    SecuritySpec,
    Signature,
    compare,
    widen_detail,
)

__all__ = [
    "DiffVetReport",
    "SingleFileFrontEnd",
    "VettingReport",
    "analyze_addon",
    "build_addon_pdg",
    "diff_vet",
    "front_end",
    "infer_addon_signature",
    "infer_detail",
    "infer_signature",
    # Not called here (vet reads the node count off the pre-lowering
    # scan); perfbench's traced run patches it by name.
    "node_count",
    "vet",
]


def analyze_addon(
    source: str,
    k: int = 1,
    event_loop: bool = True,
    environment=None,
    budget: Budget | None = None,
    salvage: bool = False,
) -> tuple[ProgramIR, AnalysisResult]:
    """Phase 1: frontend + base analysis."""
    program = lower(parse(source), event_loop=event_loop)
    env = environment if environment is not None else BrowserEnvironment()
    return program, analyze(program, env, k=k, budget=budget, salvage=salvage)


def build_addon_pdg(result: AnalysisResult) -> PDG:
    """Phase 2: the annotated PDG."""
    return build_pdg(result)


def infer_addon_signature(
    result: AnalysisResult,
    pdg: PDG,
    spec: SecuritySpec | None = None,
) -> InferenceDetail:
    """Phase 3: signature inference."""
    return infer_detail(result, pdg, spec)


def infer_detail(result, pdg, spec=None) -> InferenceDetail:
    from repro.signatures import infer_signature as run_inference

    return run_inference(result, pdg, spec if spec is not None else mozilla_spec())


@dataclass
class VettingReport:
    """Everything the vetter sees for one addon.

    When the relevance prefilter proved the addon trivially safe
    (``prefiltered=True``), the heavyweight phases never ran: nothing
    was lowered, ``result`` and ``pdg`` are ``None`` and the signature
    is empty.
    """

    result: AnalysisResult | None
    pdg: PDG | None
    detail: InferenceDetail
    ast_nodes: int
    comparison: Comparison | None = None
    #: Call statements whose callee the analysis could not resolve —
    #: worth a manual look (unmodeled APIs or dead code).
    unknown_calls: frozenset[int] = frozenset()
    #: Per-phase wall time of this run (P1 analysis / P2 PDG / P3
    #: inference), measured by :func:`vet`.
    phase_times: PhaseTimes | None = None
    #: Hot-path statistics: the interpreter's fixpoint counters plus
    #: PDG/signature sizes. Pure observability (never affects results).
    counters: Counters = field(default_factory=Counters)
    #: Degradation events (budget trips, skipped statements). When
    #: non-empty the signature has been widened to ⊤ over the spec: it
    #: is sound but deliberately coarse, and must be surfaced as
    #: "degraded" wherever the report is shown.
    degradations: tuple[Degradation, ...] = ()
    #: The sound relevance prefilter (``repro.lint.surface``) proved no
    #: run of the full analysis could emit an entry, so none ran.
    prefiltered: bool = False
    #: The prefilter's full decision (site spans for ``vet --explain``),
    #: when the prefilter ran.
    prefilter_decision: object | None = None
    #: The whole-program pre-analysis (``repro.preanalysis``): computed
    #: property resolution, pruning decision, and the call graph on
    #: demand. ``None`` when disabled (``--no-preanalysis``).
    preanalysis: object | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    @property
    def signature(self) -> Signature:
        return self.detail.signature

    def render(self) -> str:
        lines = [f"AST nodes: {self.ast_nodes}", "signature:"]
        if self.prefiltered:
            lines.insert(
                0,
                "PREFILTERED (no overlap with the spec surface; "
                "trivially-empty signature, interpreter skipped)",
            )
        if self.degraded:
            lines.insert(0, "DEGRADED (signature widened to a sound ⊤):")
            lines[1:1] = [
                f"  {degradation.render()}" for degradation in self.degradations
            ]
        rendered = self.signature.render()
        lines.extend(
            f"  {line}" for line in (rendered.splitlines() or ["  (empty)"])
        )
        if self.phase_times is not None:
            lines.append(f"timing: {self.phase_times.render()}")
        if self.unknown_calls:
            lines.append(f"unresolved callees at {len(self.unknown_calls)} call site(s)")
        if self.result is not None:
            for tag, sid in sorted(self.result.diagnostics):
                line = self.result.program.stmts[sid].line
                lines.append(f"diagnostic: {tag} at line {line}")
        if self.comparison is not None:
            lines.append(self.comparison.render())
        return "\n".join(lines)


def infer_signature(source: str, spec: SecuritySpec | None = None, k: int = 1) -> Signature:
    """One-call convenience: addon source -> inferred signature."""
    return vet(source, spec=spec, k=k).signature


class SingleFileFrontEnd:
    """The front end for one JavaScript file (the paper's addons).

    A front end owns the four points where :func:`vet` differs by input
    kind: parsing and lowering, the environment, the default spec, and
    the extra counters plus post-inference pass. The bundle front end
    is :class:`repro.webext.pipeline.BundleFrontEnd`.
    """

    environment = BrowserEnvironment
    default_spec = staticmethod(mozilla_spec)

    def parse_files(self, source: str, recover: bool):
        """``(trees, skips)``: the parsed files and the recovery skips
        as ``(path, skipped statement)`` pairs (``path`` is ``None``
        for a single file)."""
        if recover:
            tree, skipped = parse_with_recovery(source)
            return (tree,), [(None, skip) for skip in skipped]
        return (parse(source),), []

    def lower_files(self, trees) -> ProgramIR:
        """Lower ``trees`` (the parsed files, or their pruned versions)."""
        (tree,) = trees
        return lower(tree, event_loop=True)

    def post_inference(self, result, pdg, detail: InferenceDetail) -> InferenceDetail:
        """Refine the inferred signature before salvage widening."""
        return detail

    def counters(self, result: AnalysisResult | None) -> dict[str, int]:
        """Extra counters; ``result`` is ``None`` on the prefiltered path."""
        return {}


def front_end(source: str):
    """The front end for ``source``: serialized WebExtension bundles
    (``repro.webext.loader``) get the bundle front end, everything else
    the single-file one."""
    from repro.webext.loader import is_bundle_text

    if is_bundle_text(source):
        from repro.webext.pipeline import BundleFrontEnd

        return BundleFrontEnd()
    return SingleFileFrontEnd()


def vet(
    source: str,
    manual: Signature | None = None,
    real_extras: frozenset = frozenset(),
    spec: SecuritySpec | None = None,
    k: int = 1,
    budget: Budget | None = None,
    recover: bool = False,
    prefilter: bool = False,
    preanalysis: bool = True,
) -> VettingReport:
    """Run the full pipeline; optionally compare against a manual
    signature (the Table 2 methodology). The report carries per-phase
    wall times and the hot-path counters of this run.

    ``budget`` bounds the base analysis cooperatively (fixpoint steps,
    wall clock, abstract states); a tripped budget *degrades* the run —
    the report comes back ``degraded=True`` with its signature widened
    to a sound ⊤ over the spec — instead of raising. ``recover`` does
    the same for unparseable top-level statements: they are skipped, the
    remainder analyzed, and the report flagged degraded.

    ``prefilter`` turns on the sound relevance prefilter
    (:func:`repro.lint.surface.decide_relevance_many`): an addon whose
    syntactic surface cannot reach the spec — no shared names, no
    dynamic code, no dynamic property access, no recovery skips — gets
    the trivially-empty signature without lowering or running the
    interpreter. Any disqualifier falls back to the full pipeline, so
    the result is bit-identical either way (proven addon-by-addon in
    ``tests/lint/test_prefilter_soundness.py``).

    ``preanalysis`` (on by default; ``--no-preanalysis`` in the CLI)
    runs the flow-insensitive whole-program pre-analysis
    (:mod:`repro.preanalysis`) between parsing and lowering: computed
    property sites with provably-finite key sets stop disqualifying the
    prefilter, unreferenced top-level functions are pruned before the
    interpreter ever sees them (signature-preserving — proven
    bit-identical in ``tests/preanalysis``), and the report gains the
    ``resolved_sites`` / ``residual_dynamic_sites`` / ``pruned_nodes``
    counters. For a bundle it runs over the union of all component
    files: a content script may hold the only reference to a background
    function's property name. Either way the parsed files are walked
    once before lowering (:func:`repro.lint.surface.scan_programs`);
    the prefilter, the pre-analysis and ``ast_nodes`` all read that one
    scan.

    ``source`` may also be a serialized WebExtension bundle (the
    ``repro.webext.loader`` text form produced by ``load_source`` on an
    extension directory): the same stages then run behind the bundle
    front end (:func:`front_end`) — multi-file lowering, the chrome
    environment, by default the WebExt spec, and the sender-guard
    downgrade. Carrying bundles as plain text keeps every downstream
    consumer — batch runner, vetting service, differential vetting —
    free of special cases.
    """
    from repro.lint.surface import decide_relevance_many, scan_programs

    front = front_end(source)
    resolved_spec = spec if spec is not None else front.default_spec()
    start = time.perf_counter()
    trees, skipped = front.parse_files(source, recover)
    degradations: list[Degradation] = [
        Degradation(
            kind=(
                FailureKind.UNSUPPORTED_SYNTAX
                if skip.unsupported
                else FailureKind.PARSE_ERROR
            ),
            detail=(
                "skipped top-level statement"
                + (f" in {path}" if path is not None else "")
                + f": {skip.render()}"
            ),
        )
        for path, skip in skipped
    ]
    pre = None
    if preanalysis:
        from repro.preanalysis import preanalyze

        pre = preanalyze(trees, degraded=bool(degradations))
        scan = pre.scan
    else:
        scan = scan_programs(trees)
    decision = None
    if prefilter:
        decision = decide_relevance_many(
            trees,
            resolved_spec,
            degraded=bool(degradations),
            resolution=pre.resolution if pre is not None else None,
            scan=scan,
        )
    prefiltered = decision is not None and not decision.relevant
    result = pdg = None
    if prefiltered:
        detail = InferenceDetail(
            signature=Signature(), provenance={}, source_statements={}
        )
        after_p1 = after_p2 = after_p3 = time.perf_counter()
    else:
        # Pruning is signature-preserving (tests/preanalysis proves
        # bit-identity); the scan of the original trees supplies
        # ast_nodes, so the size metric stays the addon's, not the
        # pruned residue's.
        pruned = pre is not None and pre.prune.pruned_nodes
        program = front.lower_files(pre.programs if pruned else trees)
        result = analyze(
            program, front.environment(), k=k, budget=budget, salvage=True
        )
        degradations.extend(result.degradations)
        after_p1 = time.perf_counter()
        pdg = build_pdg(result)
        after_p2 = time.perf_counter()
        detail = front.post_inference(
            result, pdg, infer_detail(result, pdg, resolved_spec)
        )
        if degradations:
            detail = widen_detail(detail, resolved_spec)
        after_p3 = time.perf_counter()
    comparison = None
    if manual is not None:
        comparison = compare(detail.signature, manual, real_extras)
    if result is None:
        counters = Counters(prefiltered=1)
    else:
        counters = Counters(result.counters)
        counters["pdg_edges"] = len(pdg.edges)
        counters["pdg_cyclic_statements"] = len(pdg.cyclic)
        counters["signature_entries"] = len(detail.signature.entries)
    counters.update(front.counters(result))
    if degradations:
        counters["degradations"] = len(degradations)
    if pre is not None:
        counters.update(pre.counters)
    return VettingReport(
        result=result,
        pdg=pdg,
        detail=detail,
        ast_nodes=scan.node_count,
        comparison=comparison,
        unknown_calls=(
            result.unknown_callees if result is not None else frozenset()
        ),
        phase_times=PhaseTimes(
            p1=after_p1 - start,
            p2=after_p2 - after_p1,
            p3=after_p3 - after_p2,
        ),
        counters=counters,
        degradations=tuple(degradations),
        prefiltered=prefiltered,
        prefilter_decision=decision,
        preanalysis=pre,
    )


# ----------------------------------------------------------------------
# Differential vetting


@dataclass
class DiffVetReport:
    """Everything the vetter sees for one addon *update*.

    ``verdict`` is the queue-routing decision:

    - ``approve-fast`` — the change-surface certificate proved the
      signature unchanged; the new version was never re-analyzed
      (``new_report`` is ``None``) and the approved signature stands;
    - ``approve`` — re-analyzed; nothing widened, nothing new: the
      previous approval still covers every claim;
    - ``re-review`` — re-analyzed; at least one entry widened or
      appeared, listed in ``diff`` with a witness path per new/widened
      flow in ``witnesses``.
    """

    certificate: object  # repro.diffvet.incremental.ChangeCertificate
    verdict: str
    old_signature: Signature
    new_signature: Signature
    diff: object  # repro.diffvet.diff.SignatureDiff
    witnesses: list = field(default_factory=list)
    old_report: VettingReport | None = None
    new_report: VettingReport | None = None

    @property
    def fast_lane(self) -> bool:
        return self.verdict == "approve-fast"

    def render(self) -> str:
        lines = [f"differential vetting: {self.verdict}"]
        lines.append(f"certificate: {self.certificate.render()}")
        lines.append(self.diff.render())
        for witness in self.witnesses:
            lines.append(witness.render())
        return "\n".join(lines)


def diff_vet(
    old_source: str,
    new_source: str,
    spec: SecuritySpec | None = None,
    k: int = 1,
    budget: Budget | None = None,
    recover: bool = False,
    old_signature: Signature | None = None,
) -> DiffVetReport:
    """Vet an addon update against its approved previous version.

    Tries the incremental fast lane first: when the change-surface
    certificate (:func:`repro.diffvet.incremental.certify_unchanged`)
    holds, ``signature(new) == signature(old)`` is known without
    re-running the interpreter, and the approved signature is served
    (``approve-fast``). Otherwise the new version goes through the full
    pipeline and the two signatures are classified entry-by-entry under
    the lattice order (``approve`` / ``re-review``), with an
    ``explain_flow`` witness for every widened or new flow.

    ``old_signature`` short-circuits re-deriving the approved signature
    (a vetting service has it on file — e.g. in a
    :class:`repro.diffvet.store.VersionStore` chain); without it, the
    old version is vetted once here to establish the baseline.
    """
    from repro.diffvet.diff import diff_signatures
    from repro.diffvet.incremental import certify_unchanged
    from repro.signatures.explain import explain_flow

    resolved_spec = spec if spec is not None else front_end(new_source).default_spec()
    certificate = certify_unchanged(
        old_source, new_source, resolved_spec, recover=recover
    )
    old_report = None
    if old_signature is None:
        old_report = vet(
            old_source, spec=spec, k=k, budget=budget, recover=recover
        )
        old_signature = old_report.signature
    if certificate.certified:
        return DiffVetReport(
            certificate=certificate,
            verdict="approve-fast",
            old_signature=old_signature,
            new_signature=old_signature,
            diff=diff_signatures(old_signature, old_signature, resolved_spec),
            old_report=old_report,
        )
    new_report = vet(new_source, spec=spec, k=k, budget=budget, recover=recover)
    diff = diff_signatures(old_signature, new_report.signature, resolved_spec)
    witnesses = []
    if new_report.pdg is not None:
        for entry in diff.review_flows:
            witness = explain_flow(new_report.pdg, new_report.detail, entry)
            if witness is not None:
                witnesses.append(witness)
    return DiffVetReport(
        certificate=certificate,
        verdict=diff.verdict,
        old_signature=old_signature,
        new_signature=new_report.signature,
        diff=diff,
        witnesses=witnesses,
        old_report=old_report,
        new_report=new_report,
    )
