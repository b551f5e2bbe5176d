"""Span tracing for the benchmark's traced run, installed from outside.

The program under test has no tracing of its own, so the traced run
replaces the public layer functions, as the pipeline modules reference
them, with timing wrappers (:meth:`Tracer.install`) and restores them
afterwards (:meth:`Tracer.uninstall`). Each call records one
:class:`Span`: layer name, enclosing span, request id, start and end.
Spans stay in memory; :func:`summarize` folds them into per-layer
totals, self times and call counts.

A call into a layer from inside a span of the same layer (for example
``decide_relevance`` delegating to ``decide_relevance_many``) records no
second span, so a layer's inclusive time never counts itself twice.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter

#: ``(module, attribute, span name)`` for every vet-pipeline layer
#: boundary. The attribute is patched in the module that *calls* it, so
#: both front ends (``repro.api`` for single files, ``repro.webext
#: .pipeline`` for bundles) land in the same layer spans.
PIPELINE_LAYERS = (
    ("repro.api", "parse", "js.parse"),
    ("repro.api", "node_count", "js.node_count"),
    ("repro.webext.pipeline", "node_count", "js.node_count"),
    ("repro.preanalysis", "preanalyze", "preanalysis"),
    ("repro.preanalysis.pipeline", "resolve_computed_sites", "preanalysis.resolve"),
    ("repro.preanalysis.pipeline", "build_callgraph", "preanalysis.callgraph"),
    ("repro.preanalysis.pipeline", "prune_programs", "preanalysis.prune"),
    ("repro.lint.surface", "nodes_surface", "lint.surface"),
    ("repro.lint.surface", "decide_relevance", "lint.prefilter"),
    ("repro.lint.surface", "decide_relevance_many", "lint.prefilter"),
    ("repro.api", "lower", "ir.lower"),
    ("repro.webext.pipeline", "parse_extension", "webext.parse"),
    ("repro.webext.pipeline", "lower_parsed_extension", "webext.lower"),
    ("repro.api", "analyze", "analysis.interpret"),
    ("repro.webext.pipeline", "analyze", "analysis.interpret"),
    ("repro.api", "build_pdg", "pdg"),
    ("repro.webext.pipeline", "build_pdg", "pdg"),
    ("repro.pdg.graph", "build_icfg", "pdg.icfg"),
    ("repro.pdg.graph", "build_ddg", "pdg.ddg"),
    ("repro.pdg.graph", "build_cdg", "pdg.cdg"),
    ("repro.api", "infer_detail", "signatures.infer"),
    ("repro.webext.pipeline", "infer_detail", "signatures.infer"),
    ("repro.webext.pipeline", "find_sender_guards", "webext.guards"),
    ("repro.webext.pipeline", "downgrade_guarded", "webext.guards"),
)

#: The parent-process layers of the batch engine. Workers run in other
#: processes, so their time comes from each ``VetOutcome`` instead.
STORE_LAYERS = (
    ("repro.batch", "vet_many", "batch.vet_many"),
    ("repro.store.kv:JsonStore", "load", "store.cache_load"),
    ("repro.store.kv:JsonStore", "put", "store.cache_put"),
    ("repro.diffvet.store:VersionStore", "record", "store.version"),
    ("repro.diffvet.store:VersionStore", "baseline", "store.version"),
)

#: Lowering that runs after the prefilter already answered the addon
#: (the program is lowered only to fill the report) gets its own name.
PREFILTERED_LOWER = "ir.lower_prefiltered"


@dataclass(slots=True)
class Span:
    name: str
    parent: str | None
    request: int
    start: float
    end: float = 0.0
    #: Time covered by direct child spans.
    child: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records nested layer spans for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[Span] = []
        self._prefiltered = False
        self._patches: list[tuple[object, str, object]] = []

    def begin_request(self, request: int) -> None:
        """Start a new request (one addon); its spans share ``request``."""
        self.request = request
        self._prefiltered = False

    def _span_name(self, name: str) -> str:
        if self._prefiltered and name in ("ir.lower", "webext.lower"):
            return PREFILTERED_LOWER
        return name

    def wrap(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_name = tracer._span_name(name)
            if stack and stack[-1].name == span_name:
                return function(*args, **kwargs)
            span = Span(
                span_name, stack[-1].name if stack else None,
                tracer.request, perf_counter(),
            )
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                tracer.spans.append(span)
            if span_name == "lint.prefilter" and not result.relevant:
                tracer._prefiltered = True
            return result

        return traced

    def install(self, layers) -> None:
        for target, attribute, name in layers:
            owner = _resolve(target)
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


@dataclass
class LayerTotals:
    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0

    def add(self, span: Span) -> None:
        self.total += span.duration
        self.self_time += span.self_time
        self.calls += 1


def summarize(spans: list[Span]) -> dict[tuple[str, str | None], LayerTotals]:
    """Per ``(layer, enclosing layer)`` totals; the key ``(layer, "*")``
    sums a layer over every parent."""
    table: dict[tuple[str, str | None], LayerTotals] = {}
    for span in spans:
        for key in ((span.name, span.parent), (span.name, "*")):
            table.setdefault(key, LayerTotals()).add(span)
    return table


def attributed_seconds(spans: list[Span]) -> float:
    """Wall time covered by top-level layer spans."""
    return sum(span.duration for span in spans if span.parent is None)
