"""The pre-analysis orchestrator: scan, resolve, prune.

``preanalyze`` is the single entry the vetting pipeline calls between
parsing and lowering. It walks the parsed files once
(:func:`repro.lint.surface.scan_programs`) and derives the rest from
that scan, in dependency order:

1. computed-property **resolution** (:mod:`repro.preanalysis.constants`)
   — each ``obj[k]`` site either resolves to a finite name set or stays
   a *residual dynamic site*;
2. **pruning** (:mod:`repro.preanalysis.prune`) — consumes the
   resolution's residual count for its refusal ladder and its resolved
   name sets for liveness.

The scan also feeds the relevance prefilter and the ``ast_nodes`` size
metric (:func:`repro.api.vet`), so no pass before lowering walks the
trees a second time. The **call graph**
(:mod:`repro.preanalysis.callgraph`) is advisory — lint rules and
``vet --explain``, never signatures — and is built only when
:attr:`Preanalysis.callgraph` is first read.

Resolution is *whole-program only*: the solved environment assumes it
has seen every assignment to every name, which holds for a full parse
set but not for program fragments. Fragment consumers (the diffvet
change-surface certificate) must keep calling the resolution-free
surface scan.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.preanalysis.callgraph import CallGraph, build_callgraph
from repro.preanalysis.constants import solve_constraints
from repro.preanalysis.prune import PruneResult, prune_programs

if TYPE_CHECKING:
    from repro.lint.surface import ProgramScan

__all__ = [
    "Preanalysis",
    "Resolution",
    # Not called while vetting (the call graph is built on demand);
    # perfbench's traced run patches it by name.
    "build_callgraph",
    "preanalyze",
    "resolve_computed_sites",
]


@dataclass
class Resolution:
    """Per-site outcome of computed-property resolution.

    ``resolved`` is keyed by ``id()`` of the ``MemberExpression`` node —
    valid only against the exact AST objects that were preanalyzed (the
    surface scan walks those same objects).
    """

    resolved: dict[int, frozenset[str]] = field(default_factory=dict)
    resolved_spans: tuple[Span, ...] = ()
    residual_spans: tuple[Span, ...] = ()

    @property
    def resolved_sites(self) -> int:
        return len(self.resolved)

    @property
    def residual_sites(self) -> int:
        return len(self.residual_spans)


@dataclass
class Preanalysis:
    """Everything the pre-analysis learned about one program set."""

    resolution: Resolution
    prune: PruneResult
    #: The inputs, post-pruning (identical objects when pruning refused
    #: or found nothing dead).
    programs: tuple[js_ast.Program, ...]
    #: The inputs as parsed.
    inputs: tuple[js_ast.Program, ...]
    #: The one walk everything above was derived from.
    scan: ProgramScan

    @cached_property
    def callgraph(self) -> CallGraph:
        """The call graph of the inputs, built on first use."""
        return build_callgraph(self.inputs)

    @property
    def counters(self) -> dict[str, int]:
        return {
            "resolved_sites": self.resolution.resolved_sites,
            "residual_dynamic_sites": self.resolution.residual_sites,
            "pruned_nodes": self.prune.pruned_nodes,
        }

    def render(self) -> str:
        lines = [
            "preanalysis: "
            f"{self.resolution.resolved_sites} computed site(s) resolved, "
            f"{self.resolution.residual_sites} residual dynamic, "
            f"{self.callgraph.edges} call edge(s)",
            self.prune.decision.render()
            + (
                f" ({self.prune.pruned_nodes} node(s) removed: "
                + ", ".join(self.prune.removed)
                + ")"
                if self.prune.removed
                else ""
            ),
        ]
        return "\n".join(lines)


def resolve_computed_sites(
    programs: tuple[js_ast.Program, ...],
    *,
    trusted: bool,
    scan: "ProgramScan | None" = None,
) -> Resolution:
    """Classify every computed property site with a non-literal key.

    ``trusted`` is False when dynamic code (or a degraded parse) means
    the solved environment may miss assignments — every site is then
    residual by fiat. ``scan`` is a :func:`repro.lint.surface
    .scan_programs` of ``programs``, walked here when not given.
    """
    if scan is None:
        from repro.lint.surface import scan_programs

        scan = scan_programs(programs)
    env = None
    if trusted and scan.computed_sites:
        env = solve_constraints(scan.constraints, scan.blocked)
    resolved: dict[int, frozenset[str]] = {}
    resolved_spans: list[Span] = []
    residual_spans: list[Span] = []
    for node, _unit in scan.computed_sites:
        if not node.computed:
            continue
        names = None
        if env is not None:
            names = env.eval(node.property).concretes()
        span = Span.at(node.position)
        if names is None:
            residual_spans.append(span)
        else:
            resolved[id(node)] = frozenset(names)
            resolved_spans.append(span)
    return Resolution(
        resolved=resolved,
        resolved_spans=tuple(resolved_spans),
        residual_spans=tuple(residual_spans),
    )


def preanalyze(
    programs: Iterable[js_ast.Program], *, degraded: bool = False
) -> Preanalysis:
    """Run the whole pre-analysis over a parsed program set."""
    from repro.lint.surface import scan_programs

    programs = tuple(programs)
    scan = scan_programs(programs)
    trusted = not degraded and not scan.dynamic_code
    resolution = resolve_computed_sites(programs, trusted=trusted, scan=scan)
    prune = prune_programs(
        programs,
        degraded=degraded,
        dynamic_code=scan.dynamic_code,
        residual_dynamic_sites=resolution.residual_sites,
        resolved=resolution.resolved,
        scan=scan,
    )
    return Preanalysis(
        resolution=resolution,
        prune=prune,
        programs=prune.programs,
        inputs=programs,
        scan=scan,
    )
