"""The sound relevance prefilter (static triage, flow-insensitive).

The heavyweight pipeline — abstract interpretation, PDG construction,
flow-type fixpoints — only ever produces signature entries for addons
that *name* part of the security spec's surface: a source property
(``href``, ``keyCode``, ...), a sink method (``open``, ``send``,
``setData``, ...), or a spec-tagged global (``XHRWrapper``, ``eval``).
That gives a cheap, sound triage test:

1. Over-approximate the addon's *surface*: every identifier, every
   statically known property name, every declared name (a
   flow-insensitive walk of the AST — :func:`addon_surface`).
2. Over-approximate the spec's surface: every property/method/global
   name any of its matchers could possibly need (:func:`spec_surface`).
3. If the two are disjoint **and** the addon has no dynamic code
   (``eval``/``Function``/string timers) **and** no dynamic property
   access (a computed key could name anything), then no run of the full
   analysis can produce a non-empty signature — the addon gets the
   trivially-empty signature without the interpreter ever starting.

Soundness argument (see DESIGN.md "Prefilter soundness"): every
source/sink/API matcher in :mod:`repro.signatures.spec` fires only on
statements that reach a native through a *named* property read or a
*named* global — both of which put the name into the addon surface. A
computed access with a non-literal key could denote any name, so it
forces ``dynamic_properties`` and disqualifies the fast lane; dynamic
code and recovery-degraded parses disqualify it by fiat. The prefilter
therefore never fires on an addon whose full analysis could emit an
entry — tested addon-by-addon in
``tests/lint/test_prefilter_soundness.py``.

Since the pre-analysis PR, the surface also records *where* each
disqualifier lives (per-site spans, not just booleans), and the scan
accepts the resolver's verdicts (:class:`repro.preanalysis.Resolution`):
a computed site whose key provably ranges over a finite string set is
demoted from ``dynamic_properties`` to ordinary named surface — its
resolved names join ``Surface.names``, and only the *residual* sites
still disqualify. Resolution is sound only whole-program (the solved
environment must have seen every assignment), so fragment consumers
(the diffvet change-surface certificate) call the scan without one.

The walk itself is :func:`scan_programs`. Besides the surface it
collects what the pre-analysis needs (constant-string constraints,
per-statement mentions) and the node count, so ``repro.api.vet`` walks
the parsed files once between parsing and lowering and derives the
surface, resolution, pruning and ``ast_nodes`` from that one
:class:`ProgramScan`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.lint.rules import TIMER_NAMES, callee_name, static_property_name
from repro.signatures.spec import (
    CallSource,
    ChannelSource,
    NetworkSink,
    PropertySource,
    PropertyWriteSink,
    SecuritySpec,
)

if TYPE_CHECKING:
    from repro.preanalysis.pipeline import Resolution

#: Names that mean string-to-code execution wherever they appear.
_DYNAMIC_CODE_NAMES = frozenset({"eval", "Function"})


@dataclass(frozen=True)
class Surface:
    """A flow-insensitive over-approximation of what an addon can touch."""

    #: Every identifier, statically known property name, declared
    #: variable/function/parameter name, object-literal key, and
    #: resolved computed-key name.
    names: frozenset[str]
    #: The addon may build code from strings (eval / Function / string
    #: timer handlers) — nothing syntactic bounds what it touches.
    dynamic_code: bool
    #: The addon uses a computed property key that is not a literal and
    #: that resolution could not bound — the property surface is
    #: unbounded.
    dynamic_properties: bool
    #: Where each dynamic-code construct appears.
    dynamic_code_sites: tuple[Span, ...] = ()
    #: Where each *unresolved* computed property access appears.
    dynamic_property_sites: tuple[Span, ...] = ()
    #: Computed sites the resolver bounded to a finite name set (their
    #: names are already folded into ``names``).
    resolved_sites: int = 0


@dataclass
class ProgramScan:
    """What the passes between parsing and lowering read off a set of
    ASTs, collected in one walk by :func:`scan_programs`.

    The vetting pipeline derives everything it needs before lowering
    from one scan: the prefilter's :class:`Surface` (:meth:`surface`),
    the constant-string constraints computed-property resolution solves
    (``constraints``/``blocked``, see :mod:`repro.preanalysis
    .constants`), the computed sites it classifies, the mention sets
    pruning's liveness fixpoint reads (:meth:`mentions_with`), and the
    ``ast_nodes`` size metric.
    """

    #: AST nodes walked (the Table 1 size metric).
    node_count: int
    #: Declared names: variables, functions, parameters, ``for-in``
    #: variables.
    declared: set[str]
    #: Names mentioned (identifiers, static property names, object
    #: literal keys) per *unit*. Entry 0 collects every unit except the
    #: top-level function declarations of program roots; entry ``i + 1``
    #: belongs to ``declarations[i]``.
    mentions: list[set[str]]
    #: Top-level function declarations of the ``Program`` roots, in walk
    #: order, each with the node count of its subtree.
    declarations: list[tuple[js_ast.FunctionDeclaration, int]]
    #: Where each dynamic-code construct appears, in walk order.
    dynamic_code_sites: list[Span]
    #: Member expressions without a static property name, in walk
    #: order, each with the index of the mention set of its unit.
    computed_sites: list[tuple[js_ast.MemberExpression, int]]
    #: ``(name, assigned expression)`` for every plain binding of a
    #: name (``None``: a declarator without initializer), in walk order.
    constraints: list[tuple[str, js_ast.Expression | None]]
    #: Names the program binds in a way the constant-string lattice does
    #: not model.
    blocked: set[str]

    @property
    def dynamic_code(self) -> bool:
        return bool(self.dynamic_code_sites)

    def surface(self, resolution: "Resolution | None" = None) -> Surface:
        """The syntactic surface; ``resolution`` as for
        :func:`nodes_surface`."""
        names = set(self.declared)
        for mentioned in self.mentions:
            names |= mentioned
        resolved = resolution.resolved if resolution is not None else {}
        dynamic_property_sites = []
        resolved_sites = 0
        for node, _unit in self.computed_sites:
            keys = resolved.get(id(node))
            if keys is None:
                dynamic_property_sites.append(Span.at(node.position))
            else:
                names.update(keys)
                resolved_sites += 1
        return Surface(
            names=frozenset(names),
            dynamic_code=self.dynamic_code,
            dynamic_properties=bool(dynamic_property_sites),
            dynamic_code_sites=tuple(self.dynamic_code_sites),
            dynamic_property_sites=tuple(dynamic_property_sites),
            resolved_sites=resolved_sites,
        )

    def mentions_with(self, resolved: dict[int, frozenset[str]]) -> list[set[str]]:
        """``mentions`` plus the resolved names of each unit's computed
        sites (a copy wherever a name is added; the scan is unchanged)."""
        mentions = list(self.mentions)
        copied: set[int] = set()
        for node, unit in self.computed_sites:
            keys = resolved.get(id(node))
            if keys:
                if unit not in copied:
                    mentions[unit] = set(mentions[unit])
                    copied.add(unit)
                mentions[unit].update(keys)
        return mentions


_IDENTIFIER = js_ast.Identifier
_MEMBER = js_ast.MemberExpression
_STRING = js_ast.StringLiteral
#: The other node kinds the scan records something for.
_BINDING_KINDS = frozenset({
    js_ast.CallExpression,
    js_ast.Property,
    js_ast.VariableDeclarator,
    js_ast.AssignmentExpression,
    js_ast.UpdateExpression,
    js_ast.ForInStatement,
    js_ast.CatchClause,
    js_ast.FunctionDeclaration,
    js_ast.FunctionExpression,
})


def scan_programs(roots: Iterable[js_ast.Node]) -> ProgramScan:
    """Walk ``roots`` once and collect a :class:`ProgramScan`.

    Roots may be whole programs or fragments (statements); only the
    top-level function declarations of ``Program`` roots get mention
    sets of their own.
    """
    slots_of = js_ast.CHILD_SLOTS
    declared: set[str] = set()
    mentions: list[set[str]] = [set()]
    declarations: list[tuple[js_ast.FunctionDeclaration, int]] = []
    dynamic_code_sites: list[Span] = []
    computed_sites: list[tuple[js_ast.MemberExpression, int]] = []
    constraints: list[tuple[str, js_ast.Expression | None]] = []
    blocked: set[str] = set()
    count = 0

    for root in roots:
        whole = type(root) is js_ast.Program
        if whole:
            count += 1
        for unit_node in root.body if whole else (root,):
            start = count
            if whole and type(unit_node) is js_ast.FunctionDeclaration:
                unit = len(mentions)
                mentions.append(set())
            else:
                unit = 0
            mentioned = mentions[unit]
            stack: list[js_ast.Node] = [unit_node]
            pop, push, extend = stack.pop, stack.append, stack.extend
            while stack:
                node = pop()
                count += 1
                cls = type(node)
                if cls is _IDENTIFIER:
                    mentioned.add(node.name)
                    if node.name in _DYNAMIC_CODE_NAMES:
                        dynamic_code_sites.append(Span.at(node.position))
                elif cls is _MEMBER:
                    key = node.property
                    prop = (
                        key.value
                        if type(key) is _STRING
                        else static_property_name(node)
                    )
                    if prop is not None:
                        mentioned.add(prop)
                        if prop in _DYNAMIC_CODE_NAMES:
                            dynamic_code_sites.append(Span.at(node.position))
                    else:
                        computed_sites.append((node, unit))
                elif cls in _BINDING_KINDS:
                    _collect_binding(
                        node, cls, mentioned, declared, constraints, blocked,
                        dynamic_code_sites,
                    )
                for name, many in slots_of[cls]:
                    value = getattr(node, name)
                    if many:
                        extend(reversed(value))
                    elif value is not None:
                        push(value)
            if unit:
                declarations.append((unit_node, count - start))
    return ProgramScan(
        node_count=count,
        declared=declared,
        mentions=mentions,
        declarations=declarations,
        dynamic_code_sites=dynamic_code_sites,
        computed_sites=computed_sites,
        constraints=constraints,
        blocked=blocked,
    )


def _collect_binding(
    node, cls, mentioned, declared, constraints, blocked, dynamic_code_sites
) -> None:
    """The scan's rules for the node kinds in ``_BINDING_KINDS``."""
    if cls is js_ast.CallExpression:
        if callee_name(node.callee) in TIMER_NAMES and node.arguments:
            if not isinstance(
                node.arguments[0],
                (js_ast.FunctionExpression, js_ast.Identifier,
                 js_ast.MemberExpression),
            ):
                # A timer handler that is not (a reference to) a
                # function may be a string of code.
                dynamic_code_sites.append(Span.at(node.position))
    elif cls is js_ast.Property:
        mentioned.add(node.key)
    elif cls is js_ast.VariableDeclarator:
        declared.add(node.name)
        constraints.append((node.name, node.init))
    elif cls is js_ast.AssignmentExpression:
        if type(node.target) is _IDENTIFIER:
            if node.operator == "=":
                constraints.append((node.target.name, node.value))
            else:
                # Compound assignment mixes the old value with
                # arithmetic the constant-string lattice does not track.
                blocked.add(node.target.name)
    elif cls is js_ast.UpdateExpression:
        if type(node.argument) is _IDENTIFIER:
            blocked.add(node.argument.name)
    elif cls is js_ast.ForInStatement:
        # Enumerates arbitrary property names.
        declared.add(node.variable)
        blocked.add(node.variable)
    elif cls is js_ast.CatchClause:
        blocked.add(node.param)
    else:
        # A function: parameters receive arbitrary call arguments
        # (including environment-made values at event dispatch); a
        # function name is bound to a closure whose string coercion the
        # machine tracks as ⊤.
        declared.update(node.params)
        blocked.update(node.params)
        if node.name:
            declared.add(node.name)
            blocked.add(node.name)


def addon_surface(
    program: js_ast.Node, resolution: "Resolution | None" = None
) -> Surface:
    """Collect the addon's syntactic surface in one AST walk."""
    return nodes_surface([program], resolution=resolution)


def nodes_surface(
    roots: Iterable[js_ast.Node], resolution: "Resolution | None" = None
) -> Surface:
    """The combined syntactic surface of an arbitrary set of AST nodes
    (each walked recursively).

    This is :func:`addon_surface` generalized to *parts* of a program:
    the differential-vetting fast lane (``repro.diffvet.incremental``)
    uses it to over-approximate what a version update's *changed
    statements* can touch, with exactly the same collection rules — so
    the change-surface certificate inherits the prefilter's soundness
    argument for named access.

    ``resolution`` (whole-program callers only) demotes computed sites
    the resolver proved finite: their resolved names join the surface
    instead of tripping ``dynamic_properties``. It is keyed by node
    identity, so it must come from a pre-analysis of these same AST
    objects.
    """
    return scan_programs(roots).surface(resolution)


def _tag_names(tag: str) -> set[str]:
    """The names an addon must utter to reach a native with ``tag``.

    Dotted tags (``xhr.send``) are reached through a property read of
    the method name; bare tags (``XHRWrapper``, ``eval``) are global
    bindings reached by identifier. All components go in — extra names
    only cost precision (a skipped fast lane), never soundness.
    """
    return set(tag.split("."))


def spec_surface(spec: SecuritySpec) -> frozenset[str]:
    """Every name whose appearance in an addon could let some matcher
    of ``spec`` fire."""
    names: set[str] = set()
    for source in spec.sources:
        if isinstance(source, PropertySource):
            names.update(source.props)
        elif isinstance(source, CallSource):
            for tag in source.tags:
                names.update(_tag_names(tag))
        elif isinstance(source, ChannelSource):
            # A channel handler only ever registers through one of the
            # listener names the source declares (onMessage, ...): an
            # addon that never utters them cannot make the loop dispatch
            # the channel, so the matcher cannot fire.
            names.update(source.surface_names())
    for sink in spec.sinks:
        if isinstance(sink, NetworkSink):
            for tag, _rule in sink.rules:
                names.update(_tag_names(tag))
        elif isinstance(sink, PropertyWriteSink):
            names.update(sink.props)
    for api in spec.apis:
        for tag in api.tags:
            names.update(_tag_names(tag))
    return frozenset(names)


def _render_spans(spans: tuple[Span, ...], limit: int = 4) -> str:
    shown = ", ".join(
        f"{span.start.line}:{span.start.column}" for span in spans[:limit]
    )
    if len(spans) > limit:
        shown += f", +{len(spans) - limit} more"
    return shown


@dataclass(frozen=True)
class PrefilterDecision:
    """Whether the full analysis must run, and why."""

    relevant: bool
    #: ``"degraded-input"`` / ``"dynamic-code"`` / ``"dynamic-properties"``
    #: / ``"surface-overlap"`` when relevant; ``"no-overlap"`` otherwise.
    reason: str
    #: The names shared by addon and spec (empty unless surface-overlap).
    overlap: frozenset[str] = frozenset()
    #: Every dynamic-code construct the scan saw (where the fast lane
    #: died, when ``reason == "dynamic-code"``).
    dynamic_code_sites: tuple[Span, ...] = ()
    #: Every computed property access resolution could not bound.
    dynamic_property_sites: tuple[Span, ...] = ()
    #: Computed sites resolution *did* bound (demoted to named surface).
    resolved_sites: int = 0

    def render(self) -> str:
        if not self.relevant:
            suffix = (
                f" ({self.resolved_sites} computed site(s) resolved)"
                if self.resolved_sites
                else ""
            )
            return (
                "prefiltered: addon surface shares nothing with the spec"
                + suffix
            )
        detail = f" ({', '.join(sorted(self.overlap))})" if self.overlap else ""
        lines = [f"relevant: {self.reason}{detail}"]
        if self.dynamic_code_sites:
            lines.append(
                f"  dynamic code at {_render_spans(self.dynamic_code_sites)}"
            )
        if self.dynamic_property_sites:
            lines.append(
                "  unresolved computed properties at "
                f"{_render_spans(self.dynamic_property_sites)}"
            )
        if self.resolved_sites:
            lines.append(
                f"  {self.resolved_sites} computed site(s) resolved to named surface"
            )
        return "\n".join(lines)


def decide_relevance(
    program: js_ast.Node,
    spec: SecuritySpec,
    *,
    degraded: bool = False,
    resolution: "Resolution | None" = None,
) -> PrefilterDecision:
    """The prefilter decision for one parsed addon.

    ``degraded`` must be True when recovery-mode parsing skipped any
    statement: the AST under-approximates the addon, so no syntactic
    argument about it is sound and the full (widening) pipeline must
    run.
    """
    return decide_relevance_many(
        [program], spec, degraded=degraded, resolution=resolution
    )


def decide_relevance_many(
    programs: Iterable[js_ast.Node],
    spec: SecuritySpec,
    *,
    degraded: bool = False,
    resolution: "Resolution | None" = None,
    scan: ProgramScan | None = None,
) -> PrefilterDecision:
    """The prefilter decision over *several* parsed files at once.

    Used for multi-file extensions (``repro.webext``): the surface is
    the union across every component file, so a spec name uttered in
    *any* component disqualifies the fast lane for the whole bundle.
    The soundness argument is unchanged — the lowered program is built
    from exactly these ASTs, so every name the full analysis could
    resolve appears in one of them.

    ``resolution`` must come from a pre-analysis of these same parsed
    objects; resolved computed sites then count as named surface instead
    of disqualifying dynamism (sound because the resolver's name sets
    over-approximate the machine's key coercion — DESIGN.md §5j).

    ``scan`` is a :func:`scan_programs` of these same programs; given
    one, the decision reads the surface off it instead of walking the
    programs again.
    """
    if degraded:
        return PrefilterDecision(relevant=True, reason="degraded-input")
    if scan is not None:
        surface = scan.surface(resolution)
    else:
        surface = nodes_surface(programs, resolution=resolution)
    if surface.dynamic_code:
        return PrefilterDecision(
            relevant=True,
            reason="dynamic-code",
            dynamic_code_sites=surface.dynamic_code_sites,
            dynamic_property_sites=surface.dynamic_property_sites,
            resolved_sites=surface.resolved_sites,
        )
    if surface.dynamic_properties:
        return PrefilterDecision(
            relevant=True,
            reason="dynamic-properties",
            dynamic_property_sites=surface.dynamic_property_sites,
            resolved_sites=surface.resolved_sites,
        )
    overlap = surface.names & spec_surface(spec)
    if overlap:
        return PrefilterDecision(
            relevant=True,
            reason="surface-overlap",
            overlap=overlap,
            resolved_sites=surface.resolved_sites,
        )
    return PrefilterDecision(
        relevant=False, reason="no-overlap", resolved_sites=surface.resolved_sites
    )
