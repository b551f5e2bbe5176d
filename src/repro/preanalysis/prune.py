"""Sound dead-function pruning (reference liveness, typed refusal).

What may be removed: a *top-level* ``function f() { ... }`` declaration
whose name is never referenced outside itself. The criterion is
deliberately *reference* liveness, not call-graph reachability: the
abstract interpreter only ever analyzes statements reachable from the
program entry, so a function that is never *entered* contributes no
states, no PDG nodes and no signature entries — but its *declaration*
statement still executes at the top level (it allocates the closure and
binds the global name). Removing it is invisible exactly when no live
statement mentions the name:

- no live statement reads the global binding (the only way the machine
  can observe the closure value — global bindings are variables, not
  window properties, so property reads cannot reach them);
- matchers fire only on statements the interpreter visits, and the
  pruned body was only visitable through such a read;
- signatures carry (source, flow type, sink, URL prefix) — nothing
  positional — so renumbering the surviving statements cannot shift the
  rendered artifact.

Mentions are identifier occurrences plus the *resolved* names of
computed property sites (defense in depth; see below). The closure is a
fixpoint because a pruned candidate's own body may hold the only
mention of another candidate.

Typed refusal, mirroring the prefilter's discipline — pruning declines
entirely when any syntactic bound on "mention" is unsound or
incomplete:

- ``degraded-input`` — recovery dropped statements; the AST
  under-approximates the program, so absence-of-mention proves nothing;
- ``dynamic-code`` — ``eval``/``Function``/string timers can mention
  any name at runtime;
- ``dynamic-properties`` — a computed property site the resolver could
  not bound remains; today's machine cannot reach a global function
  through a property read, but refusing keeps the pruning argument
  independent of that machine detail (and costs nothing: such addons
  already take the slow lane).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.js import ast as js_ast

if TYPE_CHECKING:
    from repro.lint.surface import ProgramScan

#: Refusal reasons, in decision order.
REASON_OK = "ok"
REASON_DEGRADED = "degraded-input"
REASON_DYNAMIC_CODE = "dynamic-code"
REASON_DYNAMIC_PROPERTIES = "dynamic-properties"


@dataclass(frozen=True)
class PruneDecision:
    """Whether pruning ran, and if not, why it refused."""

    pruned: bool
    reason: str

    def render(self) -> str:
        if self.pruned:
            return "pruning: enabled"
        return f"pruning refused: {self.reason}"


@dataclass(frozen=True)
class PruneResult:
    """The pruned program set plus accounting."""

    programs: tuple[js_ast.Program, ...]
    decision: PruneDecision
    #: AST nodes removed (0 when refused or nothing was dead).
    pruned_nodes: int
    #: Names of the removed top-level functions, for reports.
    removed: tuple[str, ...] = ()


def prune_programs(
    programs: tuple[js_ast.Program, ...],
    *,
    degraded: bool,
    dynamic_code: bool,
    residual_dynamic_sites: int,
    resolved: dict[int, frozenset[str]] | None = None,
    scan: "ProgramScan | None" = None,
) -> PruneResult:
    """Prune unreferenced top-level function declarations across a
    (possibly multi-file) program, or refuse with a typed reason.

    Liveness is computed over the *union* of all files: webext bundles
    conflate the global scope when lowered, so a name mentioned in any
    component keeps the declaration in every component.

    A statement's mentions are its identifiers, static property names,
    object-literal keys, and the ``resolved`` name sets of its computed
    property sites. They come from ``scan`` (a
    :func:`repro.lint.surface.scan_programs` of ``programs``), which is
    walked here when not given.
    """
    if degraded:
        decision = PruneDecision(pruned=False, reason=REASON_DEGRADED)
        return PruneResult(programs=programs, decision=decision, pruned_nodes=0)
    if dynamic_code:
        decision = PruneDecision(pruned=False, reason=REASON_DYNAMIC_CODE)
        return PruneResult(programs=programs, decision=decision, pruned_nodes=0)
    if residual_dynamic_sites:
        decision = PruneDecision(pruned=False, reason=REASON_DYNAMIC_PROPERTIES)
        return PruneResult(programs=programs, decision=decision, pruned_nodes=0)
    resolved = resolved if resolved is not None else {}
    if scan is None:
        from repro.lint.surface import scan_programs

        scan = scan_programs(programs)

    # Candidates: top-level declarations. Two candidates may share a
    # name (later one wins at runtime); liveness treats the name once —
    # mentioned keeps both, unmentioned prunes both.
    if not scan.declarations:
        decision = PruneDecision(pruned=True, reason=REASON_OK)
        return PruneResult(programs=programs, decision=decision, pruned_nodes=0)
    mentions = scan.mentions_with(resolved)
    # The scan gives every candidate its own mention set (in walk
    # order) and folds all other top-level statements into entry 0.
    candidates = [
        (declaration, mentions[unit], size)
        for unit, (declaration, size) in enumerate(scan.declarations, start=1)
    ]
    candidate_names = {declaration.name for declaration, _m, _s in candidates}

    # Fixpoint: a candidate is live when its name is mentioned by any
    # live statement. Non-candidate top-level statements are always
    # live; a live candidate's body counts as live code (it may hold the
    # only mention of another candidate).
    live_names: set[str] = set()
    frontier = candidate_names & mentions[0]
    while frontier:
        live_names.update(frontier)
        newly: set[str] = set()
        for declaration, body_mentions, _size in candidates:
            if declaration.name in live_names:
                newly.update(body_mentions)
        frontier = (candidate_names & newly) - live_names

    sizes = {id(declaration): size for declaration, _m, size in candidates}
    removed: list[str] = []
    pruned_nodes = 0
    new_programs: list[js_ast.Program] = []
    for program in programs:
        body: list[js_ast.Statement] = []
        changed = False
        for statement in program.body:
            if (
                isinstance(statement, js_ast.FunctionDeclaration)
                and statement.name not in live_names
            ):
                removed.append(statement.name)
                pruned_nodes += sizes[id(statement)]
                changed = True
            else:
                body.append(statement)
        new_programs.append(replace(program, body=body) if changed else program)

    decision = PruneDecision(pruned=True, reason=REASON_OK)
    return PruneResult(
        programs=tuple(new_programs),
        decision=decision,
        pruned_nodes=pruned_nodes,
        removed=tuple(sorted(removed)),
    )
