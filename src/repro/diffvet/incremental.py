"""The incremental fast lane: certify ``signature(new) == signature(old)``
without re-running the interpreter.

At marketplace scale, *updates* dominate vetting traffic, and most
updates are boring: comment and formatting churn, version-string bumps,
UI tweaks nowhere near a source or a sink. For those, re-running the
whole abstract interpretation only to rediscover the approved signature
is wasted work. This module computes a **change-surface certificate**:
a syntactic proof that an update cannot have changed the inferred
signature, in the refusal-discipline style of the PR-3 relevance
prefilter (``repro.lint.surface``) — every condition that the argument
needs is checked, and any doubt refuses the fast lane (sound fallback
to full re-analysis), never the other way around.

The certificate holds when **all** of the following do:

0. *Single files.* Neither version is a WebExtension bundle: the
   argument is over one JavaScript file's top-level statements
   (``refused:webext-bundle``).
1. *Clean inputs.* Both versions parse completely — recovery-mode skips
   mean the AST under-approximates the program, so no syntactic
   argument about it is sound (``degraded-input``), and a parse error
   means there is nothing to argue about (``parse-error``).
2. *No dynamic features, anywhere, in either version.* Dynamic code
   (``eval`` / ``Function`` / string timers) or a computed property
   access with a non-literal key gives the program an unbounded surface
   that could read or write the changed region without naming it
   (``dynamic-code`` / ``dynamic-properties``). Checked over the whole
   program, not just the change — the *unchanged* half is what might
   reach in.
3. *Straight-line change.* No changed statement contains a loop,
   ``throw``, ``try``, ``switch``, ``break``/``continue``, or label
   (``control-flow-change``), and no call or ``new`` expression
   (``call-in-change``): a constant-condition loop, a thrown exception,
   or a call bottoming out in unbounded recursion could make the *rest*
   of the program unreachable, shrinking the signature without touching
   any name. (``if`` is fine — its exit state is the join of both
   branches, so it never severs reachability.)
4. *Spec-disjoint change.* The changed statements' syntactic surface
   (``repro.lint.surface.nodes_surface`` — identifiers, static property
   names, declared names, object keys, on both the deleted old
   statements and the inserted new ones) shares no name with the spec
   surface (``spec-overlap``): no matcher of the spec can fire on a
   changed statement.
5. *Isolated change.* The change surface also shares no name with the
   surface of the *unchanged* statements (``shared-names``). In the
   analyzable subset, with dynamic features already excluded, data
   moves between statements only through named variables and named
   properties — so a name-disjoint change is an island: no value
   computed in it can reach an unchanged statement, and no value from
   outside can reach it.

Under 0–5, every statement that any spec matcher can fire on is
unchanged *and* computes over exactly the values it computed over in
the approved version; the inferred signature — entries and prefix
domains both — is therefore identical, and the approved signature can
be served as the update's signature. The claim is proven bit-for-bit
against full re-analysis over every versioned pair in the corpus in
``tests/diffvet/test_incremental_soundness.py``.

Statement-level change detection uses the canonical AST printer
(``repro.js.printer``): two statements are "the same" when their
canonical renderings are equal, which makes the certificate immune to
comment, whitespace, and formatting churn by construction.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from repro.js import ast as js_ast
from repro.js import parse, parse_with_recovery
from repro.js.printer import print_statement
from repro.lint.surface import nodes_surface, scan_programs, spec_surface
from repro.signatures.spec import SecuritySpec
from repro.webext.loader import is_bundle_text

#: Statement forms a changed statement may not contain (recursively):
#: each can sever the reachability of *unchanged* code, which would
#: shrink the signature without any name overlap.
_CONTROL_FLOW = (
    js_ast.WhileStatement,
    js_ast.DoWhileStatement,
    js_ast.ForStatement,
    js_ast.ForInStatement,
    js_ast.ThrowStatement,
    js_ast.TryStatement,
    js_ast.SwitchStatement,
    js_ast.BreakStatement,
    js_ast.ContinueStatement,
    js_ast.LabeledStatement,
)

#: Certificate / refusal reasons (the closed vocabulary; stable wire
#: strings used in outcomes, reports, and the golden files).
CERTIFIED_NO_CHANGE = "no-change"
CERTIFIED_ISOLATED = "isolated-change"
REFUSED_PARSE_ERROR = "parse-error"
REFUSED_DEGRADED = "degraded-input"
REFUSED_DYNAMIC_CODE = "dynamic-code"
REFUSED_DYNAMIC_PROPERTIES = "dynamic-properties"
REFUSED_CONTROL_FLOW = "control-flow-change"
REFUSED_CALL = "call-in-change"
REFUSED_SPEC_OVERLAP = "spec-overlap"
REFUSED_SHARED_NAMES = "shared-names"
REFUSED_WEBEXT_BUNDLE = "refused:webext-bundle"


@dataclass(frozen=True)
class ChangeCertificate:
    """The fast-lane decision for one ``(old, new)`` source pair."""

    #: True when the signature provably did not change.
    certified: bool
    #: Why: a ``CERTIFIED_*`` reason when certified, a ``REFUSED_*``
    #: reason otherwise.
    reason: str
    #: Top-level statements that changed (old side removed + new side
    #: inserted); 0 for comment/formatting-only updates.
    changed_statements: int = 0
    #: The offending names for ``spec-overlap`` / ``shared-names``
    #: refusals (sorted, possibly truncated upstream when rendered).
    overlap: frozenset[str] = frozenset()
    #: AST node count of the *new* version (free by-product of the
    #: certificate parse; lets the fast lane fill outcome metadata
    #: without re-parsing).
    new_ast_nodes: int = 0

    def render(self) -> str:
        if self.certified:
            return (
                f"certified ({self.reason}): signature provably unchanged "
                f"across {self.changed_statements} changed statement(s)"
            )
        detail = (
            f" ({', '.join(sorted(self.overlap))})" if self.overlap else ""
        )
        return f"refused ({self.reason}{detail}): full re-analysis required"

    def to_json(self) -> dict:
        return {
            "certified": self.certified,
            "reason": self.reason,
            "changed_statements": self.changed_statements,
            "overlap": sorted(self.overlap),
        }


@dataclass(frozen=True)
class ChangeSurface:
    """The statement-level difference between two program versions."""

    removed: tuple[js_ast.Statement, ...]
    inserted: tuple[js_ast.Statement, ...]
    unchanged_old: tuple[js_ast.Statement, ...]
    unchanged_new: tuple[js_ast.Statement, ...]

    @property
    def changed(self) -> tuple[js_ast.Statement, ...]:
        return self.removed + self.inserted

    @property
    def is_empty(self) -> bool:
        return not self.changed


def change_surface(
    old_program: js_ast.Program, new_program: js_ast.Program
) -> ChangeSurface:
    """Diff two programs at top-level-statement granularity.

    Statements are matched by canonical rendering
    (:func:`repro.js.printer.print_statement`), so formatting and
    comment changes produce an empty change surface, and a moved-but-
    identical statement matches rather than counting as a change.
    """
    old_text = [print_statement(stmt) for stmt in old_program.body]
    new_text = [print_statement(stmt) for stmt in new_program.body]
    matcher = difflib.SequenceMatcher(a=old_text, b=new_text, autojunk=False)
    removed: list[js_ast.Statement] = []
    inserted: list[js_ast.Statement] = []
    unchanged_old: list[js_ast.Statement] = []
    unchanged_new: list[js_ast.Statement] = []
    for op, old_lo, old_hi, new_lo, new_hi in matcher.get_opcodes():
        if op == "equal":
            unchanged_old.extend(old_program.body[old_lo:old_hi])
            unchanged_new.extend(new_program.body[new_lo:new_hi])
        else:
            removed.extend(old_program.body[old_lo:old_hi])
            inserted.extend(new_program.body[new_lo:new_hi])
    return ChangeSurface(
        removed=tuple(removed),
        inserted=tuple(inserted),
        unchanged_old=tuple(unchanged_old),
        unchanged_new=tuple(unchanged_new),
    )


def _parse_clean(
    source: str, recover: bool
) -> tuple[js_ast.Program | None, str | None]:
    """Parse one version for certification. Returns ``(program, None)``
    on a complete parse, ``(None, refusal-reason)`` otherwise."""
    try:
        if recover:
            program, skipped = parse_with_recovery(source)
            if skipped:
                return None, REFUSED_DEGRADED
            return program, None
        return parse(source), None
    except Exception:
        return None, REFUSED_PARSE_ERROR


def certify_unchanged(
    old_source: str,
    new_source: str,
    spec: SecuritySpec,
    *,
    recover: bool = False,
) -> ChangeCertificate:
    """Decide the incremental fast lane for one update.

    Never raises: every anomaly (unparseable version, recovery skip,
    dynamic feature, entangled change) is a *refusal*, and a refusal
    just means the caller runs the full pipeline — the same sound
    degradation discipline as the relevance prefilter.
    """
    if is_bundle_text(old_source) or is_bundle_text(new_source):
        return ChangeCertificate(certified=False, reason=REFUSED_WEBEXT_BUNDLE)
    old_program, refusal = _parse_clean(old_source, recover)
    if old_program is None:
        return ChangeCertificate(certified=False, reason=refusal or REFUSED_PARSE_ERROR)
    new_program, refusal = _parse_clean(new_source, recover)
    if new_program is None:
        return ChangeCertificate(certified=False, reason=refusal or REFUSED_PARSE_ERROR)
    new_scan = scan_programs([new_program])
    new_ast_nodes = new_scan.node_count

    old_whole = nodes_surface([old_program])
    new_whole = new_scan.surface()
    if old_whole.dynamic_code or new_whole.dynamic_code:
        return ChangeCertificate(
            certified=False, reason=REFUSED_DYNAMIC_CODE,
            new_ast_nodes=new_ast_nodes,
        )
    if old_whole.dynamic_properties or new_whole.dynamic_properties:
        return ChangeCertificate(
            certified=False, reason=REFUSED_DYNAMIC_PROPERTIES,
            new_ast_nodes=new_ast_nodes,
        )

    surface = change_surface(old_program, new_program)
    changed_count = len(surface.changed)
    if surface.is_empty:
        return ChangeCertificate(
            certified=True, reason=CERTIFIED_NO_CHANGE,
            changed_statements=0, new_ast_nodes=new_ast_nodes,
        )

    for stmt in surface.changed:
        for node in stmt.walk():
            if isinstance(node, _CONTROL_FLOW):
                return ChangeCertificate(
                    certified=False, reason=REFUSED_CONTROL_FLOW,
                    changed_statements=changed_count,
                    new_ast_nodes=new_ast_nodes,
                )
            if isinstance(node, (js_ast.CallExpression, js_ast.NewExpression)):
                # A call in the change could bottom out in unbounded
                # recursion — reachability severed with no loop syntax
                # and no name overlap. Straight-line means call-free.
                return ChangeCertificate(
                    certified=False, reason=REFUSED_CALL,
                    changed_statements=changed_count,
                    new_ast_nodes=new_ast_nodes,
                )

    change_names = nodes_surface(surface.changed).names
    spec_overlap = change_names & spec_surface(spec)
    if spec_overlap:
        return ChangeCertificate(
            certified=False, reason=REFUSED_SPEC_OVERLAP,
            changed_statements=changed_count, overlap=frozenset(spec_overlap),
            new_ast_nodes=new_ast_nodes,
        )
    remainder_names = nodes_surface(
        surface.unchanged_old + surface.unchanged_new
    ).names
    shared = change_names & remainder_names
    if shared:
        return ChangeCertificate(
            certified=False, reason=REFUSED_SHARED_NAMES,
            changed_statements=changed_count, overlap=frozenset(shared),
            new_ast_nodes=new_ast_nodes,
        )
    return ChangeCertificate(
        certified=True, reason=CERTIFIED_ISOLATED,
        changed_statements=changed_count, new_ast_nodes=new_ast_nodes,
    )
