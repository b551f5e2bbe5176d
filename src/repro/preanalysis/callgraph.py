"""Andersen-style (flow- and context-insensitive) call graph.

Function values propagate through *name bindings*: ``function f(){}``
binds ``f``; ``var g = function(){}`` and ``g = function(){}`` bind
``g``; ``obj.m = function(){}`` and ``{m: function(){}}`` bind the
property name ``m``; a named function expression binds its own name for
recursion. A call site's callee set is then every function its callee
*name* can denote (for ``x.m()``, every function bound to property name
``m`` anywhere — the Andersen collapse of field-sensitivity onto field
*names*).

Reachability is reference-closure from the top level: a function is
reachable when it is referenced — called, passed as an argument (event
or message handler registration), assigned, or mentioned — from
top-level code or from inside another reachable function. The event
loop needs no special casing under this rule: a handler can only be
dispatched after a registration call mentions it (by name or inline),
which is exactly a reference from reachable code. A *declaration* whose
name is never mentioned in reachable code is therefore invokable by
nothing — the basis for the CG001 lint rule and the same criterion the
pruning pass re-derives (over the weaker "referenced anywhere" closure;
see :mod:`repro.preanalysis.prune`).

The graph is advisory for lint and counters. The *pruning* decision
deliberately does not consume reachability — only the reference-liveness
fixpoint — because removing a referenced-but-unreachable declaration
would change what the lowered program's statements mention.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.lint.rules import callee_name, static_property_name

FunctionNode = js_ast.FunctionDeclaration | js_ast.FunctionExpression

#: Virtual caller id for top-level code.
TOP_LEVEL = -1


@dataclass(frozen=True)
class FunctionInfo:
    """One function in the table."""

    fid: int
    name: str | None
    kind: str  # "declaration" | "expression"
    span: Span
    node_count: int


@dataclass(frozen=True)
class CallSite:
    """One call/new expression and the functions it can invoke."""

    caller: int  # fid of the enclosing function, or TOP_LEVEL
    callee_name: str | None  # identifier or static property name, if any
    callees: frozenset[int]
    span: Span


@dataclass
class CallGraph:
    """The solved call graph of one (possibly multi-file) program."""

    functions: tuple[FunctionInfo, ...] = ()
    sites: tuple[CallSite, ...] = ()
    #: fids referenced (transitively) from top-level code — the
    #: functions *some* execution of the machine could ever enter.
    reachable: frozenset[int] = frozenset()
    #: Names bound to at least one function value.
    bound_names: frozenset[str] = frozenset()
    #: All names the program binds in any way (vars, params, catch,
    #: for-in, function names) — a call to a name outside this set and
    #: outside the environment cannot invoke anything but UNDEF.
    program_bindings: frozenset[str] = frozenset()

    @property
    def edges(self) -> int:
        return sum(len(site.callees) for site in self.sites)

    def unreachable_declarations(self) -> list[FunctionInfo]:
        """Named functions no reachable code references (CG001)."""
        return [
            info
            for info in self.functions
            if info.name is not None and info.fid not in self.reachable
        ]


def _span(node: js_ast.Node) -> Span:
    return Span.at(node.position)


def build_callgraph(programs: Iterable[js_ast.Program]) -> CallGraph:
    """Solve the call graph of ``programs`` in one explicit-stack walk
    (deep nesting needs no recursion) plus a reachability closure."""
    programs = tuple(programs)
    slots_of = js_ast.CHILD_SLOTS
    nodes: list[FunctionNode] = []  # fid -> function node
    entry_count: list[int] = []  # fid -> nodes walked before it
    sizes: list[int] = []  # fid -> node count of its subtree
    fid_of: dict[int, int] = {}  # id(ast node) -> fid
    # Name bindings: which names can denote which function values. A
    # bound expression is walked after its binder, so its fid is looked
    # up once the walk is over.
    bound_to: dict[str, set[int]] = {}
    bindings: list[tuple[str, js_ast.Expression]] = []
    program_bindings: set[str] = set()
    # Ownership: the enclosing *declaration* region of every node. A
    # function expression's body belongs to the region that contains it
    # (it can run whenever that region runs); a nested declaration opens
    # its own region (it runs only if something references its name).
    # A function expression is *activated* with its region; a nested
    # declaration is activated when its name is referenced from an
    # active region. References are identifier mentions plus property
    # names that some binding ties to a function.
    mentions: dict[int, set[str]] = {}  # region -> names mentioned
    inline: dict[int, set[int]] = {}  # region -> expression fids inside it
    calls: list[tuple[js_ast.CallExpression | js_ast.NewExpression, int]] = []
    count = 0

    for program in programs:
        # Entries are (node, region); (None, fid) closes function fid.
        stack: list[tuple[js_ast.Node | None, int]] = [(program, TOP_LEVEL)]
        while stack:
            node, region = stack.pop()
            if node is None:
                sizes[region] = count - entry_count[region]
                continue
            count += 1
            cls = type(node)
            if cls is js_ast.Identifier:
                mentions.setdefault(region, set()).add(node.name)
            elif cls is js_ast.MemberExpression:
                prop = static_property_name(node)
                if prop is not None:
                    mentions.setdefault(region, set()).add(prop)
            elif cls is js_ast.FunctionDeclaration or cls is js_ast.FunctionExpression:
                fid = len(nodes)
                fid_of[id(node)] = fid
                nodes.append(node)
                entry_count.append(count - 1)
                sizes.append(0)
                program_bindings.update(node.params)
                if cls is js_ast.FunctionDeclaration or node.name:
                    bound_to.setdefault(node.name, set()).add(fid)
                    program_bindings.add(node.name)
                if cls is js_ast.FunctionDeclaration:
                    region = fid
                else:
                    inline.setdefault(region, set()).add(fid)
                stack.append((None, fid))
            elif cls is js_ast.VariableDeclarator:
                program_bindings.add(node.name)
                if node.init is not None:
                    bindings.append((node.name, node.init))
            elif cls is js_ast.AssignmentExpression:
                if isinstance(node.target, js_ast.Identifier):
                    program_bindings.add(node.target.name)
                    bindings.append((node.target.name, node.value))
                elif isinstance(node.target, js_ast.MemberExpression):
                    prop = static_property_name(node.target)
                    if prop is not None:
                        bindings.append((prop, node.value))
            elif cls is js_ast.Property:
                bindings.append((node.key, node.value))
            elif cls is js_ast.ForInStatement:
                program_bindings.add(node.variable)
            elif cls is js_ast.CatchClause:
                program_bindings.add(node.param)
            elif cls is js_ast.CallExpression or cls is js_ast.NewExpression:
                calls.append((node, region))
            for name, many in slots_of[cls]:
                value = getattr(node, name)
                if many:
                    stack.extend((child, region) for child in reversed(value))
                elif value is not None:
                    stack.append((value, region))

    for name, target in bindings:
        if isinstance(target, js_ast.FunctionExpression):
            bound_to.setdefault(name, set()).add(fid_of[id(target)])

    functions = tuple(
        FunctionInfo(
            fid=fid,
            name=node.name or None,
            kind=(
                "declaration"
                if isinstance(node, js_ast.FunctionDeclaration)
                else "expression"
            ),
            span=_span(node),
            node_count=sizes[fid],
        )
        for fid, node in enumerate(nodes)
    )

    reachable: set[int] = set()
    frontier = [TOP_LEVEL]
    while frontier:
        region = frontier.pop()
        for fid in inline.get(region, ()):
            if fid not in reachable:
                reachable.add(fid)
                frontier.append(fid)
        # A mention only activates *declarations*: a function expression
        # value exists only after the statement carrying it ran, i.e.
        # after the inline rule already activated it with its region.
        for name in mentions.get(region, ()):
            for fid in bound_to.get(name, ()):
                if fid not in reachable and isinstance(
                    nodes[fid], js_ast.FunctionDeclaration
                ):
                    reachable.add(fid)
                    frontier.append(fid)

    # ------------------------------------------------------------------
    # Call sites.
    sites: list[CallSite] = []
    for node, region in calls:
        name = callee_name(node.callee)
        callees: frozenset[int]
        if isinstance(node.callee, js_ast.FunctionExpression):
            callees = frozenset({fid_of[id(node.callee)]})
        elif name is not None:
            callees = frozenset(bound_to.get(name, ()))
        else:
            callees = frozenset()
        sites.append(
            CallSite(caller=region, callee_name=name, callees=callees, span=_span(node))
        )

    return CallGraph(
        functions=functions,
        sites=tuple(sites),
        reachable=frozenset(reachable),
        bound_names=frozenset(bound_to),
        program_bindings=frozenset(program_bindings),
    )
