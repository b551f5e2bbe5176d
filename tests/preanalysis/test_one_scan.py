"""One walk between parsing and lowering.

``vet`` scans the parsed files once (``repro.lint.surface
.scan_programs``) and derives the prefilter surface, computed-property
resolution, pruning and ``ast_nodes`` from that scan. These tests pin
the scan to what separate walks compute, keep the advisory call graph
off the vetting path, and count child expansions so that a new walk
before lowering fails CI.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api as api
import repro.webext.pipeline as webext_pipeline
from repro.addons import CORPUS
from repro.api import front_end, vet
from repro.corpusgen import generate_addon
from repro.js import ast as js_ast
from repro.lint.surface import decide_relevance_many, scan_programs
from repro.preanalysis import build_callgraph
from repro.webext.loader import load_source

pytestmark = pytest.mark.preanalysis

REPO = Path(__file__).resolve().parents[2]
EXAMPLE_FILES = sorted((REPO / "examples" / "addons").glob("*.js"))
EXTENSION_DIRS = sorted(
    child
    for child in (REPO / "examples" / "extensions").iterdir()
    if (child / "manifest.json").exists()
)

SOURCES = (
    [pytest.param(spec.source(), id=spec.name) for spec in CORPUS]
    + [
        pytest.param(path.read_text(encoding="utf-8"), id=path.name)
        for path in EXAMPLE_FILES
    ]
    + [pytest.param(load_source(root), id=root.name) for root in EXTENSION_DIRS]
)

_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _parsed(source: str):
    front = front_end(source)
    trees, skips = front.parse_files(source, recover=True)
    return front, trees, bool(skips)


# ----------------------------------------------------------------------
# The prefilter decision read off the shared scan


def assert_decisions_match(source: str) -> None:
    front, _trees, _degraded = _parsed(source)
    spec = front.default_spec()
    on = vet(source, prefilter=True, recover=True)
    trees = on.preanalysis.inputs
    degraded = bool(on.degradations)
    assert on.prefilter_decision == decide_relevance_many(
        trees, spec, degraded=degraded, resolution=on.preanalysis.resolution
    )
    off = vet(source, prefilter=True, recover=True, preanalysis=False)
    _front, trees, degraded = _parsed(source)
    assert off.prefilter_decision == decide_relevance_many(
        trees, spec, degraded=degraded
    )
    assert on.ast_nodes == off.ast_nodes == sum(
        js_ast.node_count(tree) for tree in trees
    )


@pytest.mark.parametrize("source", SOURCES)
def test_prefilter_decision_matches_a_fresh_walk(source):
    assert_decisions_match(source)


@given(seed=st.integers(0, 5_000), index=st.integers(0, 7))
@_SETTINGS
def test_prefilter_decision_matches_on_generated_addons(seed, index):
    assert_decisions_match(generate_addon(seed, index).source)


# ----------------------------------------------------------------------
# The constant-string constraints read off the shared scan


def reference_constraints(programs):
    """The constant-string collection rules as a walk of their own."""
    blocked: set[str] = set()
    constraints = []
    for program in programs:
        for node in program.walk():
            if isinstance(node, js_ast.VariableDeclarator):
                constraints.append((node.name, node.init))
            elif isinstance(node, js_ast.AssignmentExpression):
                if isinstance(node.target, js_ast.Identifier):
                    if node.operator == "=":
                        constraints.append((node.target.name, node.value))
                    else:
                        blocked.add(node.target.name)
            elif isinstance(node, js_ast.UpdateExpression):
                if isinstance(node.argument, js_ast.Identifier):
                    blocked.add(node.argument.name)
            elif isinstance(node, js_ast.ForInStatement):
                blocked.add(node.variable)
            elif isinstance(
                node, (js_ast.FunctionDeclaration, js_ast.FunctionExpression)
            ):
                blocked.update(node.params)
                if node.name:
                    blocked.add(node.name)
            elif isinstance(node, js_ast.CatchClause):
                blocked.add(node.param)
    return constraints, blocked


def assert_constraints_match(source: str) -> None:
    _front, trees, _degraded = _parsed(source)
    scan = scan_programs(trees)
    constraints, blocked = reference_constraints(trees)
    assert scan.blocked == blocked
    assert [(name, id(expr)) for name, expr in scan.constraints] == [
        (name, id(expr)) for name, expr in constraints
    ]


@pytest.mark.parametrize("source", SOURCES)
def test_constraints_match_the_solver_walk(source):
    assert_constraints_match(source)


@given(seed=st.integers(0, 5_000), index=st.integers(0, 7))
@_SETTINGS
def test_constraints_match_on_generated_addons(seed, index):
    assert_constraints_match(generate_addon(seed, index).source)


# ----------------------------------------------------------------------
# The call graph stays off the vetting path

SINGLE = (REPO / "examples" / "addons" / "shortcut_palette.js").read_text(
    encoding="utf-8"
)
BUNDLE = load_source(REPO / "examples" / "extensions" / "cookie_exfil")


def _refuse(*_args, **_kwargs):
    raise AssertionError("vet built the call graph")


@pytest.mark.parametrize("source", [SINGLE, BUNDLE], ids=["single", "bundle"])
@pytest.mark.parametrize("prefilter", [False, True])
def test_vet_never_builds_the_call_graph(monkeypatch, source, prefilter):
    with monkeypatch.context() as patch:
        patch.setattr("repro.preanalysis.pipeline.build_callgraph", _refuse)
        report = vet(source, prefilter=prefilter)
    assert "callgraph_edges" not in report.counters
    # Asked for afterwards (vet --explain does), it is built then.
    expected = build_callgraph(report.preanalysis.inputs)
    assert report.preanalysis.callgraph.edges == expected.edges
    assert report.preanalysis.callgraph == expected


# ----------------------------------------------------------------------
# Each node is expanded at most once between parsing and lowering


class _CountingSlots(dict):
    """Stands in for ``CHILD_SLOTS`` and counts lookups per node class
    while ``active``."""

    def __init__(self, real):
        super().__init__()
        self.real = real
        self.counts: Counter = Counter()
        self.active = False

    def __getitem__(self, cls):
        if self.active:
            self.counts[cls] += 1
        return self.real[cls]


def _between(monkeypatch, counting, module, name, *, starts):
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        if not starts:
            counting.active = False
        result = original(*args, **kwargs)
        if starts:
            counting.active = True
        return result

    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("source", [SINGLE, BUNDLE], ids=["single", "bundle"])
@pytest.mark.parametrize("preanalysis", [True, False])
@pytest.mark.parametrize("prefilter", [True, False])
def test_each_node_is_expanded_at_most_once_before_lowering(
    monkeypatch, source, preanalysis, prefilter
):
    _front, trees, _degraded = _parsed(source)
    per_class = Counter(type(node) for tree in trees for node in tree.walk())

    counting = _CountingSlots(js_ast.CHILD_SLOTS)
    monkeypatch.setattr(js_ast, "CHILD_SLOTS", counting)
    # Count from the end of parsing to the start of lowering.
    _between(monkeypatch, counting, api, "parse", starts=True)
    _between(monkeypatch, counting, webext_pipeline, "parse_extension", starts=True)
    _between(monkeypatch, counting, api, "lower", starts=False)
    _between(
        monkeypatch, counting, webext_pipeline, "lower_parsed_extension",
        starts=False,
    )
    report = vet(source, prefilter=prefilter, preanalysis=preanalysis)

    assert report.ast_nodes == sum(per_class.values())
    assert counting.counts, "the scan did not run"
    for cls, expansions in counting.counts.items():
        assert expansions <= per_class[cls], cls.__name__
