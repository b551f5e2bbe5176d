"""The slot-table traversals agree with a recursive reference.

``Node.children``, ``Node.walk`` and ``node_count`` read each class's
child slots from ``CHILD_SLOTS`` and walk with an explicit stack. The
reference below reads ``dataclasses.fields`` on every node and
recurses: on every corpus and on hypothesis-drawn programs the two must
yield the same node objects in the same order.
"""

from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.addons import CORPUS
from repro.api import front_end
from repro.corpusgen import generate_addon
from repro.js import ast, node_count
from repro.webext.loader import load_source
from tests.js.strategies import programs

REPO = Path(__file__).resolve().parents[2]
EXAMPLE_FILES = sorted((REPO / "examples" / "addons").glob("*.js"))
EXTENSION_DIRS = sorted(
    child
    for child in (REPO / "examples" / "extensions").iterdir()
    if (child / "manifest.json").exists()
)


def reference_children(node):
    for f in fields(node):
        if f.name == "position":
            continue
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def reference_walk(node):
    yield node
    for child in reference_children(node):
        yield from reference_walk(child)


def _same_objects(left, right) -> bool:
    left, right = list(left), list(right)
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


def assert_traversals_match(tree: ast.Node) -> None:
    expected = list(reference_walk(tree))
    assert _same_objects(tree.walk(), expected)
    assert node_count(tree) == len(expected)
    for node in expected:
        assert _same_objects(node.children(), reference_children(node)), node.kind


def _trees(source: str):
    trees, _skips = front_end(source).parse_files(source, recover=True)
    return trees


@pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
def test_curated_corpus(spec):
    for tree in _trees(spec.source()):
        assert_traversals_match(tree)


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_examples(path):
    for tree in _trees(path.read_text(encoding="utf-8")):
        assert_traversals_match(tree)


@pytest.mark.parametrize("root", EXTENSION_DIRS, ids=lambda p: p.name)
def test_extensions(root):
    for tree in _trees(load_source(root)):
        assert_traversals_match(tree)


_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(seed=st.integers(0, 5_000), index=st.integers(0, 7))
@_SETTINGS
def test_generated_addons(seed, index):
    for tree in _trees(generate_addon(seed, index).source):
        assert_traversals_match(tree)


@given(program=programs())
@_SETTINGS
def test_drawn_programs(program):
    assert_traversals_match(program)


def test_slot_table_lists_node_fields_only():
    # Strings, flags and name lists are not children.
    assert ast.CHILD_SLOTS[ast.Identifier] == ()
    assert ast.CHILD_SLOTS[ast.FunctionDeclaration] == (("body", False),)
    assert ast.CHILD_SLOTS[ast.CallExpression] == (
        ("arguments", True),
        ("callee", False),
    )
