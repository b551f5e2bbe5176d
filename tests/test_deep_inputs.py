"""Deeply nested benign input survives everything before lowering.

Each shape below names nothing in the spec, so with the prefilter on
``vet`` answers it without lowering: parse, the pre-lowering scan,
resolution, pruning and the prefilter must all cope with the depth. The
traversals keep an explicit stack, so the depth is bounded by memory,
not by Python's recursion limit. (Once a spec name forces the full
analysis, lowering still recurses; that is a separate limit.)
"""

import pytest

from repro.api import vet
from repro.js import node_count, parse

pytestmark = pytest.mark.faults

#: name -> (source, AST node count)
DEEP_SHAPES = {
    # Program, var declaration, declarator, 3000 array literals.
    "arrays-3000": ("var a = " + "[" * 3000 + "]" * 3000 + ";", 3003),
    # 4 nodes of `var x = 0;` with the Program, 3 per `if (x) {`, 4 in
    # `x = 1;`.
    "ifs-1500": (
        "var x = 0;\n" + "if (x) {\n" * 1500 + "x = 1;\n" + "}\n" * 1500,
        4508,
    ),
    # Program, then a declaration and its block per level.
    "functions-800": ("function f() {\n" * 800 + "}\n" * 800, 1601),
}


@pytest.mark.parametrize("name", sorted(DEEP_SHAPES))
def test_deep_benign_input_is_prefiltered(name):
    source, nodes = DEEP_SHAPES[name]
    report = vet(source, prefilter=True)
    assert report.prefiltered
    assert report.ast_nodes == nodes
    assert not report.signature.entries


@pytest.mark.parametrize("name", sorted(DEEP_SHAPES))
def test_deep_benign_input_without_preanalysis(name):
    source, nodes = DEEP_SHAPES[name]
    report = vet(source, prefilter=True, preanalysis=False)
    assert report.prefiltered
    assert report.ast_nodes == nodes


@pytest.mark.parametrize("name", sorted(DEEP_SHAPES))
def test_node_count_and_walk_of_deep_trees(name):
    source, nodes = DEEP_SHAPES[name]
    tree = parse(source)
    assert node_count(tree) == nodes
    assert sum(1 for _ in tree.walk()) == nodes
