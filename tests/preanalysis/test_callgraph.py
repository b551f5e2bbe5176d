"""The Andersen-style call graph and the CG lint rules on top of it."""

import pytest

from repro.js import ast as js_ast
from repro.js.parser import parse
from repro.lint import lint_source
from repro.preanalysis import build_callgraph

pytestmark = pytest.mark.preanalysis


def _graph(source: str):
    return build_callgraph((parse(source),))


def _rules_of(source: str) -> list[str]:
    return [finding.rule for finding in lint_source(source)]


class TestCalleeSets:
    def test_direct_call_resolves_to_the_declaration(self):
        graph = _graph("function f() { return 1; }\nvar x = f();")
        [site] = graph.sites
        assert site.callee_name == "f"
        assert len(site.callees) == 1
        assert graph.edges == 1

    def test_function_valued_variable(self):
        graph = _graph("var g = function () { return 2; };\nvar x = g();")
        [site] = graph.sites
        assert site.callee_name == "g"
        assert len(site.callees) == 1

    def test_property_call_collapses_on_the_name(self):
        graph = _graph(
            "var api = { run: function () {} };\n"
            "var alt = { run: function () {} };\n"
            "api.run();"
        )
        [site] = graph.sites
        assert site.callee_name == "run"
        # Andersen field-name collapse: both `run` bindings qualify.
        assert len(site.callees) == 2

    def test_unbound_name_has_empty_callee_set(self):
        graph = _graph("ghost();")
        [site] = graph.sites
        assert site.callee_name == "ghost"
        assert site.callees == frozenset()


class TestReachability:
    def test_transitive_reference_reaches(self):
        graph = _graph(
            "function inner() {}\n"
            "function outer() { inner(); }\n"
            "outer();"
        )
        assert graph.reachable == {0, 1}
        assert graph.unreachable_declarations() == []

    def test_unreferenced_declaration_is_unreachable(self):
        graph = _graph("function dead() {}\nvar x = 1;")
        [info] = graph.unreachable_declarations()
        assert info.name == "dead"

    def test_handler_registration_counts_as_a_reference(self):
        # An event-loop handler is only dispatchable after a
        # registration call mentions it: no CG001 false positive.
        graph = _graph(
            "function onTick() {}\n"
            "setTimeout(onTick, 100);"
        )
        assert graph.unreachable_declarations() == []


class TestLintRules:
    def test_cg001_fires_on_dead_function(self):
        assert "CG001" in _rules_of("function dead() {}\nvar x = 1;")

    def test_cg001_quiet_when_referenced(self):
        assert "CG001" not in _rules_of("function f() {}\nf();")

    def test_cg002_fires_on_unbound_callee(self):
        assert "CG002" in _rules_of("ghost();")

    def test_cg002_quiet_on_program_bound_callee(self):
        assert "CG002" not in _rules_of("var h = function () {};\nh();")

    def test_cg002_quiet_on_environment_and_builtins(self):
        assert "CG002" not in _rules_of("setTimeout(function () {}, 1);")
        assert "CG002" not in _rules_of("var d = new Date();")

    def test_cg002_quiet_on_member_calls(self):
        # Property callees resolve against the environment's objects,
        # which the name-binding table does not model: stay quiet.
        assert "CG002" not in _rules_of("chrome.tabs.query({});")


class TestDeepNesting:
    """The builder walks with an explicit stack: nesting depth is not
    bounded by Python's recursion limit."""

    def test_nested_array_literals(self):
        graph = _graph("var a = " + "[" * 3000 + "]" * 3000 + ";")
        assert graph.functions == () and graph.sites == ()

    def test_nested_ifs(self):
        graph = _graph(
            "var x = 0;\n" + "if (x) {\n" * 1500 + "g();\n" + "}\n" * 1500
        )
        [site] = graph.sites
        assert site.callee_name == "g" and not site.callees

    def test_nested_functions(self):
        graph = _graph("function f() {\n" * 800 + "}\n" * 800 + "f();")
        assert len(graph.functions) == 800
        # Each declaration's node count covers its own subtree: itself,
        # its block, and the levels below it.
        assert [info.node_count for info in graph.functions] == [
            2 * (800 - depth) for depth in range(800)
        ]
        # Bindings collapse on the name: the top-level call can invoke
        # every f, so every f is reachable.
        assert graph.reachable == frozenset(range(800))
        [site] = graph.sites
        assert len(site.callees) == 800

    def test_function_node_counts_match_node_count(self):
        from repro.js import node_count, parse

        program = parse(
            "var o = { m: function (a) { return function () { a(); }; } };\n"
            "function outer() { function inner(b) { return b + 1; } }"
        )
        graph = build_callgraph((program,))
        functions = [
            node
            for node in program.walk()
            if isinstance(node, (js_ast.FunctionDeclaration, js_ast.FunctionExpression))
        ]
        assert [info.node_count for info in graph.functions] == [
            node_count(node) for node in functions
        ]
