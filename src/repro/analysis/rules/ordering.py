"""RPR004: unordered collections must be sorted before feeding accounting.

``set`` iteration order depends on ``PYTHONHASHSEED`` (for str/bytes
keys) and on insertion history, so a loop like::

    for name in {ds.name for ds in datasets}:
        report.append(name)            # order differs run to run

produces a different accounting/provenance sequence on every run —
exactly the class of bug that broke EventStore-style "same query, same
answer forever" guarantees in the wild.  The fix is always the same:
``for name in sorted(...)``.

Heuristics, to keep the rule quiet on honest code:

* only **set-valued** iterables are flagged — set literals, ``set()`` /
  ``frozenset()`` calls, set comprehensions, and names bound to one of
  those in the same scope.  Python dicts iterate in insertion order, so
  ``dict.values()`` is deterministic whenever insertion is (the engine
  inserts from one thread);
* a bare ``for`` over a set is flagged only when its body does something
  order-sensitive: an ``append`` / ``extend`` / ``add`` / ``insert`` /
  ``emit`` / ``record`` / ``inc`` / ``observe`` / ``write`` call, an
  augmented assignment, or a ``yield`` — order-free reductions like
  ``max``/``min``/membership stay legal;
* a **list comprehension** over a set is always flagged: its entire
  purpose is to build an ordered sequence from an unordered one.

Wrapping the iterable in ``sorted(...)`` clears the finding, because the
iteration target is then the sorted list, not the set.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.linter import Finding, ModuleSource, Rule, register

_ORDER_SINKS = {
    "append",
    "extend",
    "add",
    "insert",
    "emit",
    "record",
    "inc",
    "observe",
    "write",
    "writerow",
}


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _body_is_order_sensitive(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return True
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDER_SINKS
            ):
                return True
    return False


class _ScopeVisitor(ast.NodeVisitor):
    """Walks one scope (module or function), tracking set-bound names."""

    def __init__(self, rule: "UnorderedIterationRule", module: ModuleSource):
        self.rule = rule
        self.module = module
        self.set_names: Set[str] = set()
        self.findings: List[Finding] = []

    # -- nested scopes get their own tracker --------------------------------
    def _enter_scope(self, node: ast.AST, body: List[ast.stmt]) -> None:
        nested = _ScopeVisitor(self.rule, self.module)
        # A closure can iterate a set bound in the enclosing scope.
        nested.set_names = set(self.set_names)
        for stmt in body:
            nested.visit(stmt)
        self.findings.extend(nested.findings)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node, node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node, node.body)

    # -- set-name bookkeeping ------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self.set_names)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expr(node.value, self.set_names):
                self.set_names.add(node.target.id)
            else:
                self.set_names.discard(node.target.id)
        self.generic_visit(node)

    # -- the checks ----------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self.set_names) and _body_is_order_sensitive(
            node.body
        ):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    "iterating a set in an order-sensitive loop; wrap the "
                    "iterable in sorted(...) so accounting order is stable",
                )
            )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for generator in node.generators:
            if _is_set_expr(generator.iter, self.set_names):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        "list built directly from a set has hash-dependent "
                        "order; use sorted(...) as the comprehension source",
                    )
                )
                break
        self.generic_visit(node)


@register
class UnorderedIterationRule(Rule):
    code = "RPR004"
    name = "unordered-iteration"
    description = (
        "set iterated into order-sensitive accounting without sorted(...)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        visitor = _ScopeVisitor(self, module)
        for stmt in module.tree.body:
            visitor.visit(stmt)
        yield from visitor.findings
