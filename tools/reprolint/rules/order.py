"""Ordering rule: no unordered-container iteration in tick-path classes.

``ORD01`` — a ``for`` loop (or comprehension) inside a tick-path class
iterating over ``dict.values()`` / ``dict.keys()`` / ``dict.items()``, a set
literal, or a ``set(...)`` / ``frozenset(...)`` call.

Why: everything inside such a class runs on the tick path, and tick-path
iteration order feeds order-sensitive simulated state (arbitration grants,
queue pops, stat attribution).  CPython dicts iterate in insertion order and
sets in hash order — both are *accidentally* stable, which is worse than
unstable: a refactor that changes insertion order silently changes cycle
counts.  Iterate a deterministic structure instead (a list, a deque, or
``sorted(d.items())`` — a ``sorted(...)`` wrapper satisfies the rule).

Scope: in every file under analysis, classes whose bases include
``Component`` (directly, or through a class defined earlier in the same
module), plus any class that defines a ``tick`` or an ``advance`` method.
The second group covers halves of a fused stage that a component ticks as
plain calls (the banked channel's ``AxiPackAdapter`` and ``BankedMemory``)
and macro-steps (the engine's ``MacroStep`` protocol, such as
``StreamStep``), whose ``advance`` moves simulated state over many
cycles at once.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from tools.reprolint.core import RepoContext, Violation, component_classes, rule

DOCS = {
    "ORD01": "iteration over an unordered container on the tick path",
}

#: dict views whose iteration order is insertion order, not a keyed order.
_DICT_VIEWS = {"values", "keys", "items"}


def _unordered_iter(node: ast.AST) -> str:
    """Describe ``node`` if iterating it is order-unstable, else ``''``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS:
            if not node.args and not node.keywords:
                return f".{func.attr}() of a dict"
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"a {func.id}(...) call"
    if isinstance(node, ast.Set):
        return "a set literal"
    return ""


#: Methods whose defining class runs on the tick path: a component half
#: ticked as a plain call, or a macro-step.
_TICK_PATH_METHODS = {"tick", "advance"}


def _tick_path_classes(tree: ast.AST) -> List[ast.ClassDef]:
    """``Component`` subclasses plus every class that defines ``tick`` or
    ``advance``."""
    components = {id(node) for node in component_classes(tree)}
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and (
            id(node) in components
            or any(isinstance(item, ast.FunctionDef)
                   and item.name in _TICK_PATH_METHODS
                   for item in node.body)
        )
    ]


def _iter_targets(node: ast.AST) -> Iterator[ast.AST]:
    """Every expression the statement/expression ``node`` iterates over."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter


@rule("order-iteration", DOCS)
def check(repo: RepoContext) -> Iterator[Violation]:
    for ctx in repo.files:
        for class_node in _tick_path_classes(ctx.tree):
            for node in ast.walk(class_node):
                for target in _iter_targets(node):
                    what = _unordered_iter(target)
                    if what:
                        yield Violation(
                            "ORD01", ctx.rel, target.lineno,
                            f"iteration over {what} inside tick-path class "
                            f"`{class_node.name}` — tick-path order feeds "
                            "simulated state; iterate a list/deque or wrap "
                            "in sorted(...)",
                        )
