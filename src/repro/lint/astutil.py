"""Small AST helpers shared by the rule modules.

The rules reason about *scopes* — a module body, a class body, or one
function body — without descending into nested function or class
definitions (each of those is its own scope with its own resource and
pairing obligations).  :func:`iter_scopes` yields every scope of a
parsed module together with its enclosing class, and
:func:`scope_nodes` walks all AST nodes that belong directly to one
scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Union

__all__ = [
    "Scope",
    "call_args_contain_dict_key",
    "dotted",
    "guarded_lines",
    "iter_scopes",
    "last_component",
    "name_used_in",
    "scope_nodes",
]

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ScopeNode = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


@dataclass
class Scope:
    """One lexical scope: a module, class, or function body."""

    name: str
    node: ScopeNode
    parent_class: Optional[ast.ClassDef]

    def nodes(self) -> List[ast.AST]:
        """Every AST node directly in this scope, in source order."""
        return list(scope_nodes(self.node))


def scope_nodes(root: ScopeNode) -> Iterator[ast.AST]:
    """Walk ``root``'s body without entering nested scope definitions."""
    for stmt in root.body:
        yield from _walk_shallow(stmt)


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    yield node
    if isinstance(node, _SCOPE_TYPES):
        return  # a nested def/class is its own scope; don't leak its body
    for child in ast.iter_child_nodes(node):
        yield from _walk_shallow(child)


def iter_scopes(tree: ast.Module) -> Iterator[Scope]:
    """Yield the module scope and every (nested) class/function scope."""
    yield Scope("<module>", tree, None)
    yield from _nested_scopes(tree, None)


def _nested_scopes(
    root: ast.AST, enclosing_class: Optional[ast.ClassDef]
) -> Iterator[Scope]:
    for child in ast.iter_child_nodes(root):
        if isinstance(child, ast.ClassDef):
            yield Scope(child.name, child, enclosing_class)
            yield from _nested_scopes(child, child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield Scope(child.name, child, enclosing_class)
            yield from _nested_scopes(child, enclosing_class)
        else:
            yield from _nested_scopes(child, enclosing_class)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def last_component(node: ast.AST) -> Optional[str]:
    """The final attribute/name of a call target (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def name_used_in(node: ast.AST, name: str) -> bool:
    """True when ``name`` is loaded anywhere inside ``node``."""
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def call_args_contain_dict_key(call: ast.Call, key: str) -> bool:
    """True when any literal-dict argument of ``call`` has entry ``key``
    — or may have it: a ``**`` splat (a ``None`` key) counts."""
    for arg in call.args:
        if isinstance(arg, ast.Dict):
            for dict_key in arg.keys:
                if dict_key is None or (
                    isinstance(dict_key, ast.Constant)
                    and dict_key.value == key
                ):
                    return True
    return False


def guarded_lines(scope: Scope) -> Set[int]:
    """Line numbers inside any ``finally`` block or ``except`` handler.

    Used to decide whether a paired cleanup call actually runs on
    exception exits, not just on the happy path.
    """
    lines: Set[int] = set()
    for node in scope.nodes():
        if not isinstance(node, ast.Try):
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if hasattr(sub, "lineno"):
                    lines.add(sub.lineno)
        for handler in node.handlers:
            for sub in ast.walk(handler):
                if hasattr(sub, "lineno"):
                    lines.add(sub.lineno)
    return lines
