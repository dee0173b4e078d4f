"""Dead-code census: library definitions no consumer reads."""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Iterator

from repro.lint import knowledge
from repro.lint.engine import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_Def = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def _terminal(ctx: FileContext, node: ast.expr) -> str:
    """Last component of a (possibly called) decorator or base name."""
    if isinstance(node, ast.Call):
        node = node.func
    return (ctx.resolve(node) or "").rpartition(".")[2]


def _definitions(
    body: list[ast.stmt],
    ctx: FileContext,
    prefix: str = "",
    bases: frozenset[str] = frozenset(),
) -> Iterator[tuple[str, _Def]]:
    """``(qualified name, node)`` of every def REP015 censuses: module
    and class level, recursing into classes, minus the exemptions."""
    for stmt in body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        qualname = prefix + stmt.name
        decorators = {_terminal(ctx, d) for d in stmt.decorator_list}
        if isinstance(stmt, ast.ClassDef):
            members = frozenset(_terminal(ctx, b) for b in stmt.bases)
            yield from _definitions(stmt.body, ctx, qualname + ".", members)
        exempt = (
            (stmt.name.startswith("__") and stmt.name.endswith("__"))
            or decorators & knowledge.REGISTERING_DECORATORS
            or "abstractmethod" in decorators
            or "Protocol" in bases
            or (stmt.name.startswith("visit_") and "NodeVisitor" in bases)
        )
        if not exempt:
            yield qualname, stmt


@register
class UnreferencedDefinition(Rule):
    """A library function, class or method whose name no consumer reads.

    Consumers are the files under the project's consumer roots
    (``src/``, ``bench/``, ``benchmarks/``, ``examples/``, ``scripts/``
    and ``tests/oracles/``, found from the nearest ``pyproject.toml``
    whatever paths are linted); the rest of ``tests/`` is not one, so a
    def only its own tests read is dead.  A read is a loaded name, an
    attribute, a keyword argument or an identifier in a non-docstring
    string; docstrings, ``__all__`` entries and ``__init__.py``
    re-exports (eager imports or a lazy table's strings) are not.
    Matching is by bare name, so it can miss dead code but never flags
    a def something reads.  Exempt: dunders,
    ``Protocol`` members, ``@abstractmethod`` methods, ``visit_*`` on
    ``ast.NodeVisitor`` subclasses and defs under ``@register``.  A test
    seam carries a suppression stating that it is one.  Silent on a
    snippet linted without a project.
    """

    id = "REP015"
    name = "unreferenced-def"
    summary = "library def whose name no consumer file reads"
    library_only = True
    node_types = (ast.Module,)

    def check(self, node: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        if ctx.project is None or ctx.project.reads is None:
            return
        for qualname, definition in _definitions(node.body, ctx):
            if definition.name in ctx.project.reads:
                continue
            finding = self.finding(
                ctx,
                definition,
                f"'{qualname}' is defined but no consumer reads "
                f"'{definition.name}'; delete it, or suppress with the reason "
                "it is kept (e.g. a test seam)",
            )
            # Anchored where the definition starts, its first decorator,
            # so a suppression comment sits above the whole of it.
            first = min(d.lineno for d in [definition, *definition.decorator_list])
            yield replace(finding, line=first)
