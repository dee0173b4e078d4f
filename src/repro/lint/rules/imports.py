"""Import hygiene: module-level imports nothing in the module reads."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register


def _module_level_imports(body: list[ast.stmt]) -> Iterator[ast.Import | ast.ImportFrom]:
    """Imports that bind module globals: the body and its ``if``/``try``
    blocks (``if TYPE_CHECKING:``, optional dependencies), not functions
    or classes."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_level_imports(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _module_level_imports(handler.body)


def _strings(node: ast.AST) -> list[str]:
    return [
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


def _names_read(tree: ast.Module) -> set[str]:
    """Every identifier the module reads: loads, ``__all__`` entries, and
    the names inside string annotations."""
    read: set[str] = set()
    quoted: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            quoted += _strings(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted += _strings(node.returns)
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read.update(_strings(stmt))
    for text in quoted:
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return read


@register
class UnusedImport(Rule):
    """A module-level import binding the module never reads.

    Dead imports hide real dependencies, slow start-up and survive
    refactors that deleted their last use.  Not flagged: ``__init__.py``
    (its imports are the package's re-exports), names listed in
    ``__all__``, the explicit re-export spelling ``import x as x``,
    ``from __future__`` and star imports.  String annotations count as
    reads, so an ``if TYPE_CHECKING:`` import used only in quoted
    annotations is clean.  An import kept for its side effect carries a
    justified suppression.
    """

    id = "REP012"
    name = "unused-import"
    summary = "module-level import never read in the module"
    node_types = (ast.Module,)

    def check(self, node: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        if ctx.posix_path.endswith("__init__.py"):
            return
        read = _names_read(node)
        for stmt in _module_level_imports(node.body):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "*" or alias.asname == alias.name or bound in read:
                    continue
                yield self.finding(
                    ctx,
                    stmt,
                    f"'{bound}' is imported but never read in this module; "
                    "delete the import, list the name in __all__, or suppress "
                    "with the reason it is kept (e.g. an import for side effects)",
                )
