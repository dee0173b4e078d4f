"""Per-function summaries: the whole-program layer's unit of knowledge.

One :class:`ModuleSummary` per file records, for every function and
method defined in it, the *effects the determinism contract cares
about* — wall-clock reads, unseeded/global RNG draws, environment
reads, blocking calls, module-global mutation, unordered shard
iteration — plus the resolved names of everything it calls, and the
identifiers the file reads anywhere (REP015's consumer census).  The
project index (:mod:`repro.lint.project`) closes these summaries over
the call graph so a helper that reads the clock two hops away taints
every reachable call site.

Summaries are pure functions of the file's source (plus its module
name), which makes them safely cacheable by content hash — see
:class:`repro.lint.project.SummaryCache`.

The effect detectors here mirror the direct rules (REP001/REP002/
REP004, REP031, the REP040 blocking set) byte for byte via the shared
sets in :mod:`repro.lint.knowledge`: a function the summarizer marks
``clock`` is exactly a function REP002 would flag at its definition.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from repro.lint import knowledge

#: Bump when the summary format or detectors change: invalidates every
#: cached entry (the digest mixes this in).
SUMMARY_VERSION = 2

#: The effect kinds a summary can carry.
TAINTS = ("clock", "rng", "env", "blocks", "global_mutation", "shard_iter")

_MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "setdefault", "pop", "popitem",
    "clear", "remove", "discard", "insert", "appendleft", "extendleft",
})

_DICT_VIEWS = ("keys", "values", "items")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def module_name_for(path: str | Path) -> str:
    """Dotted module name for a source path.

    Real files walk up through ``__init__.py`` packages; paths that do
    not exist on disk (unit-test snippets linted under a display path)
    fall back to the textual layout convention: everything after a
    ``src`` component, else the bare stem.
    """
    p = Path(path)
    if p.exists():
        parts = [p.stem] if p.stem != "__init__" else []
        parent = p.parent
        while (parent / "__init__.py").exists():
            parts.insert(0, parent.name)
            parent = parent.parent
        if parts:
            return ".".join(parts)
        return p.stem
    posix = PurePosixPath(p.as_posix())
    parts = list(posix.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else str(posix.stem)


def source_digest(module: str, source: str) -> str:
    """Content hash keying the summary cache (format-versioned)."""
    h = hashlib.sha256()
    h.update(f"{SUMMARY_VERSION}\x00{module}\x00".encode())
    h.update(source.encode("utf-8", errors="surrogateescape"))
    return h.hexdigest()


class ImportResolver:
    """Alias-unfolding name resolution over one module's imports."""

    def __init__(self, tree: ast.Module) -> None:
        self.imports: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or ``None``."""
        if isinstance(node, ast.Name):
            if node.id in self.from_imports:
                return self.from_imports[node.id]
            if node.id in self.imports:
                return self.imports[node.id]
            return node.id
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


@dataclass(frozen=True)
class FunctionSummary:
    """What one function does, as far as the contract is concerned.

    ``direct`` maps a taint kind to the primitive that introduced it
    (``"clock" -> "time.monotonic"``) — the witness shown in findings.
    ``calls`` holds resolved callee names (module-local bare names are
    qualified by the project index at closure time); ``executor_calls``
    holds callables *referenced* inside a thread/executor seam, which
    propagate every taint except ``blocks``.
    """

    qualname: str
    line: int
    is_async: bool
    direct: dict[str, str] = field(default_factory=dict)
    calls: tuple[str, ...] = ()
    executor_calls: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "is_async": self.is_async,
            "direct": dict(self.direct),
            "calls": list(self.calls),
            "executor_calls": list(self.executor_calls),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qualname=str(data["qualname"]),
            line=int(data["line"]),
            is_async=bool(data["is_async"]),
            direct={str(k): str(v) for k, v in dict(data["direct"]).items()},
            calls=tuple(data["calls"]),
            executor_calls=tuple(data["executor_calls"]),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Every function summary of one file, its reads, and its identity."""

    module: str
    path: str
    digest: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: Identifiers the file reads (see :func:`names_read`).
    reads: frozenset[str] = frozenset()

    def to_dict(self) -> dict[str, object]:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "digest": self.digest,
            "functions": {
                name: fn.to_dict() for name, fn in sorted(self.functions.items())
            },
            "reads": sorted(self.reads),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            module=str(data["module"]),
            path=str(data["path"]),
            digest=str(data["digest"]),
            functions={
                str(name): FunctionSummary.from_dict(fn)
                for name, fn in dict(data["functions"]).items()
            },
            reads=frozenset(str(name) for name in data["reads"]),
        )


def names_read(tree: ast.Module) -> frozenset[str]:
    """Every identifier the file reads, for REP015's consumer census.

    A read is a loaded name, an attribute, a keyword argument, or an
    identifier inside a string constant (``getattr`` targets, seams
    patched by name).  Docstrings (any bare string statement) and
    ``__all__`` entries are documentation and export lists, not reads;
    imports bind names without reading them.
    """
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets: list[ast.expr] = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skip.update(id(node) for node in ast.walk(stmt))
    reads: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            reads.add(node.arg)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            reads.update(_IDENTIFIER.findall(node.value))
    return frozenset(reads)


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names bound by simple assignments in the module body."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _names_shards(node: ast.AST) -> bool:
    """True when the expression's terminal identifier mentions shards."""
    if isinstance(node, ast.Name):
        return "shard" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "shard" in node.attr.lower()
    return False


class _FunctionSummarizer(ast.NodeVisitor):
    """One pass over one function body collecting taints and calls."""

    def __init__(
        self,
        module: str,
        cls_name: str | None,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        resolver: ImportResolver,
        module_names: set[str],
    ) -> None:
        self.module = module
        self.cls_name = cls_name
        self.fn = fn
        self.resolver = resolver
        self.module_names = module_names
        self.direct: dict[str, str] = {}
        self.calls: set[str] = set()
        self.executor_calls: set[str] = set()
        self.globals_declared: set[str] = set()
        self.locals: set[str] = self._parameter_names(fn)
        #: Last simple ``name = expr`` binding seen (linear approximation
        #: of the scope map — enough for the shard-dict pattern).
        self.assignments: dict[str, ast.expr] = {}

    @staticmethod
    def _parameter_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        args = fn.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names

    def taint(self, kind: str, witness: str) -> None:
        self.direct.setdefault(kind, witness)

    def run(self) -> FunctionSummary:
        for stmt in self.fn.body:
            self.visit(stmt)
        return FunctionSummary(
            qualname=(
                f"{self.module}.{self.cls_name}.{self.fn.name}"
                if self.cls_name
                else f"{self.module}.{self.fn.name}"
            ),
            line=self.fn.lineno,
            is_async=isinstance(self.fn, ast.AsyncFunctionDef),
            direct=self.direct,
            calls=tuple(sorted(self.calls)),
            executor_calls=tuple(sorted(self.executor_calls)),
        )

    # -- name resolution ------------------------------------------------

    def _resolve_callee(self, func: ast.AST) -> str | None:
        """Callee name, folding ``self.x()`` into the enclosing class."""
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.cls_name is not None
        ):
            return f"{self.module}.{self.cls_name}.{func.attr}"
        return self.resolver.resolve(func)

    # -- visitors -------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_store(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target, node.value)
        self.generic_visit(node)

    def _record_store(self, target: ast.AST, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                # Rebinding without ``global`` would just shadow locally;
                # with it, the module's state changes under every caller.
                self.taint("global_mutation", f"global {target.id}")
            else:
                self.locals.add(target.id)
                self.assignments[target.id] = value
        elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            name = target.value.id
            if name not in self.locals and (
                name in self.module_names or name in self.globals_declared
            ):
                self.taint("global_mutation", f"{name}[...]")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, value)

    def visit_For(self, node: ast.For) -> None:
        self._record_store(node.target, node.iter)
        self._check_shard_iteration(node.iter)
        self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.comprehension):
            self._check_shard_iteration(node.iter)
        super().generic_visit(node)

    def _is_dict_or_set_expr(self, node: ast.AST, depth: int = 0) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp, ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self.resolver.resolve(node.func) in ("dict", "set", "frozenset")
        if isinstance(node, ast.Name) and depth < 4:
            value = self.assignments.get(node.id)
            if value is not None and value is not node:
                return self._is_dict_or_set_expr(value, depth + 1)
        return False

    def _check_shard_iteration(self, iterable: ast.expr) -> None:
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr in _DICT_VIEWS
            and not iterable.args
            and _names_shards(iterable.func.value)
        ):
            self.taint(
                "shard_iter", f".{iterable.func.attr}() of a shard-keyed mapping"
            )
        elif _names_shards(iterable) and self._is_dict_or_set_expr(iterable):
            self.taint("shard_iter", "a shard-keyed dict/set")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        qualname = self.resolver.resolve(node)
        if qualname in knowledge.CLOCK_READS:
            self.taint("clock", qualname)
        elif qualname in knowledge.ENV_READS:
            self.taint("env", qualname)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            qualname = self.resolver.from_imports.get(node.id)
            if qualname in knowledge.CLOCK_READS:
                self.taint("clock", qualname)
            elif qualname in knowledge.ENV_READS:
                self.taint("env", qualname)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        qualname = self._resolve_callee(func)
        if qualname is not None:
            self._check_rng(node, qualname)
            if qualname in knowledge.BLOCKING_CALLS:
                self.taint("blocks", qualname)
            if qualname in knowledge.EXECUTOR_SEAMS or (
                isinstance(func, ast.Attribute) and func.attr == "run_in_executor"
            ):
                self._record_executor_args(node)
            else:
                self.calls.add(qualname)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
        ):
            name = func.value.id
            if name not in self.locals and name in self.module_names:
                self.taint("global_mutation", f"{name}.{func.attr}(...)")
        self.generic_visit(node)

    def _record_executor_args(self, node: ast.Call) -> None:
        """Callables deferred through to_thread/run_in_executor."""
        for arg in node.args:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                callee = self._resolve_callee(arg)
                if callee is not None:
                    self.executor_calls.add(callee)

    def _check_rng(self, node: ast.Call, qualname: str) -> None:
        if qualname in knowledge.RNG_CONSTRUCTORS:
            seeded = bool(node.args or node.keywords)
            if node.args and isinstance(node.args[0], ast.Constant):
                seeded = node.args[0].value is not None
            if not seeded:
                self.taint("rng", qualname)
            return
        prefix, _, tail = qualname.rpartition(".")
        if prefix == "numpy.random" and tail in knowledge.NP_LEGACY_GLOBAL_FNS:
            self.taint("rng", qualname)
        elif (
            prefix == "random"
            and tail in knowledge.STDLIB_RANDOM_FNS
            and self.resolver.imports.get("random") == "random"
        ):
            self.taint("rng", qualname)

    #: Nested function/class definitions are folded into the parent
    #: summary (their effects run when the parent calls them; treating
    #: them separately would need closure-call resolution for little
    #: gain), so the default generic_visit recursion is exactly right.


def summarize_module(
    path: str | Path,
    source: str,
    tree: ast.Module | None = None,
    module: str | None = None,
) -> ModuleSummary:
    """Build the summary of one file (parses ``source`` unless given)."""
    if module is None:
        module = module_name_for(path)
    digest = source_digest(module, source)
    posix = PurePosixPath(Path(path).as_posix()).as_posix()
    if tree is None:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return ModuleSummary(module=module, path=posix, digest=digest)
    resolver = ImportResolver(tree)
    module_names = _module_level_names(tree)
    functions: dict[str, FunctionSummary] = {}

    def add(fn: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None) -> None:
        summary = _FunctionSummarizer(module, cls, fn, resolver, module_names).run()
        functions[summary.qualname] = summary

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(item, stmt.name)
    return ModuleSummary(
        module=module,
        path=posix,
        digest=digest,
        functions=functions,
        reads=names_read(tree),
    )
