"""The reprolint engine: a project pass feeding one shared walk per file.

Linting now runs in two phases.  **Phase 1** parses every file and
builds its per-function effect summary; the summaries join into a
:class:`~repro.lint.project.ProjectIndex` whose taint closure makes
rules *interprocedural* — a helper that reads the wall clock taints
every call site reachable from it, across modules.  When REP015 runs,
phase 1 also summarizes the project's consumer files (linted or not)
for the names they read.  **Phase 2** walks each file once, dispatching
every node to the rules registered for that node's type (see
:class:`repro.lint.registry.Rule`) with the project index available as
``ctx.project``.

The engine picks its own execution: both phases fan out over a
``ProcessPoolExecutor`` when phase 1 has enough files for a pool to pay
and more than one CPU is usable (:func:`_pool_workers`), and run in
process otherwise.  Results are position-sorted per file, so pooled
runs are bit-identical to serial ones.

The walk maintains an ancestor stack so rules can ask about their
enclosing scope, and the :class:`FileContext` centralizes the
cross-rule machinery — import resolution, per-scope assignment maps,
suppression handling — so rules stay small and declarative.
"""

from __future__ import annotations

import ast
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.project import ProjectIndex, consumer_files
from repro.lint.registry import Rule, all_rules
from repro.lint.summaries import (
    ImportResolver,
    ModuleSummary,
    module_name_for,
    summarize_module,
)
from repro.lint.suppress import SuppressionIndex
from repro.parallel import pool_is_profitable, usable_cpus

#: Node types that open a new assignment scope.
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Module)


@dataclass
class ScopeInfo:
    """Simple dataflow facts about one function (or module) body.

    ``assignments`` maps a name to the value expression of its last
    simple ``name = expr`` / ``with expr as name`` binding in the scope;
    ``nested_functions`` holds the names of functions defined locally
    (closures — unpicklable, hence interesting to REP030).
    """

    assignments: dict[str, ast.expr] = field(default_factory=dict)
    nested_functions: set[str] = field(default_factory=set)


class FileContext:
    """Everything rules may need to know about the file being linted."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        config: LintConfig,
        project: ProjectIndex | None = None,
        module_name: str | None = None,
    ):
        self.display_path = path
        self.posix_path = PurePosixPath(Path(path).as_posix()).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        #: Whole-program index (None only for bare snippet linting);
        #: gives rules transitive effect taints and async-ness of
        #: resolved callees.
        self.project = project
        #: Dotted module name of this file within the project.
        self.module_name = (
            module_name if module_name is not None else module_name_for(path)
        )
        #: Ancestor chain of the node currently being visited (outermost
        #: first; does not include the node itself).
        self.stack: list[ast.AST] = []
        self._resolver = ImportResolver(tree)
        self.imports = self._resolver.imports
        self.from_imports = self._resolver.from_imports
        self._scopes: dict[ast.AST, ScopeInfo] = {}

    # ------------------------------------------------------------------
    # Path classification
    # ------------------------------------------------------------------

    @property
    def is_library(self) -> bool:
        """True when the file is library code (``src/repro/`` by default)."""
        return any(fnmatch(self.posix_path, pat) for pat in self.config.library_globs)

    def matches(self, patterns: tuple[str, ...]) -> bool:
        return any(fnmatch(self.posix_path, pat) for pat in patterns)

    # ------------------------------------------------------------------
    # Import-aware name resolution
    # ------------------------------------------------------------------

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        Aliases are unfolded through the file's imports, so
        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` regardless of import spelling.
        """
        return self._resolver.resolve(node)

    def resolve_call(self, node: ast.Call) -> str | None:
        """The callee's resolved name, folding ``self.x()`` methods.

        ``self.helper()`` inside ``class C`` resolves to
        ``<module>.C.helper`` so the project index can look it up; every
        other shape defers to :meth:`resolve`.
        """
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            for ancestor in reversed(self.stack):
                if isinstance(ancestor, ast.ClassDef):
                    return f"{self.module_name}.{ancestor.name}.{func.attr}"
        return self.resolve(func)

    def project_taints(self, node: ast.Call) -> dict[str, tuple[str, ...]]:
        """Transitive effect taints of the called project function.

        Witness chains are rooted at the resolved callee so the finding
        message names the function being called, not just what it
        eventually reaches.
        """
        if self.project is None:
            return {}
        name = self.resolve_call(node)
        qualname = self.project.lookup(self.module_name, name)
        if qualname is None:
            return {}
        taints = self.project.taints_of(self.module_name, name)
        return {t: (qualname,) + chain for t, chain in taints.items()}

    # ------------------------------------------------------------------
    # Scope helpers
    # ------------------------------------------------------------------

    def enclosing_scope(self) -> ast.AST:
        """Innermost function (or the module) containing the current node."""
        for node in reversed(self.stack):
            if isinstance(node, _SCOPE_TYPES):
                return node
        return self.tree

    def enclosing_function(self) -> ast.AST | None:
        """Innermost function containing the current node, if any."""
        for node in reversed(self.stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return node
        return None

    def scope_info(self, scope: ast.AST) -> ScopeInfo:
        """Assignment/closure facts for ``scope`` (computed once, cached)."""
        info = self._scopes.get(scope)
        if info is None:
            info = ScopeInfo()
            body = getattr(scope, "body", [])
            if isinstance(body, ast.expr):  # Lambda body is an expression
                body = []
            self._collect_scope(body, info)
            self._scopes[scope] = info
        return info

    def _collect_scope(self, statements: list[ast.stmt], info: ScopeInfo) -> None:
        """Walk a statement list without descending into nested scopes."""
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.nested_functions.add(stmt.name)
                continue  # bindings inside a nested function are its own
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    info.assignments[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    info.assignments[stmt.target.id] = stmt.value
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name):
                        info.assignments[item.optional_vars.id] = item.context_expr
            for child_body in ("body", "orelse", "finalbody", "handlers"):
                children = getattr(stmt, child_body, None)
                if not children:
                    continue
                for child in children:
                    if isinstance(child, ast.excepthandler):
                        self._collect_scope(child.body, info)
                if all(isinstance(c, ast.stmt) for c in children):
                    self._collect_scope(list(children), info)

    def local_value(self, name: str) -> ast.expr | None:
        """The expression last assigned to ``name`` in the enclosing scope."""
        return self.scope_info(self.enclosing_scope()).assignments.get(name)


class _Walker:
    """Single-pass dispatcher: one tree traversal feeds every rule."""

    def __init__(self, ctx: FileContext, rules: list[Rule]) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self.dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self.dispatch.setdefault(node_type, []).append(rule)

    def walk(self, node: ast.AST) -> None:
        for rule in self.dispatch.get(type(node), ()):
            self.findings.extend(rule.check(node, self.ctx))
        self.ctx.stack.append(node)
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        self.ctx.stack.pop()


def _applicable_rules(ctx: FileContext, config: LintConfig) -> list[Rule]:
    rules: list[Rule] = []
    for cls in all_rules():
        if not cls.node_types or not config.is_enabled(cls.id):
            continue
        if cls.library_only and not ctx.is_library:
            continue
        allow = cls.default_allow + config.rule_config(cls.id).allow
        if allow and ctx.matches(allow):
            continue
        rules.append(cls())
    return rules


def _parse_failure(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule_id="REP999",
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        message=f"file does not parse: {exc.msg}",
    )


def lint_source(
    source: str,
    path: str = "<string>",
    config: LintConfig | None = None,
    project: ProjectIndex | None = None,
) -> list[Finding]:
    """Lint one unit of Python source; returns findings sorted by position.

    Without an explicit ``project``, a single-file index is built from
    the source itself, so intra-file interprocedural findings (a local
    helper reading the clock, flagged at its call sites) work even for
    bare snippets.
    """
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_parse_failure(path, exc)]
    if project is None:
        project = ProjectIndex([summarize_module(path, source, tree=tree)])
    return _lint_tree(path, source, tree, config, project)


def _lint_tree(
    path: str,
    source: str,
    tree: ast.Module,
    config: LintConfig,
    project: ProjectIndex | None,
) -> list[Finding]:
    ctx = FileContext(
        path=path, source=source, tree=tree, config=config, project=project
    )
    walker = _Walker(ctx, _applicable_rules(ctx, config))
    walker.walk(tree)

    suppressions = SuppressionIndex.from_source(source)
    findings = suppressions.filter(walker.findings)
    if config.is_enabled("REP000"):
        findings.extend(
            suppressions.unused(
                path, config.severity_for("REP000", Severity.ERROR), config.is_enabled
            )
        )
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule_id))


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted, deduplicated file list."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" or path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(out))


# ----------------------------------------------------------------------
# Project runs (phase 1: summaries; phase 2: per-file rule walks)
# ----------------------------------------------------------------------

#: Fewest files phase 1 must summarize (linted files plus consumers)
#: before both phases fan out over a process pool.  On a 2-CPU x86
#: container a pool of two breaks even at ≈ 8 files of this repo's
#: mean size (174 lines) and still loses at 256 files of a few lines,
#: so twice the break-even keeps small projects serial; any run inside
#: this repo pools, because the REP015 census alone summarizes ≈ 180
#: consumer files.
_POOL_MIN_FILES = 16


def _pool_workers(n_files: int) -> int:
    """Worker processes for a run that summarizes ``n_files`` files:
    every usable CPU when a pool can pay, else 1 (the serial loop)."""
    cpus = usable_cpus()
    if n_files >= _POOL_MIN_FILES and pool_is_profitable(cpus, n_files):
        return cpus
    return 1


def _summarize_one(args: tuple[str, str]) -> ModuleSummary:
    """Pool worker: summarize one file from its source text."""
    path, source = args
    return summarize_module(path, source)


#: Per-worker state for phase-2 pool execution, set by the initializer
#: (the sanctioned worker-global pattern: each process gets its own copy).
_WORKER_PROJECT: ProjectIndex | None = None
_WORKER_CONFIG: LintConfig | None = None


def _lint_worker_init(
    modules: list[ModuleSummary],
    reads: frozenset[str] | None,
    config: LintConfig,
) -> None:
    global _WORKER_PROJECT, _WORKER_CONFIG
    _WORKER_PROJECT = ProjectIndex(modules, reads=reads)
    _WORKER_CONFIG = config


def _lint_one(args: tuple[str, str]) -> list[Finding]:
    """Pool worker: lint one file's source against the shared index."""
    path, source = args
    return lint_source(source, path, _WORKER_CONFIG, _WORKER_PROJECT)


def build_project(
    sources: list[tuple[str, str]],
    consumers: list[Path] | None = None,
    workers: int = 1,
) -> ProjectIndex:
    """Phase 1: summaries for every (path, source), over a process pool
    of ``workers`` when that is more than 1.

    ``consumers`` (files, linted or not) feed the index's REP015 census;
    without them the index carries none.
    """
    linted = {Path(path).resolve(): path for path, _ in sources}
    items = sources + [
        (str(file), file.read_text(encoding="utf-8"))
        for file in consumers or ()
        if file.resolve() not in linted
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(_summarize_one, items))
    else:
        computed = [_summarize_one(item) for item in items]
    summaries = {path: summary for (path, _), summary in zip(items, computed)}
    reads: frozenset[str] | None = None
    if consumers is not None:
        reads = frozenset(
            name
            for file in consumers
            for name in summaries[linted.get(file.resolve(), str(file))].reads
        )
    return ProjectIndex([summaries[path] for path, _ in sources], reads=reads)


def run_paths(
    paths: list[str | Path],
    config: LintConfig | None = None,
) -> tuple[list[Finding], int]:
    """Lint files/directories as one project; ``(findings, files_checked)``.

    Both phases run over a process pool exactly when phase 1 has enough
    files for one to pay (:data:`_POOL_MIN_FILES`) and more than one CPU
    is usable; findings are identical either way.
    """
    config = config or LintConfig()
    files = iter_python_files(paths)
    sources: list[tuple[str, str]] = [
        (str(file), file.read_text(encoding="utf-8")) for file in files
    ]
    consumers = consumer_files(paths) if config.is_enabled("REP015") else None
    # Phase 1 summarizes every linted file and every consumer.
    summarized = {file.resolve() for file in files + (consumers or [])}
    workers = _pool_workers(len(summarized))
    project = build_project(sources, consumers, workers)

    findings: list[Finding] = []
    if workers > 1:
        modules = list(project.modules.values())
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_lint_worker_init,
            initargs=(modules, project.reads, config),
        ) as pool:
            for result in pool.map(_lint_one, sources):
                findings.extend(result)
    else:
        for path, source in sources:
            findings.extend(lint_source(source, path, config, project))
    return findings, len(files)
