"""Whole-program layer: module graph, taint closure, consumer census.

:class:`ProjectIndex` joins every file's :class:`ModuleSummary` into one
symbol table and computes the transitive closure of the effect taints
over the call graph.  The result answers, for any resolved callee name,
"does calling this (transitively) read the wall clock / draw unseeded
RNG / read the environment / block / mutate module state / iterate a
shard map unordered?" — with a witness chain for the finding message.

**Seam absorption** is what keeps the closure aligned with the repo's
contract: a function *defined in* an allowlisted seam file (the timing
harness for clocks, the cache/CLI modules for environment reads) may
perform the effect without tainting its callers — that is precisely
what a seam is for.  The seam patterns are shared with the direct
rules' allowlists via :mod:`repro.lint.knowledge`, so "clean because
routed through ``repro.timing``" means the same thing to both layers.

The index also holds the **consumer census** REP015 asks about: the
identifiers read by every file under the project's consumer roots
(:data:`repro.lint.knowledge.CONSUMER_ROOTS`), found from the project
root whatever subset of the tree is being linted.
"""

from __future__ import annotations

import os
from collections import deque
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable

from repro.lint import knowledge
from repro.lint.summaries import FunctionSummary, ModuleSummary

#: Per-taint seam path patterns: a function defined in a matching file
#: absorbs the taint instead of propagating it.
TAINT_SEAMS: dict[str, tuple[str, ...]] = {
    "clock": knowledge.CLOCK_SEAM_PATHS,
    "env": knowledge.ENV_SEAM_PATHS,
}

#: Longest witness chain kept (the interesting part is the first hops).
_MAX_CHAIN = 6


def chain_text(chain: tuple[str, ...]) -> str:
    """Render a witness chain for a finding message."""
    return " -> ".join(chain)


def consumer_files(paths: Iterable[str | Path]) -> list[Path] | None:
    """Every ``.py`` file under the consumer roots of the linted paths'
    project, or ``None`` when no ancestor holds ``pyproject.toml``."""
    resolved = [Path(p).resolve() for p in paths]
    if not resolved:
        return None
    common = Path(os.path.commonpath(resolved))
    for root in (common, *common.parents):
        if (root / knowledge.PROJECT_MARKER).is_file():
            break
    else:
        return None
    files: list[Path] = []
    for consumer in knowledge.CONSUMER_ROOTS:
        files.extend(sorted((root / consumer).rglob("*.py")))
    return files


class ProjectIndex:
    """Symbol table + transitive effect taints over a set of modules.

    ``reads`` is the consumer census (``None`` when the run has no
    project root, e.g. a bare snippet: REP015 then stays silent).
    """

    def __init__(
        self,
        modules: Iterable[ModuleSummary],
        reads: frozenset[str] | None = None,
    ) -> None:
        self.reads = reads
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self._path_of: dict[str, str] = {}
        self._module_of: dict[str, str] = {}
        for mod in modules:
            self.modules[mod.module] = mod
            for qualname, fn in mod.functions.items():
                self.functions[qualname] = fn
                self._path_of[qualname] = mod.path
                self._module_of[qualname] = mod.module
        self._taints = self._close()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, module: str | None, name: str | None) -> str | None:
        """Canonical qualname of a resolved callee, if the project has it.

        Bare names (``helper``) and partially qualified ones
        (``Helper.run``) are tried against the calling module first;
        fully qualified names are looked up as-is.  A name matching no
        function is retried as a class constructor (``…​.__init__``).
        """
        if name is None:
            return None
        candidates = [name]
        if module is not None:
            candidates.append(f"{module}.{name}")
        for candidate in candidates:
            if candidate in self.functions:
                return candidate
        for candidate in candidates:
            init = f"{candidate}.__init__"
            if init in self.functions:
                return init
        return None

    def taints_of(self, module: str | None, name: str | None) -> dict[str, tuple[str, ...]]:
        """Taint → witness chain for a callee (empty when unknown/clean)."""
        qualname = self.lookup(module, name)
        if qualname is None:
            return {}
        return self._taints.get(qualname, {})

    def is_async_callable(self, module: str | None, name: str | None) -> bool:
        """True when the callee resolves to an ``async def`` in the project."""
        qualname = self.lookup(module, name)
        return qualname is not None and self.functions[qualname].is_async

    def defining_module(self, module: str | None, name: str | None) -> str | None:
        """Module a resolved callee is defined in (None when unknown)."""
        qualname = self.lookup(module, name)
        if qualname is None:
            return None
        return self._module_of[qualname]

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------

    def _is_seam(self, qualname: str, taint: str) -> bool:
        patterns = TAINT_SEAMS.get(taint, ())
        if not patterns:
            return False
        path = self._path_of[qualname]
        return any(fnmatch(path, pat) for pat in patterns)

    def _close(self) -> dict[str, dict[str, tuple[str, ...]]]:
        callers: dict[str, list[tuple[str, bool]]] = {}
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            module = self._module_of[qualname]
            for callee in fn.calls:
                target = self.lookup(module, callee)
                if target is not None and target != qualname:
                    callers.setdefault(target, []).append((qualname, False))
            for callee in fn.executor_calls:
                target = self.lookup(module, callee)
                if target is not None and target != qualname:
                    callers.setdefault(target, []).append((qualname, True))

        taints: dict[str, dict[str, tuple[str, ...]]] = {}
        work: deque[tuple[str, str]] = deque()
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            for taint in sorted(fn.direct):
                if self._is_seam(qualname, taint):
                    continue
                taints.setdefault(qualname, {})[taint] = (fn.direct[taint],)
                work.append((qualname, taint))
        while work:
            qualname, taint = work.popleft()
            chain = taints[qualname][taint]
            for caller, via_executor in sorted(callers.get(qualname, [])):
                # A blocking callable handed to a worker thread no
                # longer blocks the caller; every other effect (clock,
                # RNG, env, ...) still happens on the caller's behalf.
                if taint == "blocks" and via_executor:
                    continue
                if self._is_seam(caller, taint):
                    continue
                caller_taints = taints.setdefault(caller, {})
                if taint in caller_taints:
                    continue
                caller_taints[taint] = ((qualname,) + chain)[:_MAX_CHAIN]
                work.append((caller, taint))
        return taints

