"""reprolint: determinism- and invariant-aware static analysis.

An AST-based lint pass encoding this repository's correctness contract:
bit-identical results from identical ``(spec, seed)`` pairs, the
paper's Δ-bound/fairness invariants, and picklability across the
process-pool seam.  Run as ``python -m repro.lint [paths]``; the rule
catalog lives in ``docs/lint_rules.md``.

Programmatic use::

    from repro.lint import LintConfig, lint_source, run_paths

    findings = lint_source(code, path="src/repro/example.py")
    findings, n_files = run_paths(["src"], LintConfig())

The names below are imported on first access (PEP 562), so importing
:mod:`repro.lint.knowledge` alone does not load the engine.
"""

import importlib
from typing import Any

_HOMES = {
    "repro.lint.config": ("LintConfig", "RuleConfig"),
    "repro.lint.engine": ("lint_source", "run_paths"),
    "repro.lint.findings": ("Finding", "Severity"),
    "repro.lint.registry": ("REGISTRY", "Rule", "all_rules", "register"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name: str) -> Any:
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_HOME_OF[name]), name)
    return value
