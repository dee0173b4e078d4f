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
"""

from repro.lint.config import LintConfig, RuleConfig
from repro.lint.engine import lint_source, run_paths
from repro.lint.findings import Finding, Severity
from repro.lint.registry import REGISTRY, Rule, all_rules, register

__all__ = [
    "Finding",
    "LintConfig",
    "REGISTRY",
    "Rule",
    "RuleConfig",
    "Severity",
    "all_rules",
    "lint_source",
    "register",
    "run_paths",
]
