"""``# reprolint: disable=RULE`` suppression comments.

A suppression applies to the physical line it shares with code, or —
when the comment stands alone on its own line — to the next code line
(blank lines and comment continuation lines are skipped, so a
justification may wrap).  Every suppression must justify itself by actually masking a
finding: suppressions that mask nothing are themselves reported
(REP000), so stale exemptions cannot accumulate silently.

    norm = d.norm()
    if norm == 0.0:  # reprolint: disable=REP010 - exact zero-vector guard
        ...
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable

from repro.lint.findings import Finding, Severity

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
)


@dataclass
class Suppression:
    """One parsed directive comment."""

    line: int
    target: int
    rules: tuple[str, ...]
    used: set[str] = field(default_factory=set)


class SuppressionIndex:
    """All suppression directives of one file, with usage tracking."""

    def __init__(self, suppressions: list[Suppression]) -> None:
        self._by_target: dict[int, list[Suppression]] = {}
        self._all = suppressions
        for sup in suppressions:
            self._by_target.setdefault(sup.target, []).append(sup)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        lines = source.splitlines()
        suppressions: list[Suppression] = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return cls([])
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(tok.string)
            if match is None:
                continue
            rules = tuple(r.strip() for r in match.group(1).split(","))
            line = tok.start[0]
            before = lines[line - 1][: tok.start[1]]
            if before.strip():
                target = line  # trailing comment: applies to its own line
            else:
                # Standalone comment: applies to the next code line,
                # skipping blanks and comment continuation lines.
                target = line + 1
                while target <= len(lines):
                    stripped = lines[target - 1].strip()
                    if stripped and not stripped.startswith("#"):
                        break
                    target += 1
            suppressions.append(Suppression(line=line, target=target, rules=rules))
        return cls(suppressions)

    def filter(self, findings: list[Finding]) -> list[Finding]:
        """Drop suppressed findings, marking the suppressions used."""
        kept: list[Finding] = []
        for finding in findings:
            suppressed = False
            for sup in self._by_target.get(finding.line, ()):
                if finding.rule_id in sup.rules:
                    sup.used.add(finding.rule_id)
                    suppressed = True
            if not suppressed:
                kept.append(finding)
        return kept

    def unused(
        self, path: str, severity: Severity, ran: Callable[[str], bool]
    ) -> list[Finding]:
        """REP000 findings for directives (or rule ids) that masked nothing,
        among the rules that ran (``ran(rule_id)``): a ``--select`` run
        cannot tell whether a suppression of an unselected rule is stale."""
        out: list[Finding] = []
        for sup in self._all:
            for rule_id in sup.rules:
                if rule_id not in sup.used and ran(rule_id):
                    out.append(
                        Finding(
                            rule_id="REP000",
                            path=path,
                            line=sup.line,
                            col=1,
                            message=(
                                f"unused suppression of {rule_id}: no such "
                                f"finding on line {sup.target}"
                            ),
                            severity=severity,
                        )
                    )
        return out
