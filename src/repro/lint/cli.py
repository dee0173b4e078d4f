"""reprolint command line: ``python -m repro.lint [paths]``.

Exit codes: 0 — clean (warnings allowed); 1 — at least one
error-severity finding (including unused suppressions and parse
failures); 2 — usage error (unknown rule, missing path).

``--format sarif`` / ``--format github`` emit SARIF 2.1.0 and GitHub
Actions workflow commands for CI annotation.  Whether the run uses a
process pool is the engine's choice (:func:`repro.lint.engine.run_paths`),
not an option.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.config import LintConfig
from repro.lint.engine import run_paths
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules

#: SARIF 2.1.0 static-analysis interchange (one run, physical locations).
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _parse_rule_list(raw: str, known: frozenset[str]) -> frozenset[str]:
    rules = frozenset(part.strip() for part in raw.split(",") if part.strip())
    unknown = rules - known
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}"
        )
    return rules


def sarif_report(
    findings: list[Finding], rules: list[type[Rule]]
) -> dict[str, object]:
    """The findings as a SARIF 2.1.0 log (dict, ready for json.dumps)."""
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "docs/lint_rules.md",
                        "rules": [
                            {
                                "id": rule.id,
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.rule_id,
                        "level": (
                            "error" if f.severity is Severity.ERROR else "warning"
                        ),
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": f.path},
                                    "region": {
                                        "startLine": f.line,
                                        "startColumn": f.col,
                                    },
                                }
                            }
                        ],
                    }
                    for f in findings
                ],
            }
        ],
    }


def github_line(finding: Finding) -> str:
    """One GitHub Actions ``::error``/``::warning`` workflow command."""
    level = "error" if finding.severity is Severity.ERROR else "warning"
    # Workflow-command property values escape %, CR and LF.
    message = (
        finding.message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )
    return (
        f"::{level} file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.rule_id}::{message}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "reprolint: determinism- and invariant-aware static analysis "
            "for the LIRA reproduction (rule catalog: docs/lint_rules.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif", "github"),
        default="text",
        help="output format (default: text, one 'file:line:col RULE "
        "message' per finding; sarif = SARIF 2.1.0; github = workflow "
        "commands for Actions annotations)",
    )
    parser.add_argument(
        "--select", metavar="RULES", help="comma-separated rule ids to run exclusively"
    )
    parser.add_argument(
        "--ignore", metavar="RULES", help="comma-separated rule ids to skip"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    rules = all_rules()
    known = frozenset(rule.id for rule in rules)

    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.name:28s} [{rule.severity.value}] {rule.summary}")
        return 0

    try:
        select = _parse_rule_list(args.select, known) if args.select else None
        ignore = (
            _parse_rule_list(args.ignore, known) if args.ignore else frozenset()
        )
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))

    config = LintConfig(select=select, ignore=ignore)
    try:
        findings, files_checked = run_paths(list(args.paths), config=config)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    errors = [f for f in findings if f.severity is Severity.ERROR]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_checked": files_checked,
                    "findings": [f.to_dict() for f in findings],
                    "errors": len(errors),
                    "warnings": len(findings) - len(errors),
                },
                indent=2,
            )
        )
    elif args.format == "sarif":
        print(json.dumps(sarif_report(findings, rules), indent=2))
    elif args.format == "github":
        for finding in findings:
            print(github_line(finding))
        print(
            f"{len(findings)} finding(s): {len(errors)} error(s) in "
            f"{files_checked} file(s)",
            file=sys.stderr,
        )
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(
                f"{len(findings)} finding(s): {len(errors)} error(s), "
                f"{len(findings) - len(errors)} warning(s) in "
                f"{files_checked} file(s)",
                file=sys.stderr,
            )
    return 1 if errors else 0
