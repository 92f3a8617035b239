"""``python -m repro lint``: the CLI face of the invariant linter.

One mode: parse every file under the given paths, check the whole
program, and report every finding. ``# repro: allow[rule]`` pragmas are
the only exemption.

Exit codes: 0 when there are no findings, 1 when there are any, 2 on
usage errors (unknown ``--rule``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import ALL_CHECKERS, run_checks
from repro.analysis.findings import Finding
from repro.cliutil import add_format_argument

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        dest="rules",
        help="run only this rule (repeatable); see --list-rules",
    )
    add_format_argument(parser)
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def _print_rules() -> None:
    width = max(len(checker.rule) for checker in ALL_CHECKERS)
    for checker in ALL_CHECKERS:
        print(f"{checker.rule:<{width}}  [{checker.severity.value}] "
              f"{checker.description}")


def _report_text(findings: List[Finding]) -> None:
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} finding(s)", file=sys.stderr)


def _report_json(findings: List[Finding]) -> None:
    print(json.dumps(
        {"findings": [f.to_dict() for f in findings]}, indent=2,
    ))


def _select_checkers(rules: Optional[List[str]]):
    """Checkers for ``--rule`` filters (``None`` = the full suite)."""
    if not rules:
        return None, None
    known = {checker.rule: checker for checker in ALL_CHECKERS}
    unknown = [rule for rule in rules if rule not in known]
    if unknown:
        return None, f"unknown rule(s): {', '.join(sorted(unknown))}"
    return [known[rule] for rule in dict.fromkeys(rules)], None


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint command; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return EXIT_CLEAN

    checkers, error = _select_checkers(args.rules)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE

    findings = run_checks(args.paths, checkers)
    if args.format == "json":
        _report_json(findings)
    else:
        _report_text(findings)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="crypto/protocol invariant linter for this repository",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via repro CLI
    sys.exit(main())
