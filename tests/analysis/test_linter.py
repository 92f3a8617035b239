"""Tests for the invariant linter (``repro.analysis``).

Each checker has a fixture module under ``tests/analysis/fixtures/``
whose violating lines end in a ``# BAD`` marker comment (``# BAD-ENCODE
BAD-DECODE`` when one line carries several findings). The tests assert
that running the full checker suite over a fixture produces findings
with exactly the fixture's rule id on exactly the marked lines -- no
misses, no false positives on the known-good snippets, and no
cross-contamination from the other checkers.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_CHECKERS,
    Finding,
    ModuleInfo,
    Severity,
    run_checks,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.framework import check_module, module_name_for

REPO = Path(__file__).resolve().parents[2]


def checker_by_rule(rule):
    (checker,) = [c for c in ALL_CHECKERS if c.rule == rule]
    return checker

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (fixture file, module name to lint it under,
#:             directory under src/ used by the CLI-level tests)
FIXTURE_MODULES = {
    "rng-hygiene": ("rng_hygiene_fixture.py", "repro.crypto.fixture",
                    "repro/crypto"),
    "channel-leak": ("channel_leak_fixture.py", "repro.smc.fixture",
                     "repro/smc"),
    "wire-tags": ("wire_tags_fixture.py", "repro.smc.fixture",
                  "repro/smc"),
    "protocol-entry": ("protocol_entry_fixture.py", "repro.smc.fixture",
                       "repro/smc"),
    "telemetry-span": ("telemetry_span_fixture.py", "repro.smc.fixture",
                       "repro/smc"),
    "ciphertext-arith": ("ciphertext_arith_fixture.py", "repro.smc.fixture",
                         "repro/smc"),
    "exception-hygiene": ("exception_hygiene_fixture.py", "repro.smc.fixture",
                          "repro/smc"),
    "mutable-default": ("mutable_defaults_fixture.py", "repro.util.fixture",
                        "repro/util"),
    "lock-discipline": ("lock_discipline_fixture.py",
                        "repro.serving.fixture", "repro/serving"),
    "branch-on-secret": ("branch_on_secret_fixture.py",
                         "repro.smc.fixture", "repro/smc"),
}

#: The rules whose seeded violations must fail the CI gate
#: (mutable-default rides along as a warning-severity extra).
MANDATED_RULES = [
    "rng-hygiene", "channel-leak", "wire-tags", "protocol-entry",
    "ciphertext-arith", "exception-hygiene", "lock-discipline",
    "branch-on-secret",
]

_MARKER = re.compile(r"#\s*(BAD(?:-[A-Z]+)?(?:\s+BAD(?:-[A-Z]+)?)*)\s*$")


def fixture_text(rule: str) -> str:
    filename = FIXTURE_MODULES[rule][0]
    return (FIXTURES / filename).read_text(encoding="utf-8")


def load_fixture(rule: str) -> ModuleInfo:
    filename, module, _ = FIXTURE_MODULES[rule]
    return ModuleInfo.from_source(
        fixture_text(rule), module=module, path=filename
    )


def marked_lines(text: str) -> Counter:
    """Line number -> number of findings the ``# BAD`` markers promise."""
    expected: Counter = Counter()
    for number, line in enumerate(text.splitlines(), start=1):
        match = _MARKER.search(line)
        if match:
            expected[number] = len(match.group(1).split())
    return expected


class TestFixtureModules:
    """Every checker finds exactly its fixture's marked lines."""

    @pytest.mark.parametrize("rule", sorted(FIXTURE_MODULES))
    def test_exact_rule_ids_and_lines(self, rule):
        mod = load_fixture(rule)
        findings = check_module(mod)  # the FULL suite, not just one rule
        assert findings, f"fixture for {rule} produced no findings"
        for finding in findings:
            assert finding.rule == rule, (
                f"unexpected {finding.rule} finding at line {finding.line}: "
                f"{finding.message}"
            )
        got = Counter(f.line for f in findings)
        assert got == marked_lines(mod.source)

    @pytest.mark.parametrize("rule", sorted(FIXTURE_MODULES))
    def test_single_checker_matches_suite(self, rule):
        """Running just the one checker gives the same findings."""
        mod = load_fixture(rule)
        alone = check_module(mod, checkers=[checker_by_rule(rule)])
        suite = [f for f in check_module(mod) if f.rule == rule]
        assert [(f.line, f.message) for f in alone] == [
            (f.line, f.message) for f in suite
        ]

    def test_fixtures_cover_every_checker(self):
        assert set(FIXTURE_MODULES) == {c.rule for c in ALL_CHECKERS}

    def test_out_of_scope_module_is_ignored(self):
        """The same bad source is clean outside the crypto packages."""
        mod = ModuleInfo.from_source(
            fixture_text("rng-hygiene"),
            module="repro.data.fixture",
            path="rng_hygiene_fixture.py",
        )
        assert check_module(mod, checkers=[checker_by_rule("rng-hygiene")]) \
            == []

    def test_rand_module_is_exempt(self):
        mod = ModuleInfo.from_source(
            "import random\n", module="repro.crypto.rand", path="rand.py"
        )
        assert check_module(mod, checkers=[checker_by_rule("rng-hygiene")]) \
            == []


class TestSuppressionPragma:
    SOURCE = (
        "import random  # repro: allow[rng-hygiene]\n"
        "import numpy.random  # repro: allow[*]\n"
        "# repro: allow[rng-hygiene]\n"
        "from random import randint\n"
        "from numpy.random import normal\n"
    )

    def make(self):
        return ModuleInfo.from_source(
            self.SOURCE, module="repro.crypto.demo", path="demo.py"
        )

    def test_pragmas_suppress_same_and_next_line(self):
        findings = check_module(self.make())
        assert [f.line for f in findings] == [5]

    def test_respect_pragmas_false_sees_everything(self):
        findings = check_module(self.make(), respect_pragmas=False)
        assert [f.line for f in findings] == [1, 2, 4, 5]

    def test_pragma_for_other_rule_does_not_suppress(self):
        mod = ModuleInfo.from_source(
            "import random  # repro: allow[channel-leak]\n",
            module="repro.crypto.demo",
            path="demo.py",
        )
        findings = check_module(mod)
        assert [f.rule for f in findings] == ["rng-hygiene"]


class TestFindings:
    def test_render_and_to_dict(self):
        finding = Finding(rule="wire-tags", severity=Severity.ERROR,
                          path="src/repro/smc/wire.py",
                          module="repro.smc.wire", line=12,
                          message="msg", snippet="TAG_X = 1")
        assert finding.render() == (
            "src/repro/smc/wire.py:12: error [wire-tags] msg"
        )
        as_dict = finding.to_dict()
        assert as_dict["rule"] == "wire-tags"
        assert as_dict["line"] == 12


class TestRunChecks:
    def write_tree(self, tmp_path: Path) -> Path:
        src = tmp_path / "src" / "repro" / "smc"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text("")
        (src / "leaky.py").write_text(
            "import random\n", encoding="utf-8"
        )
        return tmp_path / "src"

    def test_module_name_derivation(self, tmp_path):
        src = self.write_tree(tmp_path)
        assert module_name_for(src / "repro" / "smc" / "leaky.py") \
            == "repro.smc.leaky"
        assert module_name_for(src / "repro" / "smc" / "__init__.py") \
            == "repro.smc"

    def test_run_checks_on_directory(self, tmp_path):
        src = self.write_tree(tmp_path)
        findings = run_checks([str(src)])
        assert [f.rule for f in findings] == ["rng-hygiene"]
        assert findings[0].module == "repro.smc.leaky"

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        src = self.write_tree(tmp_path)
        (src / "repro" / "smc" / "broken.py").write_text(
            "def oops(:\n", encoding="utf-8"
        )
        findings = run_checks([str(src)])
        rules = {f.rule for f in findings}
        assert "parse-error" in rules and "rng-hygiene" in rules

    def test_findings_sorted_by_path_line_rule(self, tmp_path):
        src = self.write_tree(tmp_path)
        (src / "repro" / "smc" / "more.py").write_text(
            "import random\nimport numpy.random\n", encoding="utf-8"
        )
        findings = run_checks([str(src)])
        keys = [(f.path, f.line, f.rule) for f in findings]
        assert keys == sorted(keys)


def install_fixture(tmp_path: Path, rule: str) -> Path:
    """Copy a fixture under ``tmp/src/...`` so the CLI lints it in scope."""
    filename, _, package = FIXTURE_MODULES[rule]
    target_dir = tmp_path / "src" / package
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / filename
    shutil.copyfile(FIXTURES / filename, target)
    return tmp_path / "src"


class TestCli:
    """The gate CI runs: seeded violations of every rule must fail it."""

    @pytest.mark.parametrize("rule", MANDATED_RULES + ["mutable-default"])
    def test_seeded_violation_fails_the_gate(self, rule, tmp_path, capsys):
        src = install_fixture(tmp_path, rule)
        code = lint_main([str(src)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"[{rule}]" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "src" / "repro" / "smc"
        src.mkdir(parents=True)
        (src / "fine.py").write_text(
            "def double(x):\n    return 2 * x\n", encoding="utf-8"
        )
        assert lint_main([str(tmp_path / "src")]) == 0

    def test_json_format(self, tmp_path, capsys):
        src = install_fixture(tmp_path, "exception-hygiene")
        assert lint_main([str(src), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} \
            == {"exception-hygiene"}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in FIXTURE_MODULES:
            assert rule in out

    def test_repro_cli_entry_point(self, tmp_path):
        """``python -m repro lint`` is wired end to end."""
        src = install_fixture(tmp_path, "rng-hygiene")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(src)],
            capture_output=True, text=True, cwd=str(REPO),
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 1, proc.stderr
        assert "[rng-hygiene]" in proc.stdout
