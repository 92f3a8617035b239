"""A fresh lint run on ``src/`` reports nothing.

The lint has no baseline: a finding is fixed, or its line carries a
``# repro: allow[rule]`` pragma with a one-line justification.
"""

from pathlib import Path

from repro.analysis import run_checks

REPO = Path(__file__).resolve().parents[2]


def test_src_has_no_findings():
    findings = run_checks([str(REPO / "src")])
    assert not findings, "lint findings in src:\n" + "\n".join(
        f.render() for f in findings
    )
