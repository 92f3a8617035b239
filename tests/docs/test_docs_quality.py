"""Docs stay true: links resolve, DEPLOYMENT.md matches the CLI.

Half of these tests exercise the checkers themselves on synthetic
markdown; the other half run them against the repository's real
documentation, which is exactly what the CI docs job does.
"""

import os
import subprocess
import sys

from repro.analysis.docs import (
    DOC_COMMANDS,
    check_cli_flag_drift,
    check_links,
    command_help_text,
    github_slug,
    heading_slugs,
    main,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


def _repo_markdown():
    docs = os.path.join(REPO_ROOT, "docs")
    files = [os.path.join(REPO_ROOT, "README.md")]
    files += sorted(
        os.path.join(docs, name)
        for name in os.listdir(docs) if name.endswith(".md")
    )
    return files


# ---------------------------------------------------------------- units

def test_github_slug_rules():
    assert github_slug("Reading the metrics") == "reading-the-metrics"
    assert github_slug("3. Overload and error semantics") == (
        "3-overload-and-error-semantics"
    )
    assert github_slug("Wire format & transports (`a.b`, `c.d`)") == (
        "wire-format--transports-ab-cd"
    )


def test_heading_slugs_skips_fences_and_numbers_duplicates(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Top\n```\n# not a heading\n```\n## Twice\n## Twice\n"
    )
    slugs = heading_slugs(str(doc))
    assert set(slugs) == {"top", "twice", "twice-1"}
    assert "not-a-heading" not in slugs


def test_check_links_flags_missing_file_and_anchor(tmp_path):
    target = tmp_path / "real.md"
    target.write_text("# Real Heading\n")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[ok](real.md)\n"
        "[ok anchor](real.md#real-heading)\n"
        "[gone](missing.md)\n"
        "[bad anchor](real.md#nope)\n"
        "[self](#also-nope)\n"
        "[external](https://example.com/missing.md)\n"
        "```\n[inside a fence](fenced-away.md)\n```\n"
    )
    problems = check_links([str(doc)], root=str(tmp_path))
    assert len(problems) == 3
    assert any("missing.md" in p and ":3:" in p for p in problems)
    assert any("#nope" in p and ":4:" in p for p in problems)
    assert any("#also-nope" in p and ":5:" in p for p in problems)


def test_check_cli_flag_drift_synthetic(tmp_path):
    doc = tmp_path / "DEPLOYMENT.md"
    doc.write_text("Use `--workers 4` but never `--frobnicate`.\n")
    problems = check_cli_flag_drift(
        str(doc), help_text="usage: serve [--workers N]"
    )
    assert len(problems) == 1
    assert "--frobnicate" in problems[0]
    assert check_cli_flag_drift(
        str(doc), help_text="[--workers N] [--frobnicate]"
    ) == []


def test_serve_help_text_names_the_runtime_flags():
    text = command_help_text("serve")
    for flag in ("--workers", "--queue-depth", "--request-timeout",
                 "--shards", "--bundle", "--ledger", "--privacy-budget"):
        assert flag in text


def test_budget_help_text_names_the_ledger_flags():
    text = command_help_text("budget")
    for flag in ("--ledger", "--client", "--limit", "--all"):
        assert flag in text


# --------------------------------------------- the repository's own docs

def test_repo_docs_have_no_broken_links():
    assert check_links(_repo_markdown(), root=REPO_ROOT) == []


def test_operator_guides_match_their_clis():
    for name, commands in DOC_COMMANDS.items():
        doc = os.path.join(REPO_ROOT, "docs", name)
        assert check_cli_flag_drift(doc, commands=commands) == []


def test_budget_flags_are_drift_checked_for_privacy_guide():
    # The privacy guide documents the budget subcommand, so its flags
    # must pass; against serve alone they would be drift.
    doc = os.path.join(REPO_ROOT, "docs", "PRIVACY.md")
    assert check_cli_flag_drift(doc, commands=("serve", "budget")) == []
    serve_only = check_cli_flag_drift(doc, commands=("serve",))
    assert any("--all" in p or "--client" in p for p in serve_only)


def test_deployment_guide_is_linked_from_the_other_docs():
    for source in ("README.md", os.path.join("docs", "PROTOCOLS.md"),
                   os.path.join("docs", "OBSERVABILITY.md")):
        with open(os.path.join(REPO_ROOT, source), encoding="utf-8") as f:
            assert "DEPLOYMENT.md" in f.read(), source


def test_privacy_guide_is_linked_from_the_entry_points():
    for source in ("README.md", os.path.join("docs", "DEPLOYMENT.md"),
                   os.path.join("docs", "SECURITY.md")):
        with open(os.path.join(REPO_ROOT, source), encoding="utf-8") as f:
            assert "PRIVACY.md" in f.read(), source


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.md"
    good.write_text("# Fine\n[self](#fine)\n")
    assert main([str(good)]) == 0
    bad = tmp_path / "bad.md"
    bad.write_text("[gone](missing.md)\n")
    assert main([str(bad), "--root", str(tmp_path)]) == 1


def test_module_is_runnable_as_ci_runs_it():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.docs", "README.md", "docs"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 problem(s)" in proc.stderr
