"""Tests for the whole-program layer: call graph (constructor calls
included), interprocedural taint, the ``--rule`` CLI filter,
repo-relative module names, and the full-repo wall-clock budget.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis import ModuleInfo, run_checks
from repro.analysis.callgraph import Program
from repro.analysis.checkers.channel_leak import ChannelLeakChecker
from repro.analysis.checkers.lock_discipline import LockDisciplineChecker
from repro.analysis.cli import main as lint_main
from repro.analysis.framework import check_module, module_name_for
from repro.analysis.taint import SECRET, engine_for

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

#: Wall-clock ceiling for a full-repo lint (the ISSUE pins <10s on CI).
FULL_LINT_BUDGET_SECONDS = 10.0


def module(source: str, name: str, path: str = "<memory>") -> ModuleInfo:
    return ModuleInfo.from_source(source, module=name, path=path)


class TestCallGraph:
    def build(self):
        lib = module(
            "def helper(x):\n"
            "    return x + 1\n"
            "\n"
            "def unused():\n"
            "    return 0\n",
            "repro.smc.lib",
        )
        app = module(
            "from repro.smc.lib import helper\n"
            "import threading\n"
            "\n"
            "class Runner:\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._work).start()\n"
            "    def _work(self):\n"
            "        return helper(2)\n",
            "repro.smc.app",
        )
        return Program.build([lib, app]), lib, app

    def test_edges_and_reverse_edges(self):
        program, _, _ = self.build()
        work = "repro.smc.app.Runner._work"
        assert "repro.smc.lib.helper" in program.edges[work]
        assert work in program.redges["repro.smc.lib.helper"]

    def test_thread_roots_and_reachability(self):
        program, _, _ = self.build()
        roots = program.thread_roots
        assert roots == {"repro.smc.app.Runner._work"}
        reachable = program.reachable_from_threads()
        assert "repro.smc.lib.helper" in reachable
        assert "repro.smc.lib.unused" not in reachable

    def test_thread_path_rendering(self):
        program, _, _ = self.build()
        chain = program.thread_path_to("repro.smc.lib.helper")
        assert chain == [
            "repro.smc.app.Runner._work", "repro.smc.lib.helper",
        ]

    @pytest.mark.parametrize("construct", ["Other(self.shared)",
                                           "lib.Other(self.shared)"])
    def test_constructor_reached_write_is_thread_reachable(self, construct):
        # The thread target builds Other(shared); Other.__init__ calls
        # shared.bump(), an unguarded write to lock-guarded state.
        lib = module(
            "import threading\n"
            "\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._count = 0\n"
            "    def add(self, n):\n"
            "        with self._lock:\n"
            "            self._count += n\n"
            "    def bump(self):\n"
            "        self._count += 1\n"
            "\n"
            "class Other:\n"
            "    def __init__(self, shared):\n"
            "        shared.bump()\n",
            "repro.serving.lib",
        )
        app = module(
            "import threading\n"
            "from repro.serving import lib\n"
            "from repro.serving.lib import Counter, Other\n"
            "\n"
            "class Runner:\n"
            "    def __init__(self):\n"
            "        self.shared = Counter()\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._work).start()\n"
            "    def _work(self):\n"
            f"        {construct}\n",
            "repro.serving.app",
        )
        program = Program.build([lib, app])
        findings = check_module(
            lib, checkers=[LockDisciplineChecker()], program=program
        )
        assert [f.line for f in findings] == [11]
        assert findings[0].chain == (
            "repro.serving.app.Runner._work",
            "repro.serving.lib.Other.__init__",
            "repro.serving.lib.Counter.bump",
        )


class TestInterproceduralTaint:
    def corpus(self) -> ModuleInfo:
        source = (FIXTURES / "interprocedural_leak_fixture.py").read_text(
            encoding="utf-8"
        )
        return module(source, "repro.smc.leak_corpus",
                      path="interprocedural_leak_fixture.py")

    def leak_line(self, mod: ModuleInfo) -> int:
        for number, text in enumerate(mod.lines, start=1):
            if "# LEAK" in text:
                return number
        raise AssertionError("corpus lost its # LEAK marker")

    def test_old_intra_function_pass_is_provably_blind(self):
        mod = self.corpus()
        findings = check_module(
            mod, checkers=[ChannelLeakChecker(interprocedural=False)]
        )
        assert findings == []

    def test_interprocedural_pass_flags_the_multi_hop_leak(self):
        mod = self.corpus()
        findings = check_module(
            mod, checkers=[ChannelLeakChecker()]
        )
        assert [f.line for f in findings] == [self.leak_line(mod)]
        finding = findings[0]
        assert finding.rule == "channel-leak"
        # The full call chain is rendered and carried on the finding.
        assert finding.chain == (
            "repro.smc.leak_corpus.three_hop_leak",
            "repro.smc.leak_corpus.transmit",
            "repro.smc.leak_corpus.forward",
        )
        assert "three_hop_leak -> " in finding.message
        assert "forward" in finding.message

    def test_constructor_calls_keep_and_pass_taint(self):
        # Box(secret) carries its argument's taint (an object holds
        # what it was built from); Sender(ctx, secret) binds secret to
        # __init__'s ``value`` past the implicit self, so the send in
        # __init__ is a leak at the call site.
        mod = module(
            "class Box:\n"
            "    def __init__(self, value):\n"
            "        self.value = value\n"
            "\n"
            "class Sender:\n"
            "    def __init__(self, ctx, value):\n"
            "        ctx.channel.client_sends(value)\n"
            "\n"
            "def boxed(ctx, c):\n"
            "    ctx.channel.client_sends(Box(ctx.client_decrypt(c)))\n"
            "\n"
            "def constructed(ctx, c):\n"
            "    Sender(ctx, ctx.client_decrypt(c))\n",
            "repro.smc.ctor_corpus",
        )
        findings = check_module(mod, checkers=[ChannelLeakChecker()])
        assert [f.line for f in findings] == [10, 13]

    def test_summaries_expose_secret_returns(self):
        mod = self.corpus()
        program = Program.build([mod])
        engine = engine_for(program)
        reveal = engine.summaries["repro.smc.leak_corpus.reveal"]
        assert SECRET in reveal.return_labels
        shift = engine.summaries["repro.smc.leak_corpus.shift"]
        assert shift.return_labels == {0, 1}
        forward = engine.summaries["repro.smc.leak_corpus.forward"]
        assert 1 in forward.sends_param


class TestRepoRelativeFingerprints:
    def test_absolute_path_inside_repo_is_relativized(self):
        absolute = REPO / "tests" / "analysis" / "test_linter.py"
        name = module_name_for(absolute)
        assert name == "tests.analysis.test_linter"

    def test_absolute_and_relative_agree(self):
        absolute = REPO / "src" / "repro" / "smc" / "comparison.py"
        relative = Path("src/repro/smc/comparison.py")
        assert module_name_for(absolute) == module_name_for(relative) \
            == "repro.smc.comparison"


class TestCliWholeProgram:
    def seed(self, tmp_path: Path) -> Path:
        src = tmp_path / "src" / "repro" / "smc"
        src.mkdir(parents=True)
        (src / "noisy.py").write_text("import random\n", encoding="utf-8")
        return tmp_path / "src"

    def test_rule_filter_runs_only_that_rule(self, tmp_path, capsys):
        src = self.seed(tmp_path)
        assert lint_main([str(src), "--rule", "channel-leak"]) == 0
        assert lint_main([str(src), "--rule", "rng-hygiene"]) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        src = self.seed(tmp_path)
        assert lint_main([str(src), "--rule", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err


@pytest.mark.slow
class TestWallClockBudget:
    def test_full_repo_lint_under_budget(self):
        start = time.monotonic()
        run_checks([str(REPO / "src")])
        elapsed = time.monotonic() - start
        assert elapsed < FULL_LINT_BUDGET_SECONDS, (
            f"full-repo lint took {elapsed:.1f}s "
            f"(budget {FULL_LINT_BUDGET_SECONDS}s)"
        )
