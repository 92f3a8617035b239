"""Compare a parent commit's benchmark runs with a change's.

Reads the results files ``run.py`` writes (untraced runs only), pairs
parent and change runs by workload and seed, and applies the rule for
claiming a gain in a small, noisy sandbox:

* at least ten pairs per workload, with the side that ran first
  alternating from pair to pair;
* each side's median and quartiles per workload and metric;
* a *win* needs the change better in at least nine tenths of the pairs
  (ties count for neither) and a median gap larger than the parent's
  interquartile range;
* a metric whose run-to-run spread (IQR over median, either side)
  exceeds its bound is *unresolved*, unless every change run beats
  every parent run;
* an end-to-end metric whose change median is worse than the parent's
  by more than its ``BENCHMARK.json`` bound is a *regression*, and so
  is any rise in the failed-operation fraction.

Usage::

    python3 benchmarks/perf/compare.py --parent parent-results/ \\
        --change change-results/

Exit code 0 when nothing regressed, 1 on a regression, 2 when the
result sets do not support a comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


class CompareError(Exception):
    """The result sets cannot be compared under the rule."""


def load_runs(directory: Path) -> List[dict]:
    """Every untraced results document in ``directory``."""
    runs = []
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text())
        if document.get("trace") == 0 and "workload" in document:
            runs.append(document)
    return runs


def pair_runs(parent: Sequence[dict], change: Sequence[dict],
              workload: str) -> List[tuple]:
    """``(parent, change)`` runs of one workload paired by seed, in the
    order they ran; raises unless there are enough alternating pairs."""
    mine = {d["seed"]: d for d in parent if d["workload"] == workload}
    theirs = {d["seed"]: d for d in change if d["workload"] == workload}
    pairs = sorted(
        ((mine[s], theirs[s]) for s in mine.keys() & theirs.keys()),
        key=lambda pair: min(d["started_at"] for d in pair),
    )
    if len(pairs) < MIN_PAIRS:
        raise CompareError(
            f"{workload}: {len(pairs)} seed-matched pairs, need {MIN_PAIRS}"
        )
    firsts = [p["started_at"] < c["started_at"] for p, c in pairs]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        raise CompareError(
            f"{workload}: the side that runs first must alternate "
            f"between consecutive pairs"
        )
    return pairs


def _quartiles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=4)


def compare_metric(pairs: List[tuple], name: str, better: str,
                   bound: float) -> dict:
    """One metric's row: both sides' quartiles and the verdict."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        verdict = "win"
    elif -gain > bound * abs(p_med):
        verdict = "regression"
    elif spread > bound:
        all_better = min(sign * c for c in change) > max(
            sign * p for p in parent)
        verdict = "better in every run" if all_better else "unresolved"
    else:
        verdict = "within bound"
    return {
        "metric": name,
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def failed_fraction(runs: Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent: Sequence[dict], change: Sequence[dict],
            end_to_end: Sequence[dict]) -> Dict[str, dict]:
    """Per-workload comparison: metric rows and the failed fractions."""
    report = {}
    for workload in sorted({d["workload"] for d in parent}):
        pairs = pair_runs(parent, change, workload)
        report[workload] = {
            "rows": [compare_metric(pairs, m["name"], m["better"], m["bound"])
                     for m in end_to_end],
            "failed_fraction": [failed_fraction([p for p, _ in pairs]),
                                failed_fraction([c for _, c in pairs])],
        }
    return report


def regressions(report: Dict[str, dict]) -> List[str]:
    """Every flagged regression, one line each."""
    flagged = []
    for workload, result in report.items():
        for row in result["rows"]:
            if row["verdict"] == "regression":
                flagged.append(f"{workload} {row['metric']}")
        parent_failed, change_failed = result["failed_fraction"]
        if change_failed > parent_failed:
            flagged.append(f"{workload} failed_fraction "
                           f"{parent_failed:.4f} -> {change_failed:.4f}")
    return flagged


def render(report: Dict[str, dict]) -> str:
    lines = []
    for workload, result in report.items():
        lines.append(f"{workload} (failed fraction parent "
                     f"{result['failed_fraction'][0]:.4f}, change "
                     f"{result['failed_fraction'][1]:.4f})")
        lines.append(f"  {'metric':<16}{'parent q1/med/q3':>34}"
                     f"{'change q1/med/q3':>34}{'wins':>7}{'spread':>8}"
                     f"  verdict")
        for row in result["rows"]:
            sides = ["/".join(f"{v:.4g}" for v in row[s])
                     for s in ("parent", "change")]
            lines.append(
                f"  {row['metric']:<16}{sides[0]:>34}{sides[1]:>34}"
                f"{row['wins']:>4}/{row['pairs']:<2}{row['spread']:>8.3f}"
                f"  {row['verdict']}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="results directory of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="results directory of the change")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json",
                        help="benchmark definition holding the bounds")
    args = parser.parse_args(argv)
    end_to_end = json.loads(args.benchmark.read_text())["end_to_end"]
    try:
        report = compare(load_runs(args.parent), load_runs(args.change),
                         end_to_end)
    except CompareError as error:
        print(f"cannot compare: {error}", file=sys.stderr)
        return 2
    print(render(report))
    flagged = regressions(report)
    for line in flagged:
        print(f"REGRESSION: {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
