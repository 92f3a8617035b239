"""Self-tests of the benchmark harness: ``pytest benchmarks/perf -q``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
import spans

HERE = Path(__file__).resolve().parent


# -- tail percentile ---------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(200, 0, -1)]
    assert run.tail_latency(values) == (95.0, 190.0)
    assert run.tail_latency(values[:40]) == (75.0, 190.0)
    assert run.tail_latency([0.3, 0.1, 0.2]) == (100.0 / 3, 0.1)
    for n in (11, 24, 75, 200):
        _, tail = run.tail_latency(list(range(n)))
        assert sum(v > tail for v in range(n)) == run.TAIL_BEYOND


def test_closed_loop_records_each_operations_cpu():
    def spin(_):
        end = time.process_time() + 0.02
        while time.process_time() < end:
            pass

    window = run.closed_loop(0.1, spin)
    assert len(window.records) >= 2
    for record in window.records:
        assert 0.02 <= record.cpu_s <= record.end - record.start
    assert run.process_cpu_seconds(os.getpid()) == pytest.approx(
        time.process_time(), abs=0.01)


# -- span self time ----------------------------------------------------------


def _span(name, elapsed, *children):
    return {"name": name, "elapsed_seconds": elapsed, "attributes": {},
            "children": list(children)}


def test_self_time_subtracts_child_spans():
    tree = _span(
        "serve.request", 1.0,
        _span("session.keygen", 0.1),
        _span("classify.tree", 0.8,
              _span("dgk.compare", 0.5, _span("bench.wire.recv_frame", 0.2)),
              _span("bench.wire.encode", 0.05)),
    )
    seconds, counts = spans.self_seconds_by_name([tree, tree])
    assert seconds["serve.request"] == pytest.approx(0.2)
    assert seconds["classify.tree"] == pytest.approx(0.5)
    assert seconds["dgk.compare"] == pytest.approx(0.6)
    assert counts["bench.wire.recv_frame"] == 2
    layers = spans.self_seconds_by_layer([tree])
    assert layers["serving.request"] == pytest.approx(0.1)
    assert layers["secure.classify"] == pytest.approx(0.25)
    assert layers["smc.compare"] == pytest.approx(0.3)
    assert layers["smc.transport.recv_wait"] == pytest.approx(0.2)
    assert sum(layers.values()) == pytest.approx(1.0)


def test_layer_names():
    assert spans.layer_of("dgk.compare_many") == "smc.compare"
    assert spans.layer_of("argmax.secure") == "smc.argmax"
    assert spans.layer_of("bench.selection.solve") == "selection.solve"
    assert spans.layer_of("bench.wire.send_frame") == "smc.transport.send"
    assert spans.layer_of("pipeline.classify") == "other"


# -- request inputs ----------------------------------------------------------


def test_request_inputs_are_a_function_of_the_seed():
    rows = [tuple(range(i, i + 12)) for i in range(50)]

    def inputs(name, seed):
        workload = run.WORKLOADS[name]
        return [run.make_request(workload, seed, rows, "window", i)
                for i in range(20)]

    assert inputs("serve-tree-smc", 3) == inputs("serve-tree-smc", 3)
    assert inputs("serve-tree-smc", 3) != inputs("serve-tree-smc", 4)
    assert all(r.disclosure == () for r in inputs("serve-tree-smc", 3))
    assert all(r.disclosure is None for r in inputs("serve-nb-disclosed", 3))


# -- compare rule ------------------------------------------------------------

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
]


def _runs(side, values, failed=0, pairs=10):
    runs = []
    for seed in range(pairs):
        ops, latency = values(seed)
        # Alternate which side runs first in consecutive pairs.
        first = (seed % 2 == 0) == (side == "parent")
        runs.append({
            "workload": "w", "seed": seed, "trace": 0,
            "started_at": 100.0 * seed + (0.0 if first else 50.0),
            "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops},
                        "latency_p50_s": {"value": latency}},
        })
    return runs


def _verdicts(parent, change):
    report = compare.compare(parent, change, END_TO_END)
    return ({row["metric"]: row["verdict"] for row in report["w"]["rows"]},
            compare.regressions(report))


def test_compare_counts_a_clear_gain_as_a_win():
    parent = _runs("parent", lambda s: (10.0 + 0.01 * s, 0.10))
    change = _runs("change", lambda s: (12.0 + 0.01 * s, 0.10))
    verdicts, flagged = _verdicts(parent, change)
    assert verdicts == {"ops_per_s": "win", "latency_p50_s": "within bound"}
    assert flagged == []


def test_compare_flags_a_regression_beyond_the_bound():
    parent = _runs("parent", lambda s: (10.0, 0.100 + 0.001 * s))
    change = _runs("change", lambda s: (10.0, 0.130 + 0.001 * s))
    verdicts, flagged = _verdicts(parent, change)
    assert verdicts["latency_p50_s"] == "regression"
    assert flagged == ["w latency_p50_s"]


def test_compare_reports_wide_spread_as_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 7.0, 13.0, 10.0, 8.5, 11.5, 10.0]
    parent = _runs("parent", lambda s: (noisy[s], 0.1))
    change = _runs("change", lambda s: (noisy[(s + 3) % 10], 0.1))
    verdicts, _ = _verdicts(parent, change)
    assert verdicts["ops_per_s"] == "unresolved"


def test_compare_needs_a_gain_over_nine_tenths_of_pairs():
    # Better median, but only 8 of 10 pairs won: not a win.
    parent = _runs("parent", lambda s: (10.0 + 0.02 * s, 0.1))
    change = _runs("change", lambda s: (10.5 + 0.02 * s if s < 8 else 9.0,
                                        0.1))
    verdicts, _ = _verdicts(parent, change)
    assert verdicts["ops_per_s"] == "within bound"


def test_compare_flags_more_failures():
    parent = _runs("parent", lambda s: (10.0, 0.1))
    change = _runs("change", lambda s: (10.0, 0.1), failed=1)
    _, flagged = _verdicts(parent, change)
    assert flagged == ["w failed_fraction 0.0000 -> 0.0100"]


def test_compare_requires_ten_alternating_pairs():
    few = _runs("parent", lambda s: (10.0, 0.1), pairs=9)
    with pytest.raises(compare.CompareError, match="need 10"):
        compare.compare(few, _runs("change", lambda s: (10.0, 0.1), pairs=9),
                        END_TO_END)
    parent = _runs("parent", lambda s: (10.0, 0.1))
    for document in parent:
        document["started_at"] -= 60.0  # parent always first
    with pytest.raises(compare.CompareError, match="alternate"):
        compare.compare(parent, _runs("change", lambda s: (10.0, 0.1)),
                        END_TO_END)


# -- the command end to end --------------------------------------------------


def _bench(tmp_path, *args):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1",
         "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=900,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_smoke_run_of_every_workload_has_no_failures(tmp_path):
    result = _bench(tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["serve-tree-smc.latency_p50_s"]["value"] > 0
    documents = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    assert sorted(d["workload"] for d in documents) == sorted(run.WORKLOADS)
    for document in documents:
        assert document["environment"]["cpu_count"] >= 1


@pytest.mark.parametrize("workload", ["serve-nb-disclosed",
                                      "optimize-tradeoff"])
def test_traced_smoke_run_attributes_time_to_layers(tmp_path, workload):
    result = _bench(tmp_path, "--trace", "--workload", workload)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["failed"] == 0
    assert metrics["trace.unattributed_fraction"] <= 0.10
    if workload == "optimize-tradeoff":
        assert metrics["selection.risk_evals_per_op"] > 0
        assert metrics["core.pipeline.fit_s_per_op"] > 0
    else:
        assert metrics["smc.context.keygen_s_per_op"] > 0
        assert metrics["smc.argmax_s_per_op"] > 0
        assert metrics["smc.wire.encode_s_per_op"] > 0
        assert metrics["client.wait_s_per_op"] > 0
    assert list(tmp_path.glob("*.spans.json.gz"))
