"""E24 -- Extension: multi-process fleet throughput vs. shard count.

E23 measured the *threaded* server overlapping paced network waits --
which works until Paillier/DGK math dominates a request, at which point
the GIL serialises every worker thread and throughput stops scaling.
This bench measures the fix: the crypto-bound workload (``pace=0``, no
artificial latency, every request is pure protocol + bignum work)
against :class:`~repro.serving.ClassificationFleet` at 1, 2 and 4 shard
*processes* behind the routing frontend.

* 100 concurrent clients issue one classification each; seeds spread
  the sticky routing uniformly across shards.
* Every label is checked against its deterministic in-process replay,
  so speedups cannot come from dropped or corrupted work.
* Queue-wait p50/p99 come from the ``serve.queue_wait`` histogram's
  retained samples, merged across shards through the frontend's
  telemetry probes.

The acceptance gates (>=1.8x at 2 shards, >=3x at 4 shards) only mean
something when there are cores to scale onto, so they are asserted
conditionally on ``os.cpu_count()``; the measured numbers are recorded
in ``BENCH_serving.json`` either way (next to E23's record -- the file
now holds one entry per bench).
"""

import os
import threading
import time

import repro.telemetry as telemetry
from repro.bench import Table, update_bench_json
from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.serving import ClassificationFleet
from repro.smc.context import make_context
from repro.smc.transport import request_classification
from repro.telemetry import histogram_quantiles

from conftest import BENCH_DGK_BITS, BENCH_PAILLIER_BITS, bench_config

_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_serving.json"
)
_SEED = 2400
N_CLIENTS = 100
SHARD_COUNTS = (1, 2, 4)
GATES = {2: 1.8, 4: 3.0}  # speedup over 1 shard, multi-core hosts only


def _deployed(warfarin_train_test):
    from repro.api import PrivacyAwareClassifier

    train, test = warfarin_train_test
    pipeline = PrivacyAwareClassifier(
        bench_config("naive_bayes", risk_sample_rows=100)
    ).fit(train)
    pipeline.select_disclosure(0.1)
    rows = [[int(v) for v in row] for row in test.X[:16]]
    return deployment_from_dict(deployment_to_dict(pipeline)), rows


def _run_fleet_round(deployed, rows, shards):
    """100 crypto-bound clients against an N-shard fleet."""
    config = SessionConfig(
        max_workers=4, queue_depth=N_CLIENTS, shards=shards,
        paillier_bits=BENCH_PAILLIER_BITS, dgk_bits=BENCH_DGK_BITS,
    )
    telemetry.configure(True, reset=True)  # the shards inherit the switch
    fleet = ClassificationFleet(deployed, config=config)
    fleet.start()
    labels = {}
    failures = []

    def client(i):
        try:
            result = request_classification(
                "127.0.0.1", fleet.port, rows[i % len(rows)],
                seed=_SEED + i,
            )
            labels[i] = result.label
        except Exception as error:  # pragma: no cover - fail the bench
            failures.append((i, repr(error)))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(N_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    elapsed = time.perf_counter() - start
    snapshot = fleet.telemetry_snapshot()
    fleet.shutdown()
    telemetry.configure(False, reset=True)
    assert not failures, failures
    assert sorted(labels) == list(range(N_CLIENTS))
    waits = histogram_quantiles(snapshot, "serve.queue_wait", [0.5, 0.99])
    return elapsed, labels, waits


def test_e24_fleet_throughput(warfarin_train_test):
    deployed, rows = _deployed(warfarin_train_test)

    expected = {}
    for i in range(N_CLIENTS):
        ctx = make_context(config=SessionConfig(
            seed=_SEED + i, paillier_bits=BENCH_PAILLIER_BITS,
            dgk_bits=BENCH_DGK_BITS,
        ))
        expected[i] = deployed.classify(ctx, rows[i % len(rows)])

    table = Table(
        f"E24: fleet serving, {N_CLIENTS} crypto-bound clients",
        ["shards", "wall s", "req/s", "speedup", "p50 wait", "p99 wait"],
    )
    metrics = {}
    elapsed_by_shards = {}
    for shards in SHARD_COUNTS:
        elapsed, labels, waits = _run_fleet_round(deployed, rows, shards)
        assert labels == expected, "sharding changed a label"
        elapsed_by_shards[shards] = elapsed
        metrics[f"elapsed_s_shards_{shards}"] = elapsed
        metrics[f"throughput_rps_shards_{shards}"] = N_CLIENTS / elapsed
        metrics[f"queue_wait_p50_shards_{shards}"] = waits.get(0.5, 0.0)
        metrics[f"queue_wait_p99_shards_{shards}"] = waits.get(0.99, 0.0)
        table.add_row([
            shards, elapsed, N_CLIENTS / elapsed,
            elapsed_by_shards[SHARD_COUNTS[0]] / elapsed,
            waits.get(0.5, 0.0), waits.get(0.99, 0.0),
        ])
    table.print()

    cores = os.cpu_count() or 1
    for shards, gate in GATES.items():
        speedup = elapsed_by_shards[1] / elapsed_by_shards[shards]
        metrics[f"speedup_{shards}_over_1"] = speedup
        if cores >= shards:
            assert speedup >= gate, (
                f"{shards} shards gave only {speedup:.2f}x over 1 shard "
                f"on a {cores}-core host (gate {gate}x)"
            )
        else:
            print(f"(gate {gate}x at {shards} shards skipped: "
                  f"only {cores} core(s))")

    update_bench_json(
        _BENCH_JSON, "e24_fleet", metrics,
        meta={
            "clients": N_CLIENTS,
            "shard_counts": list(SHARD_COUNTS),
            "workers_per_shard": 4,
            "paillier_bits": BENCH_PAILLIER_BITS,
            "dgk_bits": BENCH_DGK_BITS,
            "gates": {str(k): v for k, v in GATES.items()},
            "gates_asserted_up_to_cores": cores,
        },
    )
