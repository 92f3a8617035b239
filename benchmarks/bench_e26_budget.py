"""E26 -- Extension: the per-client privacy-budget ledger in serving.

Three questions an operator asks before turning ``--ledger`` on:

1. **What does enforcement cost per request?** One identity issues
   requests with the bundle's default disclosure against the same
   server with and without a ledger. Pricing an unchanged cumulative
   set is the enforcer's hot path (every request after the first);
   the gate is <5% added per-request latency.
2. **Does a depleting client actually degrade?** One identity sweeps
   rotating disclosure overrides across the whole feature space under
   a tight budget; the run must cross ``full -> degraded/smc``, and
   service must continue (every request classifies).
3. **Does realized cumulative risk stay under rho?** Re-priced from
   the ledger's own disclosure record with an independent evaluator
   after the run -- not trusted from the enforcer's bookkeeping.

Results land in ``BENCH_privacy.json``.
"""

import os
import time

from repro.bench import Table, update_bench_json
from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.privacy.ledger import PrivacyLedger
from repro.privacy.pricing import DisclosurePricer, risk_model_from_dict
from repro.serving.budget import identity_for_context
from repro.smc.context import make_context
from repro.smc.transport import request_classification

from conftest import BENCH_DGK_BITS, BENCH_PAILLIER_BITS, bench_config

_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_privacy.json"
)
_SEED = 2600
_BITS = dict(paillier_bits=BENCH_PAILLIER_BITS, dgk_bits=BENCH_DGK_BITS)
N_OVERHEAD_REQUESTS = 8
DEPLETION_BUDGET = 0.05
OVERHEAD_GATE = 0.05  # ledger may add <5% per-request latency


def _deployed(warfarin_train_test):
    from repro.api import PrivacyAwareClassifier

    train, test = warfarin_train_test
    pipeline = PrivacyAwareClassifier(
        bench_config("naive_bayes", risk_sample_rows=100)
    ).fit(train)
    pipeline.select_disclosure(0.1)
    row = [int(v) for v in test.X[0]]
    return deployment_from_dict(deployment_to_dict(pipeline)), row


def _start_server(deployed, **overrides):
    import socket
    import threading

    from repro.serving import ClassificationServer

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    server = ClassificationServer(
        deployed, listener,
        config=SessionConfig(max_workers=2, **_BITS, **overrides),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, port


def _stop_server(server, thread):
    server.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


def _timed_requests(port, row, n, disclosure=None):
    """Per-request wall seconds for n same-identity requests."""
    timings = []
    for _ in range(n):
        start = time.perf_counter()
        request_classification("127.0.0.1", port, row, seed=_SEED,
                               disclosure=disclosure)
        timings.append(time.perf_counter() - start)
    return timings


def test_e26_budget_ledger(warfarin_train_test, tmp_path):
    deployed, row = _deployed(warfarin_train_test)
    n_features = len(row)
    metrics = {}

    # -- 1. per-request overhead: same workload with / without ledger --
    server, thread, port = _start_server(deployed)
    try:
        _timed_requests(port, row, 2)  # warm both paths' caches
        baseline = _timed_requests(port, row, N_OVERHEAD_REQUESTS)
    finally:
        _stop_server(server, thread)

    server, thread, port = _start_server(
        deployed, ledger_path=str(tmp_path / "overhead.db"),
        privacy_budget=0.5,
    )
    try:
        _timed_requests(port, row, 2)  # warm: identity cache, first charge
        ledgered = _timed_requests(port, row, N_OVERHEAD_REQUESTS)
    finally:
        _stop_server(server, thread)

    base_mean = sum(baseline) / len(baseline)
    ledger_mean = sum(ledgered) / len(ledgered)
    overhead = ledger_mean / base_mean - 1.0
    metrics["per_request_s_no_ledger"] = base_mean
    metrics["per_request_s_with_ledger"] = ledger_mean
    metrics["ledger_overhead_fraction"] = overhead
    assert overhead < OVERHEAD_GATE, (
        f"ledger added {overhead:.1%} per-request latency "
        f"(gate {OVERHEAD_GATE:.0%}): {base_mean:.4f}s -> {ledger_mean:.4f}s"
    )

    # -- 2 & 3. depletion sweep: rotating disclosure, tight budget ----
    ledger_path = str(tmp_path / "depletion.db")
    server, thread, port = _start_server(
        deployed, ledger_path=ledger_path,
        privacy_budget=DEPLETION_BUDGET,
    )
    sweep = []
    try:
        for lo in range(0, n_features, 2):
            want = list(range(lo, min(lo + 2, n_features)))
            start = time.perf_counter()
            result = request_classification(
                "127.0.0.1", port, row, seed=_SEED + 1, disclosure=want,
            )
            elapsed = time.perf_counter() - start
            assert result.budget is not None
            sweep.append((want, result.budget, elapsed))
    finally:
        _stop_server(server, thread)

    table = Table(
        f"E26: depletion sweep, budget rho={DEPLETION_BUDGET}",
        ["requested", "granted", "mode", "spent", "per-query s"],
    )
    modes = []
    for want, decision, elapsed in sweep:
        modes.append(decision["mode"])
        table.add_row([
            str(want), str(decision["granted"]), decision["mode"],
            decision["spent_after"], elapsed,
        ])
    table.print()

    assert modes[0] == "full"
    assert any(m in ("degraded", "smc") for m in modes), (
        f"sweep never depleted: {modes}"
    )
    metrics["depletion_requests"] = len(sweep)
    metrics["depletion_first_non_full_request"] = next(
        i for i, m in enumerate(modes) if m != "full"
    )
    metrics["depletion_mean_query_s"] = (
        sum(e for _, _, e in sweep) / len(sweep)
    )

    # realized cumulative risk, re-priced independently of the enforcer
    with PrivacyLedger(ledger_path) as ledger:
        record = ledger.client(identity_for_context(make_context(
            config=SessionConfig(seed=_SEED + 1, **_BITS)
        )))
        disclosed = list(record.disclosed)
        recorded_spent = record.spent
    pricer = DisclosurePricer(risk_model_from_dict(deployed.risk_model))
    realized = pricer.price(disclosed)
    metrics["realized_cumulative_risk"] = realized
    metrics["recorded_spent"] = recorded_spent
    metrics["budget_rho"] = DEPLETION_BUDGET
    assert realized <= DEPLETION_BUDGET + 1e-9, (
        f"realized risk {realized} exceeds rho={DEPLETION_BUDGET}"
    )
    assert abs(realized - recorded_spent) < 1e-6, (
        "ledger bookkeeping disagrees with independent re-pricing"
    )

    update_bench_json(
        _BENCH_JSON, "e26_budget", metrics,
        meta={
            "overhead_requests": N_OVERHEAD_REQUESTS,
            "overhead_gate": OVERHEAD_GATE,
            "depletion_budget": DEPLETION_BUDGET,
            "depletion_modes": modes,
            "n_features": n_features,
            **_BITS,
        },
    )
