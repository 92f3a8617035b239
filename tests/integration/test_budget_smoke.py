"""Budget smoke: three identities hammer a budgeted server end to end.

The CI ``budget-smoke`` job's scenario: a single server with a
temp-file ledger and a tight budget answers a stream of requests from
three client identities, each sweeping rotating disclosure overrides.
Requirements:

- every request classifies (zero non-shed errors) -- depletion
  degrades service, never denies it;
- at least one identity measurably depletes: its later requests run
  ``degraded`` or ``smc``;
- the ledger's recorded cumulative spend never exceeds the budget for
  any identity, and survives server shutdown (durable file).
"""

import socket
import threading

import pytest

from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.privacy.ledger import PrivacyLedger
from repro.serving import ClassificationServer
from repro.serving.budget import identity_for_context
from repro.smc.context import make_context
from repro.smc.transport import request_classification

N_IDENTITIES = 3
REQUESTS_PER_IDENTITY = 5
_BASE_SEED = 8400
_BUDGET = 0.05
_BITS = {"paillier_bits": 384, "dgk_bits": 192}


@pytest.fixture(scope="module")
def deployed(warfarin_split):
    from repro.api import PipelineConfig, PrivacyAwareClassifier

    train, _ = warfarin_split
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier="naive_bayes", risk_sample_rows=100,
                       **_BITS)
    ).fit(train)
    pipeline.select_disclosure(0.1)
    return deployment_from_dict(deployment_to_dict(pipeline))


@pytest.fixture(scope="module")
def row(warfarin_split):
    _, test = warfarin_split
    return [int(v) for v in test.X[0]]


def test_three_identities_deplete_degrade_and_keep_serving(
    deployed, row, tmp_path
):
    ledger_path = str(tmp_path / "smoke.db")
    n_features = len(row)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    server = ClassificationServer(
        deployed, listener,
        config=SessionConfig(
            max_workers=4, ledger_path=ledger_path,
            privacy_budget=_BUDGET, **_BITS,
        ),
    )
    server_thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    server_thread.start()

    decisions = {i: [] for i in range(N_IDENTITIES)}
    failures = []

    def client(i):
        seed = _BASE_SEED + i
        try:
            for k in range(REQUESTS_PER_IDENTITY):
                # rotate through the feature space so the cumulative
                # set grows past what the budget can afford
                lo = (3 * k) % n_features
                want = [f % n_features for f in range(lo, lo + 3)]
                result = request_classification(
                    "127.0.0.1", port, row, seed=seed,
                    disclosure=sorted(set(want)), pace_seconds=0.01,
                )
                assert result.budget is not None
                decisions[i].append(result.budget)
        except Exception as error:  # noqa: BLE001 - tallied below
            failures.append((i, repr(error)))

    try:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(N_IDENTITIES)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert all(not t.is_alive() for t in threads)
    finally:
        server.shutdown()
        server_thread.join(timeout=30)
        assert not server_thread.is_alive()

    assert failures == [], f"non-shed errors: {failures}"

    all_modes = []
    for i in range(N_IDENTITIES):
        assert len(decisions[i]) == REQUESTS_PER_IDENTITY
        identity = identity_for_context(make_context(
            config=SessionConfig(seed=_BASE_SEED + i, **_BITS)
        ))
        for decision in decisions[i]:
            assert decision["identity"] == identity
            assert decision["spent_after"] <= _BUDGET + 1e-9
            all_modes.append(decision["mode"])
        # spend only ever grows within one identity's stream (up to
        # re-pricing float noise: the cumulative set is re-priced from
        # scratch each admission)
        spends = [d["spent_after"] for d in decisions[i]]
        for earlier, later in zip(spends, spends[1:]):
            assert later >= earlier - 1e-9
    assert any(m in ("degraded", "smc") for m in all_modes), (
        f"nobody depleted a {_BUDGET} budget: {all_modes}"
    )

    # the ledger survived shutdown, with every identity within budget
    with PrivacyLedger(ledger_path) as ledger:
        clients = ledger.clients()
        assert len(clients) == N_IDENTITIES
        for name in clients:
            record = ledger.client(name)
            assert record.spent <= _BUDGET + 1e-9
            assert record.charges == REQUESTS_PER_IDENTITY
