"""End-to-end: serve a saved deployment bundle over real localhost TCP.

The server runs in a separate process, loads the bundle from disk and
answers classification queries; every protocol message physically
crosses the socket.  Results and byte accounting must match an
in-process replay from the same seed exactly.
"""

import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier
from repro.core.serialization import load_deployment, save_deployment
from repro.core.session import SessionConfig
from repro.smc.context import make_context
from repro.smc.transport import (
    request_classification,
    start_deployment_server,
)

N_QUERIES = 5
_BASE_SEED = 400


@pytest.fixture(scope="module")
def bundle(warfarin_split, tmp_path_factory):
    train, test = warfarin_split
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier="naive_bayes", paillier_bits=384,
                       dgk_bits=192, risk_sample_rows=100)
    ).fit(train)
    pipeline.select_disclosure(0.1)
    path = tmp_path_factory.mktemp("deploy") / "bundle.json"
    save_deployment(str(path), pipeline)
    return str(path), test


def test_served_queries_match_inproc_replay(bundle):
    bundle_path, test = bundle
    deployed = load_deployment(bundle_path)
    server, port = start_deployment_server(
        bundle_path, max_connections=N_QUERIES
    )
    try:
        for query, row in enumerate(test.X[:N_QUERIES]):
            seed = _BASE_SEED + query
            result = request_classification(
                "127.0.0.1", port, [int(v) for v in row], seed=seed
            )

            # Replay the same query in-process from the same seed: the
            # transcripts are deterministic, so label and trace must be
            # identical.
            ctx = make_context(config=SessionConfig(
                seed=seed,
                paillier_bits=deployed.paillier_bits,
                dgk_bits=deployed.dgk_bits,
            ))
            expected = deployed.classify(ctx, row)
            assert result.label == expected
            assert result.server_trace == ctx.trace.summary()

            # The client process independently measured every frame; its
            # counts must agree byte-for-byte with the server's trace.
            stats = result.client_stats
            assert stats["frames"] == ctx.trace.messages
            assert stats["bytes_received"] == ctx.trace.total_bytes
            assert stats["bytes_sent"] == ctx.trace.total_bytes
    finally:
        server.join(timeout=30)
        assert not server.is_alive()
    assert server.exitcode == 0


def test_disclosure_override(bundle):
    # A request can narrow the disclosure policy to "disclose nothing":
    # the query still completes (pure SMC) and costs strictly more
    # traffic than the shipped policy.
    bundle_path, test = bundle
    deployed = load_deployment(bundle_path)
    if not deployed.disclosure:
        pytest.skip("bundle discloses nothing already")
    row = test.X[0]
    server, port = start_deployment_server(bundle_path, max_connections=2)
    try:
        shipped = request_classification(
            "127.0.0.1", port, [int(v) for v in row], seed=_BASE_SEED
        )
        pure_smc = request_classification(
            "127.0.0.1", port, [int(v) for v in row], seed=_BASE_SEED,
            disclosure=[],
        )
    finally:
        server.join(timeout=30)
    ctx = make_context(config=SessionConfig(
        seed=_BASE_SEED, paillier_bits=deployed.paillier_bits,
        dgk_bits=deployed.dgk_bits,
    ))
    assert shipped.label == deployed.classify(ctx, row)
    assert pure_smc.server_trace["bytes_total"] > \
        shipped.server_trace["bytes_total"]
