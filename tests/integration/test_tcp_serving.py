"""End-to-end: serve a saved deployment bundle over real localhost TCP.

The server is the shipped ``python -m repro serve`` command in its own
process: it loads the bundle from disk, prints its port and shutdown
token, answers classification queries, and exits 0 once a
``KIND_SHUTDOWN`` frame carrying that token has drained it. Every
protocol message physically crosses the socket. Results and byte
accounting must match an in-process replay from the same seed exactly.
"""

import contextlib
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier
from repro.core.serialization import load_deployment, save_deployment
from repro.core.session import SessionConfig
from repro.smc import wire
from repro.smc.context import make_context
from repro.smc.transport import request_classification

N_QUERIES = 5
_BASE_SEED = 400
_SRC = Path(__file__).resolve().parents[2] / "src"


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


@contextlib.contextmanager
def repro_serve(bundle_path):
    """Run ``python -m repro serve`` on an ephemeral port; yields the
    port, then stops the server with its token and asserts a clean
    exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--bundle", bundle_path,
         "--format", "json", "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        banner = ""
        while not banner.endswith("}\n"):
            line = proc.stdout.readline().decode()
            assert line, proc.stderr.read().decode()
            banner += line
        info = json.loads(banner)
        yield int(info["port"])
        with socket.create_connection(
            ("127.0.0.1", info["port"]), timeout=10
        ) as sock:
            body = wire.encode(wire.shutdown_payload(info["shutdown_token"]))
            wire.send_frame(sock, wire.KIND_SHUTDOWN, body)
            kind, reply = wire.recv_frame(sock)
        assert kind == wire.KIND_HEALTH
        assert wire.WireCodec().decode(reply)["status"] == "stopping"
        assert proc.wait(timeout=30) == 0, proc.stderr.read().decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_served_queries_match_inproc_replay(bundle):
    bundle_path, test = bundle
    deployed = load_deployment(bundle_path)
    with repro_serve(bundle_path) as port:
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


def test_disclosure_override(bundle):
    # A request can narrow the disclosure policy to "disclose nothing":
    # the query still completes (pure SMC) and costs strictly more
    # traffic than the shipped policy.
    bundle_path, test = bundle
    deployed = load_deployment(bundle_path)
    if not deployed.disclosure:
        pytest.skip("bundle discloses nothing already")
    row = test.X[0]
    with repro_serve(bundle_path) as port:
        shipped = request_classification(
            "127.0.0.1", port, [int(v) for v in row], seed=_BASE_SEED
        )
        pure_smc = request_classification(
            "127.0.0.1", port, [int(v) for v in row], seed=_BASE_SEED,
            disclosure=[],
        )
    ctx = make_context(config=SessionConfig(
        seed=_BASE_SEED, paillier_bits=deployed.paillier_bits,
        dgk_bits=deployed.dgk_bits,
    ))
    assert shipped.label == deployed.classify(ctx, row)
    assert pure_smc.server_trace["bytes_total"] > \
        shipped.server_trace["bytes_total"]
