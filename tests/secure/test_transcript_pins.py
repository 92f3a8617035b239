"""Transcript pins: seeded protocol runs reproduce recorded transcripts.

Every scenario below runs one protocol (or one full classification) on
a context with fixed keys and fixed per-party rng seeds, with a
recording transport on the channel. The recorder hashes the canonical
wire encoding of every payload in order (SHA-256, direction-tagged),
and the test compares that digest -- together with the operation
counts, the bytes in each direction, the messages, the rounds and the
protocol's output -- against ``transcript_pins.json``.

A refactor of the protocol bodies must reproduce every pin bit for bit.
A change that moves a transcript on purpose regenerates the file with::

    PYTHONPATH=src python tests/secure/test_transcript_pins.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro.classifiers.decision_tree import DecisionTreeClassifier
from repro.classifiers.linear import LogisticRegressionClassifier
from repro.classifiers.naive_bayes import NaiveBayesClassifier
from repro.core.session import SessionConfig
from repro.crypto.paillier import PaillierCiphertext
from repro.crypto.rand import fresh_rng
from repro.data import generate_warfarin
from repro.secure.backends import SharesBackend
from repro.secure.costing import ProtocolSizes
from repro.secure.secure_linear import SecureLinearClassifier
from repro.secure.secure_naive_bayes import SecureNaiveBayesClassifier
from repro.secure.secure_tree import SecureDecisionTreeClassifier
from repro.smc import wire
from repro.smc.argmax import secure_argmax
from repro.smc.comparison import (
    compare_encrypted,
    compare_encrypted_client_learns,
    compare_encrypted_many,
    compare_values_encrypted,
    dgk_compare,
    dgk_compare_many,
    sign_test_client_learns,
)
from repro.smc.context import TwoPartyContext, make_context
from repro.smc.dotproduct import encrypted_dot_product
from repro.smc.lookup import encrypt_indicator_vector
from repro.smc.network import Channel

PINS_PATH = Path(__file__).with_name("transcript_pins.json")
SIZES = ProtocolSizes(paillier_bits=384, dgk_bits=192)
PARTIAL_DISCLOSURE = (0, 1, 2, 3)


class _RecordingTransport:
    """In-process transport that hashes every payload's wire encoding."""

    def __init__(self, codec: wire.WireCodec) -> None:
        self.codec = codec
        self.digest = hashlib.sha256()

    def exchange(self, direction, body: bytes) -> Any:
        self.digest.update(direction.value.encode("ascii"))
        self.digest.update(len(body).to_bytes(4, "big"))
        self.digest.update(body)
        return self.codec.decode(body)


def _base_context() -> TwoPartyContext:
    return make_context(config=SessionConfig(
        seed=5, paillier_bits=384, dgk_bits=192, dgk_plaintext_bits=16,
    ))


def _models():
    data = generate_warfarin(n_samples=800, seed=0)
    marginals = [
        np.bincount(data.X[:, f], minlength=spec.domain_size)
        for f, spec in enumerate(data.features)
    ]
    tree = SecureDecisionTreeClassifier(
        DecisionTreeClassifier(max_depth=4).fit(data.X, data.y),
        data.features, feature_marginals=marginals, sizes=SIZES,
    )
    naive_bayes = SecureNaiveBayesClassifier(
        NaiveBayesClassifier(domain_sizes=data.domain_sizes).fit(
            data.X, data.y
        ),
        data.features, sizes=SIZES,
    )
    linear = SecureLinearClassifier(
        LogisticRegressionClassifier(iterations=40).fit(data.X, data.y),
        data.features, sizes=SIZES,
    )
    return data.X[:2], tree, naive_bayes, linear


def _plain(ctx: TwoPartyContext, value: Any) -> Any:
    """JSON view of a protocol output (ciphertexts are decrypted)."""
    if isinstance(value, PaillierCiphertext):
        return ctx.paillier.private_key.decrypt(value)
    if isinstance(value, (list, tuple)):
        return [_plain(ctx, item) for item in value]
    if hasattr(value, "client_share"):
        return [value.client_share, value.server_share]
    return int(value)


def _scenarios() -> Dict[str, Callable[[TwoPartyContext], Any]]:
    rows, tree, naive_bayes, linear = _models()

    def enc(ctx, value):
        return ctx.server_encrypt(value)

    def nb_lookup(ctx):
        indicators = encrypt_indicator_vector(ctx, 2, 5)
        return encrypted_dot_product(ctx, indicators, [7, 0, -3, 11, 4])

    scenarios: Dict[str, Callable[[TwoPartyContext], Any]] = {
        "dgk_compare": lambda ctx: [
            dgk_compare(ctx, x, y, 8) for x, y in ((5, 9), (9, 5), (7, 7))
        ],
        "dgk_compare_many": lambda ctx: dgk_compare_many(
            ctx, [(5, 9), (9, 5), (7, 7), (0, 255)], 8
        ),
        "compare_encrypted": lambda ctx: [
            compare_encrypted(ctx, enc(ctx, z), 8) for z in (3, 256, 511)
        ],
        "compare_encrypted_many": lambda ctx: compare_encrypted_many(
            ctx, [enc(ctx, z) for z in (0, 255, 256, 300, 511)], 8
        ),
        "compare_encrypted_client_learns": lambda ctx: [
            compare_encrypted_client_learns(ctx, enc(ctx, z), 8)
            for z in (17, 400)
        ],
        "compare_values_encrypted": lambda ctx: compare_values_encrypted(
            ctx, enc(ctx, 41), enc(ctx, 40), 8
        ),
        "sign_test": lambda ctx: [
            sign_test_client_learns(ctx, enc(ctx, s), 10)
            for s in (-300, 0, 77)
        ],
        "secure_argmax": lambda ctx: secure_argmax(
            ctx, [enc(ctx, v) for v in (12, 90, 33, 90, 5)], 8
        ),
        "nb_lookup": nb_lookup,
    }
    for name, model in (
        ("naive_bayes", naive_bayes), ("tree", tree),
        ("linear_shares", linear),
    ):
        for suffix, disclosure in (
            ("none", ()), ("partial", PARTIAL_DISCLOSURE),
        ):
            scenarios[f"{name}_{suffix}"] = (
                lambda ctx, model=model, disclosure=disclosure: [
                    model.classify(ctx, row, disclosure) for row in rows
                ]
            )
    return scenarios


def _run(base: TwoPartyContext, name: str, scenario) -> Dict[str, Any]:
    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    recorder = _RecordingTransport(wire.codec_for_context(base))
    ctx = dataclasses.replace(
        base,
        channel=Channel(transport=recorder),
        client_rng=fresh_rng(seed),
        server_rng=fresh_rng(seed + 1),
    )
    if "shares" in name:
        ctx.protocol_backend = SharesBackend(rng=fresh_rng(seed + 2))
    result = _plain(ctx, scenario(ctx))
    trace = ctx.trace
    return {
        "sha256": recorder.digest.hexdigest(),
        "ops": {op.value: n for op, n in sorted(
            trace.ops.items(), key=lambda kv: kv[0].value) if n},
        "bytes_client_to_server": trace.bytes_client_to_server,
        "bytes_server_to_client": trace.bytes_server_to_client,
        "messages": trace.messages,
        "rounds": trace.rounds,
        "result": result,
    }


def _load_pins() -> Dict[str, Any]:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


@pytest.fixture(scope="module")
def pinned():
    return _load_pins()


@pytest.fixture(scope="module")
def harness():
    return _base_context(), _scenarios()


@pytest.mark.parametrize("name", sorted(_load_pins()))
def test_transcript_matches_pin(harness, pinned, name):
    base, scenarios = harness
    assert _run(base, name, scenarios[name]) == pinned[name]


def test_every_scenario_is_pinned(harness, pinned):
    _, scenarios = harness
    assert sorted(scenarios) == sorted(pinned)


if __name__ == "__main__":  # pragma: no cover - re-baselining entry
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(
            "usage: python tests/secure/test_transcript_pins.py --write"
        )
    base_ctx = _base_context()
    pins = {
        name: _run(base_ctx, name, scenario)
        for name, scenario in sorted(_scenarios().items())
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
