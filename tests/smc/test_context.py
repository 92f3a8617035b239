"""Tests for the two-party session context."""

import pytest

from repro.core.session import SessionConfig
from repro.smc.context import make_context
from repro.smc.protocol import Op


class TestMakeContext:
    def test_deterministic_keys(self):
        a = make_context(config=SessionConfig(
            seed=5, paillier_bits=256, dgk_bits=192, dgk_plaintext_bits=10,
        ))
        b = make_context(config=SessionConfig(
            seed=5, paillier_bits=256, dgk_bits=192, dgk_plaintext_bits=10,
        ))
        assert a.paillier.public_key.n == b.paillier.public_key.n
        assert a.dgk.public_key.n == b.dgk.public_key.n

    def test_party_rngs_independent(self):
        ctx = make_context(config=SessionConfig(
            seed=6, paillier_bits=256, dgk_bits=192, dgk_plaintext_bits=10,
        ))
        assert ctx.client_rng.getrandbits(64) != ctx.server_rng.getrandbits(64)


class TestCountedHelpers:
    def test_encrypt_decrypt_roundtrip_and_counting(self, fresh_context):
        ctx = fresh_context
        ct = ctx.client_encrypt(-5)
        assert ctx.client_decrypt(ct) == -5
        assert ctx.trace.op_count(Op.PAILLIER_ENCRYPT) == 1
        assert ctx.trace.op_count(Op.PAILLIER_DECRYPT) == 1

    def test_add_and_scalar_mul_counted(self, fresh_context):
        ctx = fresh_context
        a = ctx.client_encrypt(2)
        b = ctx.server_encrypt(3)
        total = ctx.add(a, b)
        (scaled,) = ctx.blind_batch([total], [4], [None])
        assert ctx.client_decrypt(scaled) == 20
        assert ctx.trace.op_count(Op.PAILLIER_ADD) == 1
        assert ctx.trace.op_count(Op.PAILLIER_SCALAR_MUL) == 1

    def test_rerandomize_counted(self, fresh_context):
        ctx = fresh_context
        ct = ctx.client_encrypt(9)
        fresh = ctx.rerandomize(ct)
        assert ctx.client_decrypt(fresh) == 9
        assert ctx.trace.op_count(Op.PAILLIER_RERANDOMIZE) == 1

    def test_blinding_noise_width(self, fresh_context):
        noise = fresh_context.blinding_noise(16)
        assert noise < 1 << (16 + fresh_context.statistical_security_bits)
