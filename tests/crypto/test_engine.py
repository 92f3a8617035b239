"""Tests for the batch crypto engine: serial/concurrent parity, CRT
decryption equivalence, and fused dot products."""

import copy
import dataclasses
import random
import sys
import threading

import pytest

from repro.crypto.engine import CryptoEngine, EngineError, _multiexp
from repro.crypto.modexp import ModexpError, gmpy2_available, resolve_backend
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierPrivateKey,
)
from repro.core.session import SessionConfig
from repro.crypto.rand import fresh_rng
from repro.smc.argmax import secure_argmax
from repro.smc.context import make_context
from repro.smc.dotproduct import encrypt_feature_vector, encrypted_dot_product
from repro.smc.protocol import Op

from tests.conftest import TEST_DGK_BITS, TEST_PAILLIER_BITS


class ConcurrentEngine:
    """Drives one shared engine from several threads at once, the way a
    server's request handlers share theirs.

    Every method call runs on ``threads`` threads simultaneously, each
    with its own deep copy of the arguments (so each thread draws from
    an identical copy of any rng), and must give every thread the same
    answer, which it returns.
    """

    def __init__(self, engine, threads=2):
        self.engine = engine
        self.threads = threads

    def __getattr__(self, name):
        method = getattr(self.engine, name)

        def call(*args, **kwargs):
            results = [None] * self.threads
            barrier = threading.Barrier(self.threads)

            def run(slot, args, kwargs):
                barrier.wait()
                results[slot] = method(*args, **kwargs)

            workers = [
                threading.Thread(
                    target=run,
                    args=(slot, copy.deepcopy(args), copy.deepcopy(kwargs)),
                )
                for slot in range(self.threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            first = _comparable(results[0])
            assert all(_comparable(r) == first for r in results[1:])
            return results[0]

        return call


def _comparable(result):
    if isinstance(result, list):
        return [getattr(item, "value", item) for item in result]
    return getattr(result, "value", result)


@pytest.fixture(scope="module")
def serial_engine():
    return CryptoEngine()


@pytest.fixture(scope="module")
def parallel_engine(serial_engine):
    return ConcurrentEngine(serial_engine)


class TestFactory:
    def test_backend_names(self, serial_engine):
        from repro.crypto.modexp import MODEXP_BACKENDS
        assert serial_engine.modexp_name in MODEXP_BACKENDS
        assert CryptoEngine(modexp="python").modexp_name == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModexpError):
            CryptoEngine(modexp="gpu")


class TestSerialParallelParity:
    """One engine shared by concurrent threads must be bit-identical to
    serial use under a fixed DeterministicRandom seed."""

    def test_encrypt_batch_identical_ciphertexts(
        self, paillier_keys, serial_engine, parallel_engine
    ):
        values = list(range(-30, 30))
        serial = serial_engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(42)
        )
        parallel = parallel_engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(42)
        )
        assert [ct.value for ct in serial] == [ct.value for ct in parallel]

    def test_encrypt_batch_matches_single_encrypt_loop(
        self, paillier_keys, serial_engine
    ):
        values = [5, -3, 0, 17]
        batch = serial_engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(9)
        )
        rng = fresh_rng(9)
        loop = [paillier_keys.public_key.encrypt(v, rng=rng) for v in values]
        assert [ct.value for ct in batch] == [ct.value for ct in loop]

    def test_decrypt_batch_round_trip(
        self, paillier_keys, serial_engine, parallel_engine
    ):
        values = [0, 1, -1, 123456, -654321]
        cts = serial_engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(3)
        )
        assert serial_engine.decrypt_batch(paillier_keys.private_key, cts) \
            == values
        assert parallel_engine.decrypt_batch(paillier_keys.private_key, cts) \
            == values

    def test_rerandomize_batch_parity_and_plaintext(
        self, paillier_keys, serial_engine, parallel_engine
    ):
        values = [7, -7, 0, 99]
        cts = serial_engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(5)
        )
        serial = serial_engine.rerandomize_batch(cts, rng=fresh_rng(6))
        parallel = parallel_engine.rerandomize_batch(cts, rng=fresh_rng(6))
        assert [ct.value for ct in serial] == [ct.value for ct in parallel]
        assert all(a.value != b.value for a, b in zip(cts, serial))
        assert serial_engine.decrypt_batch(
            paillier_keys.private_key, serial
        ) == values

    def test_dot_product_parity_and_value(
        self, paillier_keys, serial_engine, parallel_engine
    ):
        values = list(range(-16, 16))
        weights = [((i * 37) % 23) - 11 for i in range(32)]
        cts = serial_engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(8)
        )
        serial = serial_engine.dot_product(cts, weights)
        parallel = parallel_engine.dot_product(cts, weights)
        assert serial.value == parallel.value
        expected = sum(w * v for w, v in zip(weights, values))
        assert paillier_keys.private_key.decrypt(serial) == expected

    def test_dot_product_all_zero_weights_is_none(
        self, paillier_keys, serial_engine
    ):
        cts = serial_engine.encrypt_batch(
            paillier_keys.public_key, [1, 2], rng=fresh_rng(10)
        )
        assert serial_engine.dot_product(cts, [0, 0]) is None

    def test_length_mismatch_rejected(self, paillier_keys, serial_engine):
        cts = serial_engine.encrypt_batch(
            paillier_keys.public_key, [1], rng=fresh_rng(11)
        )
        with pytest.raises(EngineError):
            serial_engine.dot_product(cts, [1, 2])
        with pytest.raises(EngineError):
            serial_engine.blind_batch(cts, [1, 2], [None])

    def test_empty_batches(self, paillier_keys, serial_engine):
        assert serial_engine.encrypt_batch(
            paillier_keys.public_key, []
        ) == []
        assert serial_engine.decrypt_batch(
            paillier_keys.private_key, []
        ) == []
        assert serial_engine.rerandomize_batch([]) == []


class TestCrtDecryption:
    """CRT decryption must agree with the standard path everywhere,
    including the signed-encoding edges."""

    def edge_values(self, public_key):
        bound = public_key.signed_bound
        return [0, 1, -1, 2, -2, bound - 1, -(bound - 1), 10**9, -(10**9)]

    def test_crt_equals_standard_on_edges(self, paillier_keys):
        rng = fresh_rng(21)
        private = paillier_keys.private_key
        assert private.has_crt
        for value in self.edge_values(paillier_keys.public_key):
            ct = paillier_keys.public_key.encrypt(value, rng=rng)
            assert private.decrypt_raw_crt(ct) == \
                private.decrypt_raw_standard(ct)
            assert private.decrypt(ct) == value

    def test_key_without_factors_falls_back(self, paillier_keys):
        stripped = PaillierPrivateKey(
            public_key=paillier_keys.public_key,
            lam=paillier_keys.private_key.lam,
            mu=paillier_keys.private_key.mu,
        )
        assert not stripped.has_crt
        ct = paillier_keys.public_key.encrypt(-777, rng=fresh_rng(22))
        assert stripped.decrypt(ct) == -777
        engine = CryptoEngine()
        assert engine.decrypt_batch(stripped, [ct]) == [-777]

    def test_batch_decrypt_uses_crt_consistently(self, paillier_keys):
        engine = CryptoEngine()
        values = self.edge_values(paillier_keys.public_key)
        cts = engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(23)
        )
        assert engine.decrypt_batch(paillier_keys.private_key, cts) == values


class TestContextParity:
    """A session that builds its own engine and a same-seed session
    handed a prebuilt engine (as a server's request contexts are) must
    produce identical ciphertexts, results and traces."""

    @pytest.fixture(scope="class")
    def contexts(self):
        config = SessionConfig(
            seed=33,
            paillier_bits=TEST_PAILLIER_BITS,
            dgk_bits=TEST_DGK_BITS,
            dgk_plaintext_bits=16,
        )
        serial_ctx = make_context(config=config)
        parallel_ctx = make_context(config=config, engine=CryptoEngine())
        yield serial_ctx, parallel_ctx

    def test_dot_product_protocol_parity(self, contexts):
        serial_ctx, parallel_ctx = contexts
        xs = [3, -4, 5, 0, 7, -1]
        weights = [2, 0, -3, 4, 1, 6]
        expected = sum(w * x for w, x in zip(weights, xs)) + 11
        outputs = []
        for ctx in (serial_ctx, parallel_ctx):
            # Both contexts run the exact same protocol steps so their
            # traces stay comparable in the next test.
            encs = encrypt_feature_vector(ctx, xs)
            score = encrypted_dot_product(ctx, encs, weights,
                                          plaintext_offset=11)
            assert ctx.client_decrypt_batch([score]) == [expected]
            outputs.append(([ct.value for ct in encs], score.value))
        assert outputs[0] == outputs[1]

    def test_argmax_and_trace_summaries_identical(self, contexts):
        serial_ctx, parallel_ctx = contexts
        scores = [9, 40, 23, 31]
        winners = []
        summaries = []
        for ctx in (serial_ctx, parallel_ctx):
            encrypted = ctx.server_encrypt_batch(scores)
            winners.append(secure_argmax(ctx, encrypted, bit_length=8))
            summary = ctx.trace.summary()
            summary.pop("wall_seconds")
            summaries.append(summary)
        assert winners[0] == winners[1] == 1
        assert summaries[0] == summaries[1]


class TestKeyConsistencyValidation:
    """Batch ops must reject ciphertext lists spanning multiple keys
    up front, before any expensive work runs."""

    @pytest.fixture(scope="class")
    def other_keys(self):
        from repro.crypto.paillier import PaillierKeyPair
        return PaillierKeyPair.generate(
            key_bits=TEST_PAILLIER_BITS, rng=fresh_rng(777)
        )

    def _mixed(self, paillier_keys, other_keys):
        rng = fresh_rng(778)
        return [
            paillier_keys.public_key.encrypt(1, rng=rng),
            other_keys.public_key.encrypt(2, rng=rng),
        ]

    def test_rerandomize_batch_rejects_mixed_keys(
        self, paillier_keys, other_keys, serial_engine
    ):
        mixed = self._mixed(paillier_keys, other_keys)
        with pytest.raises(EngineError, match="different public key"):
            serial_engine.rerandomize_batch(mixed, rng=fresh_rng(779))

    def test_dot_product_rejects_mixed_keys(
        self, paillier_keys, other_keys, serial_engine
    ):
        mixed = self._mixed(paillier_keys, other_keys)
        with pytest.raises(EngineError, match="different public key"):
            serial_engine.dot_product(mixed, [3, 4])

    def test_error_names_offending_index(
        self, paillier_keys, other_keys, serial_engine
    ):
        rng = fresh_rng(780)
        cts = [paillier_keys.public_key.encrypt(i, rng=rng) for i in range(3)]
        cts.append(other_keys.public_key.encrypt(9, rng=rng))
        with pytest.raises(EngineError, match="ciphertext 3"):
            serial_engine.dot_product(cts, [1, 1, 1, 1])

    def test_single_key_batches_still_work(
        self, paillier_keys, serial_engine
    ):
        rng = fresh_rng(781)
        cts = [paillier_keys.public_key.encrypt(v, rng=rng) for v in (5, 6)]
        out = serial_engine.rerandomize_batch(cts, rng=rng)
        assert [paillier_keys.private_key.decrypt(c) for c in out] == [5, 6]


class TestMultiexp:
    """The windowed multi-exponentiation equals the product of ``pow``s
    for every mix of widths, on both bignum backends."""

    @pytest.mark.parametrize("backend_name", ["python", "gmpy2"])
    def test_matches_pow(self, backend_name, paillier_keys):
        if backend_name == "gmpy2" and not gmpy2_available():
            pytest.skip("optional gmpy2 package not installed")
        backend = resolve_backend(backend_name)
        public = paillier_keys.public_key
        n, n_sq = public.n, public.n_squared
        rnd = random.Random(830)
        wide = [n, n - 1, rnd.randrange(n), (1 << 600) - 1, 1 << 1100]
        short = [0, 1, 2, 3, 0xFFFF, rnd.getrandbits(40), rnd.getrandbits(127)]
        cases = [
            [wide[0]], [short[4]], [0],
            [wide[1], n], [short[5], wide[2]], [0, n], [short[6], 0],
            [wide[3], short[4], 1], [wide[4], wide[0], short[5]],
            [0, 0, 0], [short[1], short[2], short[3]],
        ]
        for exponents in cases:
            bases = [rnd.randrange(1, n_sq) for _ in exponents]
            expected = 1
            for base, exponent in zip(bases, exponents):
                expected = expected * pow(base, exponent, n_sq) % n_sq
            assert _multiexp(bases, exponents, n_sq, backend) == expected

    def test_negative_exponent_rejected(self, paillier_keys):
        with pytest.raises(EngineError, match="non-negative"):
            _multiexp([2, 3], [5, -1], paillier_keys.public_key.n_squared,
                      resolve_backend("python"))


class TestBlindBatch:
    """One fused c^rho * (1 + a n) * r^n per slot, bit-identical to the
    scalar multiplication, offset add and refresh it replaces."""

    @staticmethod
    def _unfused(engine, cts, scalars, offsets, rng):
        """The three steps blind_batch fuses, one after another."""
        public = cts[0].public_key
        shifted = []
        for ct, scalar, offset in zip(cts, scalars, offsets):
            powered = PaillierCiphertext(
                public_key=public,
                value=pow(ct.value, scalar % public.n, public.n_squared),
            )
            shifted.append(powered if offset is None else powered + offset)
        return engine.rerandomize_batch(shifted, rng=rng)

    def test_equals_scalar_mul_add_rerandomize(
        self, paillier_keys, serial_engine, parallel_engine
    ):
        public = paillier_keys.public_key
        n = public.n
        cts = serial_engine.encrypt_batch(
            public, [0, 3, -7, 11], rng=fresh_rng(840)
        )
        scalars = [1, n - 5, fresh_rng(841).randbelow(n), n + 9]
        offsets = [None, 4, None, 0]
        expected = self._unfused(
            serial_engine, cts, scalars, offsets, fresh_rng(842)
        )
        for engine in (serial_engine, parallel_engine):
            fused = engine.blind_batch(
                cts, scalars, offsets, rng=fresh_rng(842)
            )
            assert [c.value for c in fused] == [c.value for c in expected]
        assert [paillier_keys.private_key.decrypt_raw(c) for c in fused] \
            == [0, 3 * (n - 5) % n + 4, -7 * scalars[2] % n, 11 * 9]

    def test_rejects_length_mismatch_and_mixed_keys(
        self, paillier_keys, serial_engine
    ):
        from repro.crypto.paillier import PaillierKeyPair
        public = paillier_keys.public_key
        a = public.encrypt(1, rng=fresh_rng(846))
        with pytest.raises(EngineError, match="offsets"):
            serial_engine.blind_batch([a, a], [2, 3], [None])
        other = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(847))
        b = other.public_key.encrypt(1, rng=fresh_rng(848))
        with pytest.raises(EngineError, match="ciphertext 1"):
            serial_engine.blind_batch([a, b], [2, 3], [None, None])
        assert serial_engine.blind_batch([], [], []) == []


class TestPoolDraining:
    """encrypt_batch / rerandomize_batch drain an attached precompute
    pool before falling back to fresh exponentiations."""

    def test_encrypt_batch_drains_attached_pool(self, paillier_keys):
        from repro.crypto.precompute import PrecomputedEncryptionPool
        engine = CryptoEngine()
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=8, rng=fresh_rng(800)
        )
        engine.attach_pool(pool)
        values = list(range(5))
        out = engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(801)
        )
        assert pool.remaining == 3  # 5 of 8 factors consumed
        assert [paillier_keys.private_key.decrypt(c) for c in out] == values

    def test_encrypt_batch_tops_up_past_pool_shortfall(self, paillier_keys):
        from repro.crypto.precompute import PrecomputedEncryptionPool
        engine = CryptoEngine()
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=2, rng=fresh_rng(802)
        )
        engine.attach_pool(pool)
        values = list(range(6))
        out = engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(803)
        )
        assert pool.remaining == 0
        assert [paillier_keys.private_key.decrypt(c) for c in out] == values

    def test_rerandomize_batch_drains_pool(self, paillier_keys):
        from repro.crypto.precompute import PrecomputedEncryptionPool
        engine = CryptoEngine()
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=4, rng=fresh_rng(804)
        )
        engine.attach_pool(pool)
        rng = fresh_rng(805)
        cts = [paillier_keys.public_key.encrypt(v, rng=rng) for v in (1, 2)]
        out = engine.rerandomize_batch(cts, rng=rng)
        assert pool.remaining == 2
        assert [c.value for c in out] != [c.value for c in cts]
        assert [paillier_keys.private_key.decrypt(c) for c in out] == [1, 2]

    def test_no_pool_path_bit_identical_to_seed_behaviour(
        self, paillier_keys, serial_engine
    ):
        # The pool only changes behaviour when explicitly attached: the
        # default path must stay transcript-identical to a plain loop.
        values = [0, 1, -5, 99]
        batch = serial_engine.encrypt_batch(
            paillier_keys.public_key, values, rng=fresh_rng(808)
        )
        rng = fresh_rng(808)
        loop = [paillier_keys.public_key.encrypt(v, rng=rng) for v in values]
        assert [c.value for c in batch] == [c.value for c in loop]


def _edge_values(public_key):
    half = public_key.n // 2
    return [0, 1, -1, -2, -123456789, half - 1, -(half - 1)]


class TestKeyOwnerEncryption:
    """With the private key, the nonce powers run by CRT; the
    ciphertexts must equal the public-key encryptions bit for bit."""

    def test_crt_encrypt_batch_bit_identical(
        self, paillier_keys, serial_engine, parallel_engine
    ):
        public = paillier_keys.public_key
        values = _edge_values(public)
        rng = fresh_rng(820)
        reference = [public.encrypt(v, rng=rng) for v in values]
        for engine in (serial_engine, parallel_engine):
            crt = engine.encrypt_batch(
                public, values, rng=fresh_rng(820),
                private_key=paillier_keys.private_key,
            )
            assert [c.value for c in crt] == [c.value for c in reference]

    def test_key_without_factors_takes_public_path(
        self, paillier_keys, serial_engine
    ):
        private = paillier_keys.private_key
        stripped = PaillierPrivateKey(
            public_key=private.public_key, lam=private.lam, mu=private.mu
        )
        values = [3, -3]
        plain = serial_engine.encrypt_batch(
            private.public_key, values, rng=fresh_rng(821)
        )
        out = serial_engine.encrypt_batch(
            private.public_key, values, rng=fresh_rng(821),
            private_key=stripped,
        )
        assert [c.value for c in out] == [c.value for c in plain]

    def test_mismatched_private_key_rejected(
        self, paillier_keys, serial_engine
    ):
        from repro.crypto.paillier import PaillierKeyPair
        other = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(822))
        with pytest.raises(PaillierError, match="does not match"):
            serial_engine.encrypt_batch(
                paillier_keys.public_key, [1], rng=fresh_rng(823),
                private_key=other.private_key,
            )

    def test_context_client_encryptions_bit_identical(self):
        ctx = make_context(config=SessionConfig(
            seed=824, paillier_bits=TEST_PAILLIER_BITS,
            dgk_bits=TEST_DGK_BITS,
        ))
        public = ctx.paillier.public_key
        values = _edge_values(public)
        rng = copy.deepcopy(ctx.client_rng)
        reference = [public.encrypt(v, rng=rng) for v in values]
        singles = [ctx.client_encrypt(v) for v in values[:3]]
        batch = ctx.client_encrypt_batch(values[3:])
        assert [c.value for c in singles + batch] == \
            [c.value for c in reference]

    def test_client_refresh_bit_identical(self):
        """The argmax client's refresh runs by CRT, to the value the
        public-key path gives on the same nonce."""
        ctx = make_context(config=SessionConfig(
            seed=825, paillier_bits=TEST_PAILLIER_BITS,
            dgk_bits=TEST_DGK_BITS,
        ))
        chosen = ctx.server_encrypt(-9)
        rng = copy.deepcopy(ctx.client_rng)
        reference = [chosen.rerandomize(rng=rng) for _ in range(3)]
        refreshed = [ctx.client_rerandomize(chosen) for _ in range(3)]
        assert [c.value for c in refreshed] == [c.value for c in reference]
        assert ctx.trace.op_count(Op.PAILLIER_RERANDOMIZE) == 3


class _PublicHalfOnly:
    """A key pair whose private half raises on any access."""

    def __init__(self, public_key):
        self.public_key = public_key

    @property
    def private_key(self):
        raise AssertionError("server-role code read the client's private key")


class TestServerRoleKeyIsolation:
    """The server's methods take the client's public key only, so a
    speedup from the factors can never leak into the server role."""

    def test_server_methods_never_touch_private_key(self):
        ctx = make_context(config=SessionConfig(
            seed=826, paillier_bits=TEST_PAILLIER_BITS,
            dgk_bits=TEST_DGK_BITS,
        ))
        private = ctx.paillier.private_key
        server = dataclasses.replace(
            ctx, paillier=_PublicHalfOnly(ctx.paillier.public_key)
        )
        a = server.server_encrypt(4)
        b, c = server.server_encrypt_batch([-3, 6])
        outs = [
            a, b, c,
            server.rerandomize(a),
            *server.rerandomize_batch([b, c]),
            *server.blind_batch([b, c], [5, 1], [None, 2]),
            server.add(a, b),
        ]
        assert [private.decrypt(ct) for ct in outs] == \
            [4, -3, 6, 4, -3, 6, -15, 8, 1]
        with pytest.raises(AssertionError, match="private key"):
            server.client_encrypt(1)


class TestModexpSelection:
    def test_engine_reports_modexp_name(self):
        engine = CryptoEngine(modexp="python")
        assert engine.modexp_name == "python"

    def test_default_engine_resolves_auto(self):
        from repro.crypto.modexp import gmpy2_available
        engine = CryptoEngine()
        expected = "gmpy2" if gmpy2_available() else "python"
        assert engine.modexp_name == expected

    def test_process_default_is_the_one_backend_switch(
        self, warfarin_split
    ):
        """A backend installed with ``set_default_backend`` runs every
        modexp of a classification: the engines ``make_context`` and a
        server build use it, and so does the module-level ``powmod`` of
        the DGK and scalar paths."""
        import socket

        from repro.api import PipelineConfig, PrivacyAwareClassifier
        from repro.core.serialization import (
            deployment_from_dict,
            deployment_to_dict,
        )
        from repro.crypto import modexp
        from repro.serving import ClassificationServer

        class CountingModexp(modexp.PythonModexp):
            name = "counting"

            def __init__(self):
                self.engine_calls = 0
                self.module_calls = 0

            def powmod(self, base, exponent, modulus):
                # The module-level powmod() is one caller; every other
                # caller reaches this backend through an engine.
                if sys._getframe(1).f_code is modexp.powmod.__code__:
                    self.module_calls += 1
                else:
                    self.engine_calls += 1
                return pow(base, exponent, modulus)

            def wrap(self, value):  # the multi-exponentiation's entry
                self.engine_calls += 1
                return value

        train, test = warfarin_split
        pipeline = PrivacyAwareClassifier(PipelineConfig(
            classifier="naive_bayes", risk_sample_rows=50,
            paillier_bits=TEST_PAILLIER_BITS, dgk_bits=TEST_DGK_BITS,
        )).fit(train)
        pipeline.select_disclosure(0.1)
        deployed = deployment_from_dict(deployment_to_dict(pipeline))
        counting = CountingModexp()
        original = modexp.get_default_backend()
        modexp.set_default_backend(counting)
        try:
            ctx = make_context(config=SessionConfig(
                seed=3, paillier_bits=TEST_PAILLIER_BITS,
                dgk_bits=TEST_DGK_BITS,
            ))
            with socket.create_server(("127.0.0.1", 0)) as listener:
                server = ClassificationServer(deployed, listener)
                assert server._engine.modexp is counting
            assert ctx.engine.modexp is counting
            row = [int(v) for v in test.X[0]]
            deployed.classify(ctx, row, disclosure=[])
        finally:
            modexp.set_default_backend(original)
        assert counting.engine_calls > 0
        assert counting.module_calls > 0
