"""Failure injection: corrupted inputs must fail loudly, not silently.

Semi-honest protocols assume well-formed messages; these tests verify
that the library's *local* validation surfaces misuse as typed
exceptions (never wrong answers) wherever detection is possible, and
that undetectable corruptions (a semantically-valid but wrong
ciphertext) at least stay within the declared output domain.
"""

import numpy as np
import pytest

from repro.crypto.paillier import PaillierCiphertext, PaillierError, PaillierKeyPair
from repro.crypto.rand import fresh_rng
from repro.crypto.secret_sharing import AdditiveSecretSharer, AdditiveShare
from repro.secure.base import SecureClassificationError
from repro.smc.comparison import ComparisonError, compare_encrypted_client_learns


class TestCorruptedCiphertexts:
    def test_cross_key_ciphertext_rejected_end_to_end(self, session_context):
        foreign = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(50))
        ct = foreign.public_key.encrypt(5, rng=fresh_rng(51))
        with pytest.raises(PaillierError):
            session_context.client_decrypt(ct)

    def test_comparison_detects_out_of_range_plaintext(self, session_context):
        # Declaring 4 bits but encrypting a 10-bit value must be caught
        # by the client's reconstruction check, not mis-answered.
        ctx = session_context
        too_big = ctx.paillier.public_key.encrypt(777, rng=ctx.server_rng)
        with pytest.raises(ComparisonError, match="bit length"):
            compare_encrypted_client_learns(ctx, too_big, 4)

    def test_tampered_ciphertext_changes_plaintext_not_type(self, paillier_keys):
        # Flipping ciphertext bits yields a *different valid plaintext*
        # (malleability is inherent to Paillier); the decryption API
        # must still return a well-typed integer.
        ct = paillier_keys.public_key.encrypt(42, rng=fresh_rng(52))
        tampered = PaillierCiphertext(
            public_key=ct.public_key,
            value=(ct.value * 3) % ct.public_key.n_squared,
        )
        result = paillier_keys.private_key.decrypt(tampered)
        assert isinstance(result, int)


class TestCorruptedShares:
    def test_flipped_share_breaks_reconstruction_detectably(self):
        sharer = AdditiveSecretSharer(rng=fresh_rng(53))
        shares = sharer.share(1000, parties=2)
        corrupted = [shares[0], AdditiveShare(shares[1].value ^ 1,
                                              shares[1].modulus)]
        assert sharer.reconstruct(corrupted) != 1000

    def test_mixed_modulus_shares_rejected(self):
        sharer = AdditiveSecretSharer(modulus=1 << 32, rng=fresh_rng(54))
        good = sharer.share(5)
        bad = [good[0], AdditiveShare(1, 1 << 16)]
        from repro.crypto.secret_sharing import SecretSharingError

        with pytest.raises(SecretSharingError):
            sharer.reconstruct(bad)


class TestMalformedRows:
    def test_out_of_domain_feature_rejected_before_crypto(
        self, warfarin_split, fresh_context
    ):
        from repro.classifiers import NaiveBayesClassifier
        from repro.secure import SecureNaiveBayesClassifier

        train, _ = warfarin_split
        model = NaiveBayesClassifier(domain_sizes=train.domain_sizes).fit(
            train.X, train.y
        )
        secure = SecureNaiveBayesClassifier(model, train.features)
        bad_row = train.X[0].copy()
        bad_row[0] = 99
        bytes_before = fresh_context.trace.total_bytes
        with pytest.raises(SecureClassificationError):
            secure.classify(fresh_context, bad_row)
        # Validation fired before anything crossed the wire.
        assert fresh_context.trace.total_bytes == bytes_before

    def test_wrong_arity_row_rejected(self, warfarin_split, fresh_context):
        from repro.classifiers import DecisionTreeClassifier
        from repro.secure import SecureDecisionTreeClassifier

        train, _ = warfarin_split
        model = DecisionTreeClassifier(max_depth=3).fit(train.X, train.y)
        secure = SecureDecisionTreeClassifier(model, train.features)
        with pytest.raises(SecureClassificationError):
            secure.classify(fresh_context, np.zeros(3, dtype=int))


class TestTranscriptIndistinguishability:
    """The wire footprint must not depend on the client's hidden values
    -- otherwise message sizes alone leak the inputs."""

    def test_linear_transcript_independent_of_hidden_values(
        self, warfarin_split
    ):
        from repro.classifiers import LogisticRegressionClassifier
        from repro.core.session import SessionConfig
        from repro.secure import SecureLinearClassifier
        from repro.smc.context import make_context

        train, test = warfarin_split
        model = LogisticRegressionClassifier(iterations=100).fit(
            train.X, train.y
        )
        secure = SecureLinearClassifier(model, train.features)

        profiles = set()
        for row in test.X[:4]:
            ctx = make_context(config=SessionConfig(
                seed=77, paillier_bits=384, dgk_bits=192,
                dgk_plaintext_bits=16,
            ))
            secure.classify(ctx, row, [0, 1, 2])
            profiles.add((ctx.trace.messages, ctx.trace.rounds))
        # Same message/round profile for every input.
        assert len(profiles) == 1

    def test_nb_byte_counts_stable_across_inputs(self, warfarin_split):
        from repro.classifiers import NaiveBayesClassifier
        from repro.core.session import SessionConfig
        from repro.secure import SecureNaiveBayesClassifier
        from repro.smc.context import make_context

        train, test = warfarin_split
        model = NaiveBayesClassifier(domain_sizes=train.domain_sizes).fit(
            train.X, train.y
        )
        secure = SecureNaiveBayesClassifier(model, train.features)
        byte_counts = []
        for row in test.X[:3]:
            ctx = make_context(config=SessionConfig(
                seed=78, paillier_bits=384, dgk_bits=192,
                dgk_plaintext_bits=16,
            ))
            secure.classify(ctx, row, list(range(6)))
            byte_counts.append(ctx.trace.total_bytes)
        spread = max(byte_counts) - min(byte_counts)
        # Ciphertext sizes are fixed; only tiny plaintext ints (the
        # disclosed values) may vary by a byte or two.
        assert spread <= 64
