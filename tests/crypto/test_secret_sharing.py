"""Tests for additive secret sharing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rand import fresh_rng
from repro.crypto.secret_sharing import (
    AdditiveSecretSharer,
    AdditiveShare,
    SecretSharingError,
)


class TestAdditiveSharing:
    @given(st.integers(-(2**40), 2**40), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, secret, parties):
        sharer = AdditiveSecretSharer(rng=fresh_rng(secret & 0xFFFF))
        shares = sharer.share(secret, parties=parties)
        assert len(shares) == parties
        assert sharer.reconstruct(shares) == secret

    def test_single_party_rejected(self):
        with pytest.raises(SecretSharingError):
            AdditiveSecretSharer().share(1, parties=1)

    def test_empty_reconstruct_rejected(self):
        with pytest.raises(SecretSharingError):
            AdditiveSecretSharer().reconstruct([])

    def test_modulus_mismatch_rejected(self):
        sharer = AdditiveSecretSharer(modulus=1 << 32)
        foreign = AdditiveShare(1, 1 << 16)
        with pytest.raises(SecretSharingError):
            sharer.reconstruct([foreign, foreign])

    def test_partial_shares_look_random(self):
        # Any strict subset reconstructs to something unrelated.
        sharer = AdditiveSecretSharer(rng=fresh_rng(42))
        shares = sharer.share(123456789, parties=3)
        partial = sum(s.value for s in shares[:2]) % sharer.modulus
        assert partial != 123456789

    def test_share_arithmetic(self):
        modulus = 1 << 32
        a = AdditiveShare(10, modulus)
        b = AdditiveShare(5, modulus)
        assert (a + b).value == 15
        assert (a - b).value == 5
        assert (a * 3).value == 30
        assert (3 * a).value == 30
        assert (a + 7).value == 17
        assert (a - 12).value == (10 - 12) % modulus

    def test_linearity_of_shares(self):
        sharer = AdditiveSecretSharer(rng=fresh_rng(7))
        xs = sharer.share(20)
        ys = sharer.share(22)
        combined = [x + y for x, y in zip(xs, ys)]
        assert sharer.reconstruct(combined) == 42
