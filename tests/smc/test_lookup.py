"""Tests for private table lookups: encrypted indicator vectors folded
with the server's table column by the encrypted dot product."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smc.dotproduct import DotProductError, encrypted_dot_product
from repro.smc.lookup import LookupError_, encrypt_indicator_vector


class TestIndicatorLookup:
    def test_every_index(self, session_context):
        ctx = session_context
        table = [11, -22, 33, 44]
        for index in range(4):
            indicators = encrypt_indicator_vector(ctx, index, 4)
            result = encrypted_dot_product(ctx, indicators, table)
            assert ctx.paillier.private_key.decrypt(result) == table[index]

    def test_zero_entry(self, session_context):
        ctx = session_context
        indicators = encrypt_indicator_vector(ctx, 1, 3)
        result = encrypted_dot_product(ctx, indicators, [5, 0, 7])
        assert ctx.paillier.private_key.decrypt(result) == 0

    def test_out_of_range_index_rejected(self, session_context):
        with pytest.raises(LookupError_):
            encrypt_indicator_vector(session_context, 4, 4)

    def test_size_mismatch_rejected(self, session_context):
        indicators = encrypt_indicator_vector(session_context, 0, 3)
        with pytest.raises(DotProductError):
            encrypted_dot_product(session_context, indicators, [1, 2])

    @given(st.integers(0, 5), st.lists(st.integers(-1000, 1000),
                                       min_size=6, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_random_tables(self, session_context, index, table):
        ctx = session_context
        indicators = encrypt_indicator_vector(ctx, index, 6)
        result = encrypted_dot_product(ctx, indicators, table)
        assert ctx.paillier.private_key.decrypt(result) == table[index]

