"""Direct unit tests for the analytic costing builders."""

import pytest

from repro.secure.costing import (
    FRAME_OVERHEAD,
    LIST_OVERHEAD,
    ProtocolSizes,
    add_compare_encrypted_batch,
    add_compare_encrypted_client_learns,
    add_dgk_compare,
    add_dot_product,
    add_encrypt_vector,
    add_indicator_lookup,
    add_leaf_selection,
    add_secure_argmax,
    add_sign_test,
)
from repro.smc.protocol import ExecutionTrace, Op

SIZES = ProtocolSizes(paillier_bits=512, dgk_bits=256)


def _fresh():
    return ExecutionTrace()


class TestSizes:
    def test_ciphertext_sizes(self):
        assert SIZES.paillier_ct_bytes == 128  # 1024-bit ciphertext
        assert SIZES.dgk_ct_bytes == 32

    def test_blind_bytes_positive(self):
        assert SIZES.blind_bytes > 0


class TestDgkCompare:
    def test_linear_in_bits(self):
        small, large = _fresh(), _fresh()
        add_dgk_compare(small, 4, SIZES)
        add_dgk_compare(large, 16, SIZES)
        assert large.op_count(Op.DGK_ENCRYPT) > small.op_count(Op.DGK_ENCRYPT)
        assert large.total_bytes > small.total_bytes
        assert large.rounds == small.rounds == 2


class TestCompareEncrypted:
    def test_sign_test_wraps_client_learns(self):
        sign, bare = _fresh(), _fresh()
        add_sign_test(sign, 8, SIZES)
        add_compare_encrypted_client_learns(bare, 8, SIZES)
        assert sign.op_count(Op.PAILLIER_ADD) == \
            bare.op_count(Op.PAILLIER_ADD) + 1


class TestBatchedCompare:
    def test_empty_batch_free(self):
        trace = _fresh()
        add_compare_encrypted_batch(trace, 0, 8, SIZES)
        assert trace.rounds == 0 and trace.total_bytes == 0

    def test_constant_rounds(self):
        one, many = _fresh(), _fresh()
        add_compare_encrypted_batch(one, 1, 8, SIZES)
        add_compare_encrypted_batch(many, 50, 8, SIZES)
        assert one.rounds == many.rounds == 4

    def test_ops_linear_in_count(self):
        one, ten = _fresh(), _fresh()
        add_compare_encrypted_batch(one, 1, 8, SIZES)
        add_compare_encrypted_batch(ten, 10, 8, SIZES)
        assert ten.op_count(Op.DGK_ENCRYPT) == 10 * one.op_count(Op.DGK_ENCRYPT)

    def test_batch_cheaper_in_rounds_than_sequential(self):
        batched, sequential = _fresh(), _fresh()
        add_compare_encrypted_batch(batched, 10, 8, SIZES)
        for _ in range(10):
            add_compare_encrypted_batch(sequential, 1, 8, SIZES)
        assert batched.rounds < sequential.rounds
        # Operation totals stay comparable (same work, fewer messages).
        assert batched.op_count(Op.DGK_ZERO_TEST) == \
            sequential.op_count(Op.DGK_ZERO_TEST)


class TestArgmax:
    def test_single_candidate_free(self):
        trace = _fresh()
        add_secure_argmax(trace, 1, 8, SIZES)
        assert trace.total_bytes == 0

    def test_linear_in_candidates(self):
        three, six = _fresh(), _fresh()
        add_secure_argmax(three, 3, 8, SIZES)
        add_secure_argmax(six, 6, 8, SIZES)
        assert six.op_count(Op.PAILLIER_DECRYPT) > \
            three.op_count(Op.PAILLIER_DECRYPT)
        assert six.op_count(Op.OT_TRANSFER_1OF2) >= \
            three.op_count(Op.OT_TRANSFER_1OF2)


class TestVectorBuilders:
    def test_encrypt_vector_empty_free(self):
        trace = _fresh()
        add_encrypt_vector(trace, 0, SIZES)
        assert trace.total_bytes == 0

    def test_encrypt_vector_counts(self):
        trace = _fresh()
        add_encrypt_vector(trace, 7, SIZES)
        assert trace.op_count(Op.PAILLIER_ENCRYPT) == 7
        assert trace.bytes_client_to_server == (
            FRAME_OVERHEAD + LIST_OVERHEAD + 7 * SIZES.paillier_ct_wire_bytes
        )

    def test_dot_product_counts(self):
        trace = _fresh()
        add_dot_product(trace, 5, SIZES)
        assert trace.op_count(Op.PAILLIER_SCALAR_MUL) == 5

    def test_indicator_lookup_counts(self):
        trace = _fresh()
        add_indicator_lookup(trace, 4, SIZES)
        assert trace.op_count(Op.PAILLIER_SCALAR_MUL) == 4


class TestLeafSelection:
    def test_scales_with_leaves(self):
        few, many = _fresh(), _fresh()
        add_leaf_selection(few, 4, 3, 2.0, SIZES)
        add_leaf_selection(many, 32, 31, 5.0, SIZES)
        assert many.total_bytes > few.total_bytes
        assert many.op_count(Op.PAILLIER_DECRYPT) > \
            few.op_count(Op.PAILLIER_DECRYPT)
