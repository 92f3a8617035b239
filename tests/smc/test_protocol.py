"""Tests for execution traces."""

import copy
import pickle

import pytest

from repro.smc.protocol import ExecutionTrace, Op


class TestOp:
    def test_members_pickle_and_copy_to_themselves(self):
        # Op hashes by identity, which is only valid while every
        # round trip gives back the singleton member.
        for op in Op:
            assert pickle.loads(pickle.dumps(op)) is op
            assert copy.deepcopy(op) is op
            assert Op(op.value) is op

    def test_pickled_counts_keep_their_keys(self):
        trace = ExecutionTrace()
        trace.count(Op.DGK_ADD, 2)
        trace.count(Op.PAILLIER_ADD, 5)
        restored = pickle.loads(pickle.dumps(trace))
        assert restored.ops[Op.DGK_ADD] == 2
        assert list(restored.ops) == [Op.DGK_ADD, Op.PAILLIER_ADD]


class TestExecutionTrace:
    def test_count_and_query(self):
        trace = ExecutionTrace()
        trace.count(Op.PAILLIER_ENCRYPT, 3)
        trace.count(Op.PAILLIER_ENCRYPT)
        assert trace.op_count(Op.PAILLIER_ENCRYPT) == 4
        assert trace.op_count(Op.DGK_ADD) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTrace().count(Op.PAILLIER_ADD, -1)

    def test_merge(self):
        a = ExecutionTrace()
        a.count(Op.PAILLIER_ADD, 2)
        a.bytes_client_to_server = 10
        a.rounds = 1
        b = ExecutionTrace()
        b.count(Op.PAILLIER_ADD, 3)
        b.count(Op.DGK_ENCRYPT, 1)
        b.bytes_server_to_client = 20
        b.rounds = 2
        a.merge(b)
        assert a.op_count(Op.PAILLIER_ADD) == 5
        assert a.op_count(Op.DGK_ENCRYPT) == 1
        assert a.total_bytes == 30
        assert a.rounds == 3

    def test_summary_keys(self):
        trace = ExecutionTrace()
        trace.count(Op.SYMMETRIC_OP, 7)
        summary = trace.summary()
        assert summary["op_symmetric_op"] == 7.0
        assert "bytes_total" in summary
        assert "rounds" in summary

    def test_iterable(self):
        trace = ExecutionTrace()
        assert dict(trace)["messages"] == 0.0
