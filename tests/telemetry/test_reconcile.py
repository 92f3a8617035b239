"""Telemetry-vs-trace reconciliation: the two accountings cannot drift.

:meth:`repro.smc.network.Channel.send` charges the execution trace and
the telemetry from the same encoded bytes; these tests pin that the
span-attributed wire bytes (plus any unattributed remainder) always sum
to the trace's total, both at the channel level and through a real
protocol run.
"""

import socket
import threading

import pytest

import repro.telemetry as telemetry
from repro.core.session import SessionConfig
from repro.smc import wire
from repro.smc.comparison import compare_encrypted_client_learns, dgk_compare
from repro.smc.context import make_context
from repro.smc.network import FRAME_OVERHEAD, Direction
from repro.smc.protocol import Op
from repro.smc.transport import TcpTransport, mirror_frames


@pytest.fixture()
def metered_context(telemetry_on):
    """A fresh context created while telemetry is already enabled."""
    return make_context(config=SessionConfig(
        seed=23, paillier_bits=384, dgk_bits=192, dgk_plaintext_bits=16,
    ))


class TestChannelReconciliation:
    def test_raw_sends_reconcile(self, metered_context):
        ctx = metered_context
        ctx.channel.send(Direction.CLIENT_TO_SERVER, 12345)
        with telemetry.span("test.block"):
            ctx.channel.send(Direction.SERVER_TO_CLIENT, [1, 2, 3])
        snap = telemetry.snapshot()
        assert telemetry.wire_bytes_total(snap) == ctx.trace.total_bytes
        # The un-spanned send lands in the unattributed counter, the
        # spanned one on the span -- nothing is double counted.
        assert snap["counters"]["wire.unattributed_bytes"] > 0
        assert telemetry.span_wire_bytes(snap) > 0

    def test_per_tag_bytes_cover_all_traffic(self, metered_context):
        ctx = metered_context
        ctx.channel.send(Direction.CLIENT_TO_SERVER, 7)
        ctx.channel.send(Direction.CLIENT_TO_SERVER, b"blob")
        ctx.channel.send(Direction.SERVER_TO_CLIENT, [1, 2])
        counters = telemetry.snapshot()["counters"]
        tagged = sum(
            value for name, value in counters.items()
            if name.startswith("wire.bytes.tag.")
        )
        assert tagged == ctx.trace.total_bytes
        assert counters["wire.bytes.tag.int"] > 0
        assert counters["wire.bytes.tag.bytes"] > 0
        assert counters["wire.bytes.tag.list"] > 0

    def test_directional_counters_match_trace(self, metered_context):
        ctx = metered_context
        ctx.channel.send(Direction.CLIENT_TO_SERVER, 1)
        ctx.channel.send(Direction.SERVER_TO_CLIENT, 2)
        ctx.channel.send(Direction.SERVER_TO_CLIENT, 3)
        counters = telemetry.snapshot()["counters"]
        assert counters["wire.bytes.client_to_server"] == \
            ctx.trace.bytes_client_to_server
        assert counters["wire.bytes.server_to_client"] == \
            ctx.trace.bytes_server_to_client
        assert counters["wire.frames"] == ctx.trace.messages


    def test_tag_names_follow_the_first_byte(self, metered_context):
        ctx = metered_context
        for payload in (None, True, False, 1.5, "s", (1,), {1: 2}):
            ctx.channel.send(Direction.CLIENT_TO_SERVER, payload)
        counters = telemetry.snapshot()["counters"]
        assert {
            name[len("wire.bytes.tag."):] for name in counters
            if name.startswith("wire.bytes.tag.")
        } == {"none", "true", "false", "float", "str", "tuple", "dict"}
        assert counters["wire.bytes.tag.none"] == FRAME_OVERHEAD + 1
        assert counters["wire.bytes.tag.float"] == FRAME_OVERHEAD + 9


class TestProtocolReconciliation:
    def test_dgk_compare_reconciles_and_spans(self, metered_context):
        ctx = metered_context
        shared = dgk_compare(ctx, 3, 5, 4)
        assert shared.value == 1
        snap = telemetry.snapshot()
        assert telemetry.wire_bytes_total(snap) == ctx.trace.total_bytes
        names = [s["name"] for s in snap["spans"]]
        assert "dgk.compare" in names

    def test_nested_protocol_spans(self, metered_context):
        ctx = metered_context
        z_encrypted = ctx.client_encrypt(9)
        compare_encrypted_client_learns(ctx, z_encrypted, 8)
        snap = telemetry.snapshot()
        assert telemetry.wire_bytes_total(snap) == ctx.trace.total_bytes
        roots = [s for s in snap["spans"]
                 if s["name"] == "compare.encrypted_client_learns"]
        assert roots, snap["spans"]
        child_names = {c["name"] for c in roots[0]["children"]}
        assert "dgk.encrypted_z_bit" in child_names

    def test_op_counters_mirror_trace(self, metered_context):
        ctx = metered_context
        dgk_compare(ctx, 1, 2, 4)
        counters = telemetry.snapshot()["counters"]
        for op, times in ctx.trace.ops.items():
            assert counters.get(f"op.{op.value}") == times, op

    def test_disabled_session_records_nothing(self, telemetry_off):
        ctx = make_context(config=SessionConfig(
            seed=29, paillier_bits=384, dgk_bits=192, dgk_plaintext_bits=16,
        ))
        dgk_compare(ctx, 2, 1, 4)
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == []
        assert ctx.trace.total_bytes > 0  # trace accounting unaffected


def _op_counters(snapshot) -> dict:
    return {
        name: value for name, value in snapshot["counters"].items()
        if name.startswith("op.")
    }


class TestOpCounters:
    """``op.*`` counters describe live work only, each op exactly once."""

    @pytest.fixture(scope="class")
    def tree(self, warfarin_split):
        from repro.classifiers.decision_tree import DecisionTreeClassifier
        from repro.secure.costing import ProtocolSizes
        from repro.secure.secure_tree import SecureDecisionTreeClassifier

        train, test = warfarin_split
        model = DecisionTreeClassifier(max_depth=4).fit(train.X, train.y)
        secure = SecureDecisionTreeClassifier(
            model, train.features,
            sizes=ProtocolSizes(paillier_bits=384, dgk_bits=192),
        )
        return secure, test.X[0]

    def test_analytic_traces_leave_op_counters_untouched(
        self, telemetry_on, tree
    ):
        secure, _ = tree
        for disclosure in ([], [0, 1], [0, 1, 2, 3]):
            trace = secure.estimated_trace(disclosure)
            assert trace.op_count(Op.PAILLIER_ENCRYPT) > 0
        assert _op_counters(telemetry.snapshot()) == {}

    def test_nested_entries_publish_each_op_once(self, metered_context):
        ctx = metered_context
        z_encrypted = ctx.server_encrypt(300)
        before = dict(ctx.trace.ops)
        compare_encrypted_client_learns(ctx, z_encrypted, 8)
        expected = {
            f"op.{op.value}": times - before.get(op, 0)
            for op, times in ctx.trace.ops.items()
            if times - before.get(op, 0)
        }
        assert _op_counters(telemetry.snapshot()) == expected

    def test_classifications_publish_their_live_ops(
        self, metered_context, tree
    ):
        secure, row = tree
        ctx = metered_context
        for disclosure in ([], [0, 1]):
            secure.classify(ctx, row, disclosure)
        expected = {
            f"op.{op.value}": times for op, times in ctx.trace.ops.items()
        }
        assert _op_counters(telemetry.snapshot()) == expected


#: Per-tag wire bytes of one query (row 0, nothing disclosed) that
#: crosses a socket transport. Keys and rngs are seeded, so these are
#: fixed; any change to them is a change to what goes on the wire.
_SERVED_TAG_BYTES = {
    "linear": {"list": 4173, "paillier": 212},
    "naive_bayes": {"list": 7126, "paillier": 212},
    "tree": {"list": 12174},
}


class TestServedTagCounters:
    """Per-tag byte counters of a query that crosses a real socket."""

    @pytest.fixture(scope="class")
    def models(self):
        from repro.classifiers.decision_tree import DecisionTreeClassifier
        from repro.classifiers.linear import LogisticRegressionClassifier
        from repro.classifiers.naive_bayes import NaiveBayesClassifier
        from repro.data import generate_warfarin
        from repro.secure.costing import ProtocolSizes
        from repro.secure.secure_linear import SecureLinearClassifier
        from repro.secure.secure_naive_bayes import (
            SecureNaiveBayesClassifier,
        )
        from repro.secure.secure_tree import SecureDecisionTreeClassifier

        sizes = ProtocolSizes(paillier_bits=384, dgk_bits=192)
        data = generate_warfarin(n_samples=800, seed=0)
        return data.X[0], {
            "linear": SecureLinearClassifier(
                LogisticRegressionClassifier(iterations=40).fit(
                    data.X, data.y
                ),
                data.features, sizes=sizes,
            ),
            "naive_bayes": SecureNaiveBayesClassifier(
                NaiveBayesClassifier(domain_sizes=data.domain_sizes).fit(
                    data.X, data.y
                ),
                data.features, sizes=sizes,
            ),
            "tree": SecureDecisionTreeClassifier(
                DecisionTreeClassifier(max_depth=4).fit(data.X, data.y),
                data.features, sizes=sizes,
            ),
        }

    @pytest.mark.parametrize("family", sorted(_SERVED_TAG_BYTES))
    def test_tag_bytes_match_the_recorded_query(
        self, metered_context, models, family
    ):
        row, secure = models
        ctx = metered_context
        near, far = socket.socketpair()
        mirrored = {}

        def mirror():
            with far:
                mirrored["stats"] = mirror_frames(far)[1]

        peer = threading.Thread(target=mirror, daemon=True)
        peer.start()
        ctx.channel.transport = TcpTransport(
            near, wire.codec_for_context(ctx), 30.0
        )
        try:
            secure[family].classify(ctx, row, [])
            wire.send_frame(near, wire.KIND_RESULT, wire.encode(None))
        finally:
            ctx.channel.transport.close()
            peer.join(timeout=10)
        assert not peer.is_alive()
        counters = telemetry.snapshot()["counters"]
        assert {
            name[len("wire.bytes.tag."):]: value
            for name, value in counters.items()
            if name.startswith("wire.bytes.tag.")
        } == _SERVED_TAG_BYTES[family]
        assert mirrored["stats"]["bytes_received"] == ctx.trace.total_bytes
