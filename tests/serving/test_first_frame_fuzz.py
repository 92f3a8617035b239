"""Fuzz the first frame a server reads: every input ends in one typed reply.

One in-thread :class:`~repro.serving.ClassificationServer` takes a
stream of hypothesis-generated complete frames -- a random kind byte
and a random body of at most 512 bytes -- each on a fresh connection.
Whatever ``recv_frame -> decode -> RequestSession.from_payload`` makes
of it, the connection must get exactly one ``KIND_ERROR`` or
``KIND_HEALTH`` frame within 5 s and then be closed, and the server
must still serve a real request afterwards.
"""

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.serving import ClassificationServer
from repro.smc import wire
from repro.smc.transport import request_classification

_BITS = {"paillier_bits": 384, "dgk_bits": 192}
_REPLY_TIMEOUT_S = 5.0


@pytest.fixture(scope="module")
def deployed(warfarin_split):
    from repro.api import PipelineConfig, PrivacyAwareClassifier

    train, _ = warfarin_split
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier="naive_bayes", risk_sample_rows=100,
                       **_BITS)
    ).fit(train)
    pipeline.select_disclosure(0.1)
    return deployment_from_dict(deployment_to_dict(pipeline))


@pytest.fixture(scope="module")
def port(deployed):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    server = ClassificationServer(
        deployed, listener, config=SessionConfig(**_BITS)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield port
    server.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_every_first_frame_gets_exactly_one_typed_reply(
    port, warfarin_split
):
    @settings(max_examples=100, deadline=None)
    @given(kind=st.integers(min_value=0, max_value=255),
           body=st.binary(max_size=512))
    def one_frame(kind, body):
        with socket.create_connection(
            ("127.0.0.1", port), timeout=_REPLY_TIMEOUT_S
        ) as sock:
            wire.send_frame(sock, kind, body)
            reply_kind, _ = wire.recv_frame(sock)
            assert reply_kind in (wire.KIND_ERROR, wire.KIND_HEALTH)
            assert sock.recv(1) == b""  # exactly one reply, then close

    one_frame()
    _, test = warfarin_split
    result = request_classification(
        "127.0.0.1", port, [int(v) for v in test.X[0]], seed=8800
    )
    assert result.request_id.startswith("req-")
