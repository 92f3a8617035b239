"""Fuzz the first frame a front end reads: every input ends in one typed reply.

Both front ends -- an in-thread :class:`~repro.serving.ClassificationServer`
and a one-shard :class:`~repro.serving.ClassificationFleet` frontend --
take a stream of hypothesis-generated complete frames -- a random kind
byte and a random body of at most 512 bytes -- each on a fresh
connection, once with slots free and once with every slot held by an
idle connection (so the accept thread reads the frame itself).
Whatever ``recv_frame -> decode -> RequestSession.from_payload`` makes
of it, the connection must get exactly one ``KIND_ERROR`` or
``KIND_HEALTH`` frame within 5 s and then be closed, and the front end
must still serve a real request afterwards.
"""

import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.serving import ClassificationFleet, ClassificationServer
from repro.smc import wire
from repro.smc.transport import ServerError, request_classification

_BITS = {"paillier_bits": 384, "dgk_bits": 192}
_REPLY_TIMEOUT_S = 5.0
#: Two slots per front end: the fuzz's own connection always finds one
#: free while the previous one is still releasing its slot.
_CONFIG = SessionConfig(max_workers=1, queue_depth=1, **_BITS)
_CAPACITY = _CONFIG.max_workers + _CONFIG.queue_depth


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


@pytest.fixture(params=["server", "fleet"])
def front_door(request, deployed):
    """The port of a running front end with ``_CAPACITY`` slots."""
    if request.param == "fleet":
        fleet = ClassificationFleet(deployed, config=_CONFIG).start()
        yield fleet.port
        fleet.shutdown()
        return
    listener = socket.create_server(("127.0.0.1", 0))
    server = ClassificationServer(deployed, listener, config=_CONFIG)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield listener.getsockname()[1]
    server.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


def fuzz_first_frames(port):
    @settings(max_examples=100, deadline=None)
    @given(kind=st.integers(min_value=0, max_value=255),
           body=st.binary(max_size=512))
    @example(kind=wire.KIND_REQUEST, body=b"")
    def one_frame(kind, body):
        with socket.create_connection(
            ("127.0.0.1", port), timeout=_REPLY_TIMEOUT_S
        ) as sock:
            wire.send_frame(sock, kind, body)
            reply_kind, _ = wire.recv_frame(sock)
            assert reply_kind in (wire.KIND_ERROR, wire.KIND_HEALTH)
            assert sock.recv(1) == b""  # exactly one reply, then close

    one_frame()


def test_every_first_frame_gets_exactly_one_typed_reply(
    port, warfarin_split
):
    fuzz_first_frames(port)
    _, test = warfarin_split
    result = request_classification(
        "127.0.0.1", port, [int(v) for v in test.X[0]], seed=8800
    )
    assert result.request_id.startswith("req-")


@pytest.mark.parametrize("full", [False, True], ids=["free", "full"])
def test_every_front_door_answers_every_first_frame(
    front_door, full, warfarin_split
):
    """Both front ends, with slots free and with every slot held by an
    idle connection (so the accept thread reads the frame itself)."""
    idle = [
        socket.create_connection(("127.0.0.1", front_door), timeout=30)
        for _ in range(_CAPACITY if full else 0)
    ]
    try:
        fuzz_first_frames(front_door)
    finally:
        for sock in idle:
            sock.close()
    _, test = warfarin_split
    # The idle slots free only as workers read each idle connection's
    # EOF, so the closing request may still be shed for a moment.
    deadline = time.monotonic() + 10.0
    backoff = 0.05
    while True:
        try:
            result = request_classification(
                "127.0.0.1", front_door, [int(v) for v in test.X[0]],
                seed=8800,
            )
            break
        except ServerError as error:
            if error.code != "overloaded" or time.monotonic() > deadline:
                raise
            time.sleep(backoff)
            backoff = min(2 * backoff, 1.0)
    assert "req-" in result.request_id  # a fleet's is "s0-req-..."
