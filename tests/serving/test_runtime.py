"""The concurrent serving runtime: isolation, shedding, drain, deadlines.

The server runs on an in-process thread here (not a child process as in
``tests/integration/test_tcp_serving.py``) so the tests can reach into
it directly: assert the shared ``DeployedClassifier`` is never mutated,
that the accept loop survives a crashing request, and that shutdown
drains in-flight work.
"""

import socket
import threading
import time

import pytest

from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.serving import ClassificationServer
from repro.smc import wire
from repro.smc.context import make_context
from repro.smc.transport import (
    ServerError,
    TransportConfig,
    request_classification,
)

_BASE_SEED = 4200
_BITS = {"paillier_bits": 384, "dgk_bits": 192}


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
def rows(warfarin_split):
    _, test = warfarin_split
    return [[int(v) for v in row] for row in test.X[:8]]


def start_server(deployed, **config_overrides):
    """An in-process server on an ephemeral port; caller must stop it."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    server = ClassificationServer(
        deployed, listener, config=SessionConfig(**config_overrides)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, port


def stop_server(server, thread):
    server.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


def crash_next_classify(monkeypatch, server):
    """Make the server's next classification raise mid-protocol (with
    a path in its text, which sanitization must not leak); later
    requests classify normally."""
    real = server.deployed.classify
    pending = [True]

    def classify(*args, **kwargs):
        if pending:
            pending.clear()
            raise RuntimeError("injected crash in /srv/model")
        return real(*args, **kwargs)

    monkeypatch.setattr(server.deployed, "classify", classify)


def replay_label(deployed, row, seed, disclosure=None):
    """Deterministic in-process replay of one served query."""
    ctx = make_context(config=SessionConfig(seed=seed, **_BITS))
    return deployed.classify(ctx, row, disclosure=disclosure), ctx


def test_concurrent_requests_no_disclosure_bleed(deployed, rows):
    """N paced clients with distinct seeds AND distinct disclosure
    overrides: every label and transcript must match its own replay, and
    the shared model's policy must be untouched."""
    shipped = list(deployed.disclosure)
    assert shipped, "fixture bundle should disclose something"
    overrides = [None, [], shipped[:1], shipped]
    server, thread, port = start_server(deployed, max_workers=4)
    results = {}
    errors = []

    def client(i):
        try:
            results[i] = request_classification(
                "127.0.0.1", port, rows[i], seed=_BASE_SEED + i,
                disclosure=overrides[i], pace_seconds=0.01,
            )
        except Exception as error:  # surfaced by the main thread
            errors.append((i, error))

    try:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(overrides))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        stop_server(server, thread)
    assert not errors
    assert sorted(results) == list(range(len(overrides)))
    # The transcript depends on seed AND effective disclosure set, so a
    # single leaked index from a concurrent request would break both the
    # label equality and the trace equality below.
    for i, override in enumerate(overrides):
        expected, ctx = replay_label(
            deployed, rows[i], _BASE_SEED + i, disclosure=override
        )
        assert results[i].label == expected
        assert results[i].server_trace == ctx.trace.summary()
    assert deployed.disclosure == shipped  # never mutated


def test_crashing_request_leaves_server_serving(deployed, rows,
                                               monkeypatch):
    """A classifier that raises crashes the handler mid-protocol; the
    client gets a sanitized KIND_ERROR and the next request succeeds."""
    server, thread, port = start_server(deployed, max_workers=2)
    crash_next_classify(monkeypatch, server)
    try:
        with pytest.raises(ServerError) as excinfo:
            request_classification(
                "127.0.0.1", port, rows[0], seed=_BASE_SEED
            )
        assert excinfo.value.code == "internal"
        # Sanitized: class name only, never the exception's own text.
        assert "/" not in excinfo.value.message
        assert thread.is_alive()

        result = request_classification(
            "127.0.0.1", port, rows[0], seed=_BASE_SEED
        )
        expected, _ = replay_label(deployed, rows[0], _BASE_SEED)
        assert result.label == expected
    finally:
        stop_server(server, thread)


def test_malformed_request_gets_bad_request_error(deployed):
    server, thread, port = start_server(deployed)
    try:
        with pytest.raises(ServerError) as excinfo:
            request_classification("127.0.0.1", port, [], seed=_BASE_SEED)
        assert excinfo.value.code == "bad-request"
        assert excinfo.value.request_id.startswith("req-")
        assert thread.is_alive()
    finally:
        stop_server(server, thread)


def test_deeply_nested_request_gets_bad_request_error(deployed):
    """A request body nested past the decoder's depth cap is answered
    with a typed bad-request reply instead of a dropped connection."""
    server, thread, port = start_server(deployed)
    try:
        hostile = b"\x07\x00\x00\x00\x01" * 5000 + b"\x00"
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            wire.send_frame(s, wire.KIND_REQUEST, hostile)
            kind, reply = wire.recv_frame(s)
        assert kind == wire.KIND_ERROR
        assert wire.WireCodec().decode(reply)["code"] == "bad-request"
        assert thread.is_alive()
    finally:
        stop_server(server, thread)


def test_request_past_element_cap_gets_bad_request_error(deployed, rows):
    """A well-formed request padded past wire.MAX_DECODE_ELEMENTS (a
    ~1 MB frame, well under the frame cap) is refused at decode."""
    server, thread, port = start_server(deployed)
    try:
        payload = {
            "row": [int(v) for v in rows[0]],
            "seed": _BASE_SEED,
            "padding": [None] * wire.MAX_DECODE_ELEMENTS,
        }
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            wire.send_frame(s, wire.KIND_REQUEST, wire.encode(payload))
            kind, reply = wire.recv_frame(s)
        assert kind == wire.KIND_ERROR
        assert wire.WireCodec().decode(reply)["code"] == "bad-request"
        assert thread.is_alive()
    finally:
        stop_server(server, thread)


def test_oversized_frame_gets_bad_request_error(deployed):
    """A header declaring a body above wire.MAX_FRAME_BYTES is answered
    with bad-request at once; the server never waits for that body."""
    server, thread, port = start_server(deployed)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(bytes((wire.KIND_REQUEST,)) + b"\xff\xff\xff\xff")
            kind, reply = wire.recv_frame(s)
        assert kind == wire.KIND_ERROR
        assert wire.WireCodec().decode(reply)["code"] == "bad-request"
        assert thread.is_alive()
    finally:
        stop_server(server, thread)


def test_non_request_first_frame_gets_bad_request_error(deployed):
    """A complete first frame that opens no session -- a protocol frame
    or an unknown kind byte -- is answered ``bad-request`` and counted
    in ``serve.errors.bad_request``; the socket is not dropped
    silently."""
    import repro.telemetry as telemetry

    kinds = (wire.KIND_MSG, wire.KIND_KEYS, wire.KIND_RESULT,
             wire.KIND_ERROR, 0x42)
    telemetry.configure(True, reset=True)
    server, thread, port = start_server(deployed)
    try:
        for kind in kinds:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as s:
                wire.send_frame(s, kind, wire.encode({"x": 1}))
                reply_kind, reply = wire.recv_frame(s)
            assert reply_kind == wire.KIND_ERROR
            assert wire.WireCodec().decode(reply)["code"] == "bad-request"
        counters = telemetry.snapshot()["counters"]
        assert thread.is_alive()
    finally:
        stop_server(server, thread)
        telemetry.configure(False, reset=True)
    assert counters["serve.errors.bad_request"] == len(kinds)
    assert counters["serve.errors"] == len(kinds)


def test_overload_sheds_with_overloaded_error(deployed, rows):
    """With one worker and no queue, a second concurrent request is
    answered with an 'overloaded' error instead of waiting."""
    server, thread, port = start_server(
        deployed, max_workers=1, queue_depth=0
    )
    slow_done = threading.Event()
    slow_result = {}

    def slow_client():
        slow_result["r"] = request_classification(
            "127.0.0.1", port, rows[0], seed=_BASE_SEED, pace_seconds=0.2
        )
        slow_done.set()

    slow = threading.Thread(target=slow_client)
    try:
        slow.start()
        # Wait until the slow request holds the only worker slot.
        deadline = threading.Event()
        for _ in range(200):
            if server._admitted >= 1:
                break
            deadline.wait(0.01)
        assert server._admitted >= 1
        with pytest.raises(ServerError) as excinfo:
            request_classification(
                "127.0.0.1", port, rows[1], seed=_BASE_SEED + 1,
                config=TransportConfig(retries=0),
            )
        assert excinfo.value.code == "overloaded"
        # The shed request never cost a key generation or a classify:
        # the slow one still completes correctly afterwards.
        assert slow_done.wait(timeout=120)
        expected, _ = replay_label(deployed, rows[0], _BASE_SEED)
        assert slow_result["r"].label == expected
    finally:
        slow.join(timeout=120)
        stop_server(server, thread)


def test_shutdown_drains_in_flight_request(deployed, rows):
    """shutdown() during a request stops the accept loop but lets the
    request finish; serve_forever returns only after the drain."""
    server, thread, port = start_server(deployed, max_workers=2)
    result = {}

    def client():
        result["r"] = request_classification(
            "127.0.0.1", port, rows[0], seed=_BASE_SEED, pace_seconds=0.05
        )

    worker = threading.Thread(target=client)
    worker.start()
    for _ in range(200):
        if server._admitted >= 1:
            break
        threading.Event().wait(0.01)
    assert server._admitted >= 1
    server.shutdown()
    worker.join(timeout=120)
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert server.wait_drained(timeout=1)
    expected, _ = replay_label(deployed, rows[0], _BASE_SEED)
    assert result["r"].label == expected
    # New connections are refused after shutdown.
    with pytest.raises(Exception):
        request_classification(
            "127.0.0.1", port, rows[0], seed=_BASE_SEED,
            config=TransportConfig(retries=0, connect_timeout=1.0),
        )


def test_deadline_reports_deadline_error(deployed, rows):
    """A client that stalls past request_timeout_s gets a KIND_ERROR
    with code 'deadline' (read with a raw socket: a stalled mirror loop
    is exactly the failure mode the deadline exists for)."""
    server, thread, port = start_server(
        deployed, max_workers=1, request_timeout_s=0.5
    )
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            s.settimeout(30)
            request = {"row": rows[0], "seed": _BASE_SEED, "disclosure": None}
            wire.send_frame(s, wire.KIND_REQUEST, wire.encode(request))
            seen = []
            while True:
                kind, body = wire.recv_frame(s)
                seen.append(kind)
                if kind == wire.KIND_ERROR:
                    break
                assert kind in (wire.KIND_KEYS, wire.KIND_MSG)
            report = wire.WireCodec().decode(body)
        assert report["code"] == "deadline"
        assert wire.KIND_MSG in seen  # the protocol had actually started
        assert thread.is_alive()  # deadline killed the request, not us
    finally:
        stop_server(server, thread)


def test_stranger_shutdown_frame_leaves_server_serving(deployed):
    """Regression: an unauthenticated KIND_SHUTDOWN must NOT stop the
    server -- any TCP client used to be able to kill it. A stranger gets
    a bad-request error and the server keeps accepting."""
    server, thread, port = start_server(deployed)
    try:
        for body in (None, "guess", {"token": "0" * 32}, {"junk": 1}):
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30
            ) as s:
                wire.send_frame(s, wire.KIND_SHUTDOWN, wire.encode(body))
                kind, reply = wire.recv_frame(s)
            assert kind == wire.KIND_ERROR
            assert wire.WireCodec().decode(reply)["code"] == "bad-request"
        assert thread.is_alive()  # still serving after every attempt
        # ... and demonstrably so: a health probe still gets answered.
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            wire.send_frame(s, wire.KIND_HEALTH, wire.encode(None))
            kind, reply = wire.recv_frame(s)
        assert kind == wire.KIND_HEALTH
        assert wire.WireCodec().decode(reply)["status"] == "ok"
    finally:
        stop_server(server, thread)


def test_token_shutdown_frame_stops_the_server(deployed):
    """A KIND_SHUTDOWN carrying the server's own token triggers the
    graceful shutdown path (used by the CLI and the fleet drain)."""
    server, thread, port = start_server(deployed)
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        wire.send_frame(
            s, wire.KIND_SHUTDOWN,
            wire.encode(wire.shutdown_payload(server.shutdown_token)),
        )
        kind, reply = wire.recv_frame(s)  # the ack precedes the stop
    assert kind == wire.KIND_HEALTH
    assert wire.WireCodec().decode(reply)["status"] == "stopping"
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert server.wait_drained(timeout=1)


def control_frame(port, kind, payload):
    """One control frame on a fresh connection: its decoded reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        wire.send_frame(s, kind, wire.encode(payload))
        reply_kind, reply = wire.recv_frame(s)
        assert s.recv(1) == b""  # one reply, then close
    return reply_kind, wire.WireCodec().decode(reply)


def test_control_frames_get_through_at_capacity(deployed, rows):
    """With its only slot held by an idle connection, the server still
    answers a health probe and a stranger's shutdown, sheds a request,
    and stops on its own token's shutdown."""
    import repro.telemetry as telemetry

    telemetry.configure(True, reset=True)
    server, thread, port = start_server(
        deployed, max_workers=1, queue_depth=0
    )
    idle = socket.create_connection(("127.0.0.1", port), timeout=30)
    try:
        kind, reply = control_frame(port, wire.KIND_HEALTH, None)
        assert (kind, reply["status"]) == (wire.KIND_HEALTH, "ok")
        with pytest.raises(ServerError) as excinfo:
            request_classification(
                "127.0.0.1", port, rows[0], seed=_BASE_SEED,
                config=TransportConfig(retries=0),
            )
        assert excinfo.value.code == "overloaded"
        kind, reply = control_frame(
            port, wire.KIND_SHUTDOWN, wire.shutdown_payload("0" * 32)
        )
        assert (kind, reply["code"]) == (wire.KIND_ERROR, "bad-request")
        assert thread.is_alive()
        kind, reply = control_frame(
            port, wire.KIND_SHUTDOWN,
            wire.shutdown_payload(server.shutdown_token),
        )
        assert (kind, reply["status"]) == (wire.KIND_HEALTH, "stopping")
        counters = telemetry.snapshot()["counters"]
    finally:
        idle.close()
        thread.join(timeout=30)
        telemetry.configure(False, reset=True)
    assert not thread.is_alive()  # serve_forever returned
    assert counters["serve.shed"] == 1
    assert counters["serve.shutdown_denied"] == 1


def test_trickled_first_frame_cannot_hold_the_accept_thread(deployed):
    """At capacity the accept thread reads a first frame itself; a
    client trickling that frame one byte every 0.2 s gets one deadline
    for the whole read, so a concurrent health probe is answered within
    a second, not after the whole 45-byte frame."""
    server, thread, port = start_server(
        deployed, max_workers=1, queue_depth=0
    )
    frame = wire.pack_frame(wire.KIND_HEALTH, bytes(40))
    stop = threading.Event()

    def trickle():
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            for byte in frame:
                if stop.wait(0.2):
                    return
                try:
                    s.sendall(bytes((byte,)))
                except OSError:
                    return  # shed: the front door closed it

    idle = socket.create_connection(("127.0.0.1", port), timeout=30)
    trickler = threading.Thread(target=trickle, daemon=True)
    try:
        trickler.start()
        time.sleep(0.3)  # the accept thread is now reading the trickle
        started = time.monotonic()
        kind, reply = control_frame(port, wire.KIND_HEALTH, None)
        waited = time.monotonic() - started
        assert (kind, reply["status"]) == (wire.KIND_HEALTH, "ok")
        assert waited < 1.0, f"health probe waited {waited:.2f} s"
    finally:
        stop.set()
        idle.close()
        trickler.join(timeout=30)
        stop_server(server, thread)


def test_health_probe_can_carry_telemetry(deployed):
    """A KIND_HEALTH probe asking for telemetry gets this shard's
    registry snapshot attached (the fleet frontend's merge source)."""
    import repro.telemetry as telemetry

    telemetry.configure(True, reset=True)
    server, thread, port = start_server(deployed)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            wire.send_frame(
                s, wire.KIND_HEALTH, wire.encode({"telemetry": True})
            )
            kind, reply = wire.recv_frame(s)
        assert kind == wire.KIND_HEALTH
        payload = wire.WireCodec().decode(reply)
        assert payload["status"] == "ok"
        assert payload["telemetry"]["schema"] == telemetry.SCHEMA
    finally:
        stop_server(server, thread)
        telemetry.configure(False, reset=True)


def test_span_roots_are_a_bounded_ring(deployed, rows, monkeypatch):
    """N + k served requests leave the newest N ``serve.request`` roots
    and count the k older ones in ``telemetry.spans_dropped``."""
    import repro.telemetry as telemetry
    from repro.telemetry import registry

    cap, extra = 3, 2
    monkeypatch.setattr(registry, "SPAN_ROOT_CAP", cap)
    telemetry.configure(True, reset=True)
    server, thread, port = start_server(deployed)
    try:
        ids = [
            request_classification(
                "127.0.0.1", port, rows[i], seed=_BASE_SEED + i
            ).request_id
            for i in range(cap + extra)
        ]
        snap = telemetry.snapshot()
    finally:
        stop_server(server, thread)
        telemetry.configure(False, reset=True)
    assert [root["name"] for root in snap["spans"]] == ["serve.request"] * cap
    assert [root["attributes"]["request_id"] for root in snap["spans"]] \
        == ids[extra:]
    assert snap["counters"]["telemetry.spans_dropped"] == extra


def test_errors_are_counted_by_cause(deployed, rows, monkeypatch):
    """Each failed request raises serve.errors and exactly one
    serve.errors.<cause> counter, so the causes always sum to the
    total."""
    import repro.telemetry as telemetry

    telemetry.configure(True, reset=True)
    server, thread, port = start_server(
        deployed, max_workers=2, request_timeout_s=0.5
    )
    crash_next_classify(monkeypatch, server)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(bytes((wire.KIND_REQUEST,)) + b"\xff\xff\xff\xff")
            assert wire.recv_frame(s)[0] == wire.KIND_ERROR
        with pytest.raises(ServerError, match="bad-request"):
            request_classification("127.0.0.1", port, [], seed=_BASE_SEED)
        with pytest.raises(ServerError, match="internal"):
            request_classification(
                "127.0.0.1", port, rows[0], seed=_BASE_SEED
            )
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            request = {"row": rows[0], "seed": _BASE_SEED}
            wire.send_frame(s, wire.KIND_REQUEST, wire.encode(request))
            while wire.recv_frame(s)[0] != wire.KIND_ERROR:
                pass  # never answer the protocol: the deadline fires
        counters = telemetry.snapshot()["counters"]
    finally:
        stop_server(server, thread)
        telemetry.configure(False, reset=True)
    causes = {
        name[len("serve.errors."):]: count
        for name, count in counters.items()
        if name.startswith("serve.errors.")
    }
    assert causes == {
        "frame_too_large": 1, "bad_request": 1, "internal": 1,
        "deadline": 1,
    }
    assert counters["serve.errors"] == sum(causes.values())
