"""Fleet failure modes: stickiness, shard death, shedding, drain.

The fleet runs real shard *processes* here (fork + wire protocol over
localhost), so every scenario exercises the same frames production
sees: sticky routing by the handshake seed, failover on a shard's
``overloaded`` shed, a shard process dying mid-request, and graceful
drain of one shard while the rest keep serving.
"""

import socket
import threading
import time

import pytest

import repro.telemetry as telemetry
from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.serving import ClassificationFleet
from repro.smc import wire
from repro.smc.transport import (
    ServerError,
    TransportConfig,
    request_classification,
)

_BASE_SEED = 6100
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
def row(warfarin_split):
    _, test = warfarin_split
    return [int(v) for v in test.X[0]]


def make_fleet(deployed, shards=2, **overrides):
    defaults = dict(_BITS, shards=shards)
    defaults.update(overrides)
    return ClassificationFleet(
        deployed, config=SessionConfig(**defaults), heartbeat_interval=0.2,
    )


def wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def home_shard(seed, shards=2):
    return seed % shards


def test_sticky_session_lands_on_the_same_shard(deployed, row):
    """The handshake seed picks the shard; the same seed re-lands there
    and the request id carries the shard's name."""
    with make_fleet(deployed) as fleet:
        for seed in (_BASE_SEED, _BASE_SEED + 1):
            expect = f"s{home_shard(seed)}-"
            for _ in range(2):
                result = request_classification(
                    "127.0.0.1", fleet.port, row, seed=seed
                )
                assert result.request_id.startswith(expect)


def test_shard_death_mid_request_fails_one_request_not_the_fleet(
    deployed, row
):
    """Killing a shard mid-request gets *that* client a sanitized
    ``internal`` error; the frontend marks the shard unhealthy, routes
    its traffic to the survivor, and the heartbeat restarts the dead
    process so its home seed lands back on a fresh generation."""
    fleet = make_fleet(deployed)
    fleet.start()
    try:
        victim_seed = _BASE_SEED  # home shard s0
        victim = home_shard(victim_seed)
        outcome = {}

        def client():
            try:
                outcome["result"] = request_classification(
                    "127.0.0.1", fleet.port, row, seed=victim_seed,
                    pace_seconds=0.15,
                )
            except ServerError as error:
                outcome["error"] = error

        thread = threading.Thread(target=client)
        thread.start()
        # Let the paced protocol get going, then kill the home shard.
        time.sleep(1.0)
        fleet.shards[victim].process.terminate()
        thread.join(timeout=120)
        assert not thread.is_alive()
        error = outcome.get("error")
        assert error is not None, f"expected ServerError, got {outcome}"
        assert error.code == "internal"

        # The fleet keeps serving the victim's sticky traffic meanwhile
        # (on the survivor, or on an already-respawned generation).
        rerouted = request_classification(
            "127.0.0.1", fleet.port, row, seed=victim_seed
        )
        assert rerouted.request_id  # served, not errored

        # Heartbeat recovery: a fresh generation takes the slot and the
        # home seed lands on it again.
        assert wait_until(
            lambda: fleet.shards[victim].generation > 0
            and fleet.shards[victim].routable
        )
        recovered = request_classification(
            "127.0.0.1", fleet.port, row, seed=victim_seed
        )
        assert recovered.request_id.startswith(f"s{victim}-")
    finally:
        fleet.shutdown()


def test_all_shards_shedding_yields_overloaded(deployed, row):
    """When every shard sheds, the frontend answers ``overloaded``
    instead of hanging -- and the fleet recovers once load clears."""
    fleet = make_fleet(deployed, max_workers=1, queue_depth=0)
    fleet.start()
    try:
        blockers = []
        results = []

        def blocker(seed):
            results.append(request_classification(
                "127.0.0.1", fleet.port, row, seed=seed, pace_seconds=0.2,
            ))

        # One slow request per shard fills both capacities (1 + 0).
        for seed in (_BASE_SEED, _BASE_SEED + 1):
            thread = threading.Thread(target=blocker, args=(seed,))
            thread.start()
            blockers.append(thread)
        time.sleep(1.0)  # both protocols are mid-flight and paced

        with pytest.raises(ServerError) as excinfo:
            request_classification(
                "127.0.0.1", fleet.port, row, seed=_BASE_SEED + 2,
                config=TransportConfig(retries=0),
            )
        assert excinfo.value.code == "overloaded"

        for thread in blockers:
            thread.join(timeout=120)
        assert len(results) == 2  # the blockers themselves succeeded

        # Capacity freed: the same request now gets served. The blockers'
        # clients see their results a beat before the shard workers
        # release admission, so tolerate a short overloaded tail.
        deadline = time.monotonic() + 30
        while True:
            try:
                late = request_classification(
                    "127.0.0.1", fleet.port, row, seed=_BASE_SEED + 2
                )
                break
            except ServerError as error:
                assert error.code == "overloaded"
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.2)
        # Any shard may serve it (the home shard may still be releasing
        # admission, in which case shed-aware failover is the *correct*
        # route); stickiness under no load has its own test above.
        assert late.request_id.startswith("s")
    finally:
        fleet.shutdown()


def test_drain_one_shard_keeps_the_fleet_serving(deployed, row):
    """Drain stops routing to one shard, recycles it, and never drops
    the fleet: requests homed to the draining shard fail over."""
    fleet = make_fleet(deployed)
    fleet.start()
    try:
        request_classification("127.0.0.1", fleet.port, row, seed=_BASE_SEED)
        fleet.drain_shard(0, restart=True)
        assert fleet.shards[0].generation == 1
        assert wait_until(lambda: fleet.shards[0].routable)
        result = request_classification(
            "127.0.0.1", fleet.port, row, seed=_BASE_SEED
        )
        assert result.request_id.startswith("s0-")
        status = fleet.status()
        assert [s["alive"] for s in status] == [True, True]
    finally:
        fleet.shutdown()


def test_fleet_telemetry_merges_shard_snapshots(deployed, row):
    """The frontend pulls each shard's registry over KIND_HEALTH
    telemetry probes and merges them into one fleet-wide document."""
    telemetry.configure(True, reset=True)  # shards inherit the switch
    fleet = make_fleet(deployed)
    fleet.start()
    try:
        for seed in (_BASE_SEED, _BASE_SEED + 1):
            request_classification("127.0.0.1", fleet.port, row, seed=seed)
        snap = fleet.telemetry_snapshot()
        assert snap["counters"]["serve.requests"] >= 2
        waits = snap["histograms"]["serve.queue_wait"]
        assert waits["count"] >= 2 and len(waits["samples"]) >= 2
    finally:
        fleet.shutdown()
        telemetry.configure(False, reset=True)


def test_health_probe_reads_a_full_shard_ring_under_the_caps(deployed, row):
    """A shard whose telemetry sits at its bounds -- a ring of
    SPAN_ROOT_CAP copies of the largest served root (a pure-SMC request)
    and a full queue-wait histogram -- still answers the frontend's
    telemetry probe, which reads it under the normal MAX_FRAME_BYTES and
    MAX_DECODE_ELEMENTS."""
    from repro.serving import ClassificationServer
    from repro.serving.fleet import ShardHandle
    from repro.telemetry.registry import (
        HISTOGRAM_SAMPLE_CAP,
        SPAN_ROOT_CAP,
        SpanRecord,
    )

    telemetry.configure(True, reset=True)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    server = ClassificationServer(
        deployed, listener, config=SessionConfig(**_BITS)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        request_classification(
            "127.0.0.1", port, row, seed=_BASE_SEED, disclosure=[]
        )
        registry = telemetry.get_registry()
        (served,) = registry.snapshot()["spans"]
        for _ in range(SPAN_ROOT_CAP):
            registry.add_root(SpanRecord.from_dict(served))
        for _ in range(HISTOGRAM_SAMPLE_CAP):
            registry.observe("serve.queue_wait", 0.001)
        fleet = ClassificationFleet(deployed, SessionConfig(**_BITS))
        reply = fleet._probe(
            ShardHandle("s0", None, port, ""), telemetry_too=True
        )
    finally:
        server.shutdown()
        thread.join(timeout=30)
        telemetry.configure(False, reset=True)
    assert not thread.is_alive()
    assert reply is not None  # None: unreachable, or over a wire cap
    shard = reply["telemetry"]
    assert len(shard["spans"]) == SPAN_ROOT_CAP
    assert shard["counters"]["telemetry.spans_dropped"] == 1


def test_frontend_answers_oversized_frame_with_bad_request(deployed):
    """The frontend caps what a client may declare, like a shard does."""
    fleet = make_fleet(deployed, shards=1)
    fleet.start()
    try:
        with socket.create_connection(
            ("127.0.0.1", fleet.port), timeout=10
        ) as s:
            s.sendall(bytes((wire.KIND_REQUEST,)) + b"\xff\xff\xff\xff")
            kind, reply = wire.recv_frame(s)
        assert kind == wire.KIND_ERROR
        assert wire.WireCodec().decode(reply)["code"] == "bad-request"
    finally:
        fleet.shutdown()


def test_frontend_answers_a_non_request_first_frame_with_bad_request(
    deployed,
):
    """A protocol frame (or an unknown kind) cannot open a session at
    the frontend either: it is answered ``bad-request``, not dropped."""
    fleet = make_fleet(deployed, shards=1)
    fleet.start()
    try:
        for kind in (wire.KIND_MSG, wire.KIND_RESULT, 0x42):
            with socket.create_connection(
                ("127.0.0.1", fleet.port), timeout=10
            ) as s:
                wire.send_frame(s, kind, wire.encode({"x": 1}))
                reply_kind, reply = wire.recv_frame(s)
            assert reply_kind == wire.KIND_ERROR
            assert wire.WireCodec().decode(reply)["code"] == "bad-request"
    finally:
        fleet.shutdown()


def test_frontend_closes_a_finished_session_at_once(deployed, row):
    """Once the frontend relays a session's terminal frame, the client
    gets its EOF within a second, not at the request deadline, and the
    slot it held serves the next request within a second."""
    fleet = make_fleet(deployed, shards=1, max_workers=1, queue_depth=0)
    fleet.start()
    try:
        with socket.create_connection(
            ("127.0.0.1", fleet.port), timeout=5
        ) as s:
            started = time.monotonic()
            wire.send_frame(s, wire.KIND_REQUEST, b"")
            kind, reply = wire.recv_frame(s)
            assert kind == wire.KIND_ERROR
            assert wire.WireCodec().decode(reply)["code"] == "bad-request"
            assert s.recv(1) == b""
            assert time.monotonic() - started < 1.0
        freed = time.monotonic()
        served = None
        while served is None:
            try:
                served = request_classification(
                    "127.0.0.1", fleet.port, row, seed=_BASE_SEED,
                    config=TransportConfig(retries=0),
                )
            except ServerError as error:
                assert error.code == "overloaded"
                assert time.monotonic() - freed < 1.0, "slot still held"
                time.sleep(0.05)
        assert served.request_id.startswith("s0-")
    finally:
        fleet.shutdown()


def test_frontend_sheds_connections_beyond_its_capacity(deployed, row):
    """The frontend holds at most shards * (max_workers + queue_depth)
    connections: at capacity 1 an idle connection fills it, the next
    one is answered ``overloaded`` and counted in ``fleet.shed``, and
    closing the idle one frees the slot."""
    telemetry.configure(True, reset=True)
    fleet = make_fleet(deployed, shards=1, max_workers=1, queue_depth=0)
    fleet.start()
    try:
        with socket.create_connection(("127.0.0.1", fleet.port),
                                      timeout=10):
            with pytest.raises(ServerError) as excinfo:
                request_classification(
                    "127.0.0.1", fleet.port, row, seed=_BASE_SEED,
                    config=TransportConfig(retries=0),
                )
            assert excinfo.value.code == "overloaded"
            assert telemetry.snapshot()["counters"]["fleet.shed"] == 1
        served = None
        deadline = time.monotonic() + 10
        while served is None:
            try:
                served = request_classification(
                    "127.0.0.1", fleet.port, row, seed=_BASE_SEED,
                    config=TransportConfig(retries=0),
                )
            except ServerError as error:  # the idle slot is releasing
                assert error.code == "overloaded"
                assert time.monotonic() < deadline
                time.sleep(0.1)
        assert served.request_id.startswith("s0-")
    finally:
        fleet.shutdown()
        telemetry.configure(False, reset=True)


def test_frontend_control_frames_get_through_at_capacity(deployed, row):
    """A full frontend (capacity 1, one idle connection held) still
    answers a health probe and a stranger's shutdown, sheds a request,
    and stops the fleet on the fleet token's shutdown."""
    telemetry.configure(True, reset=True)
    fleet = make_fleet(deployed, shards=1, max_workers=1, queue_depth=0)
    fleet.start()

    def control_frame(kind, payload):
        with socket.create_connection(
            ("127.0.0.1", fleet.port), timeout=30
        ) as s:
            wire.send_frame(s, kind, wire.encode(payload))
            reply_kind, reply = wire.recv_frame(s)
            assert s.recv(1) == b""  # one reply, then close
        return reply_kind, wire.WireCodec().decode(reply)

    try:
        with socket.create_connection(("127.0.0.1", fleet.port),
                                      timeout=30):
            kind, reply = control_frame(wire.KIND_HEALTH, None)
            assert kind == wire.KIND_HEALTH
            assert reply["shard"] == "frontend"
            assert [s["name"] for s in reply["shards"]] == ["s0"]
            with pytest.raises(ServerError) as excinfo:
                request_classification(
                    "127.0.0.1", fleet.port, row, seed=_BASE_SEED,
                    config=TransportConfig(retries=0),
                )
            assert excinfo.value.code == "overloaded"
            kind, reply = control_frame(
                wire.KIND_SHUTDOWN, wire.shutdown_payload("0" * 32)
            )
            assert (kind, reply["code"]) == (wire.KIND_ERROR, "bad-request")
            assert not fleet.wait(timeout=0.5)
            kind, reply = control_frame(
                wire.KIND_SHUTDOWN,
                wire.shutdown_payload(fleet.shutdown_token),
            )
            assert (kind, reply["status"]) == (wire.KIND_HEALTH, "stopping")
            assert fleet.wait(timeout=30)
        counters = telemetry.snapshot()["counters"]
        assert counters["fleet.shed"] == 1
        assert counters["fleet.shutdown_denied"] == 1
    finally:
        fleet.shutdown()
        telemetry.configure(False, reset=True)
