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
    defaults = dict(_BITS)
    defaults.update(overrides)
    return ClassificationFleet(
        deployed, shards=shards, config=SessionConfig(**defaults),
        heartbeat_interval=0.2,
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
    fleet = make_fleet(deployed, telemetry=True)
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


def test_health_probe_reads_a_full_shard_ring_under_the_caps(deployed, row):
    """A shard whose telemetry sits at its bounds -- a ring of
    SPAN_ROOT_CAP copies of the largest served root (a pure-SMC request)
    and a full queue-wait histogram -- still answers the frontend's
    telemetry probe, which reads it under the normal MAX_FRAME_BYTES and
    MAX_DECODE_ELEMENTS."""
    import repro.telemetry as telemetry
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
        fleet = ClassificationFleet(
            deployed, shards=1, config=SessionConfig(**_BITS)
        )
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
