"""Fleet smoke: kill one shard under concurrent load, lose nothing.

The CI ``fleet-smoke`` job's scenario end to end: a 2-shard fleet
serves 20 concurrent classification requests; one shard is killed
(SIGTERM, no drain) mid-run. Requirements:

- in-flight requests on the *surviving* shard all complete (zero
  dropped);
- requests caught on the dying shard fail with a sanitized
  ``internal`` error and succeed on one retry (the frontend reroutes);
- the final tally is 20 successful classifications with zero non-shed
  errors.

``restart_dead=False`` pins that it really is the surviving shard --
not a respawned one -- that carries the load.
"""

import threading
import time

import pytest

from repro.core.serialization import deployment_from_dict, deployment_to_dict
from repro.core.session import SessionConfig
from repro.serving import ClassificationFleet
from repro.smc.transport import ServerError, request_classification

N_CLIENTS = 20
_BASE_SEED = 7300
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


def test_kill_one_shard_mid_run_zero_non_shed_errors(deployed, row):
    config = SessionConfig(max_workers=8, queue_depth=32, shards=2, **_BITS)
    fleet = ClassificationFleet(
        deployed, config=config,
        heartbeat_interval=0.2, restart_dead=False,
    )
    fleet.start()
    victim = 0
    labels = {}
    failures = []
    retried = []

    def client(i):
        seed = _BASE_SEED + i
        for attempt in (0, 1):
            try:
                result = request_classification(
                    "127.0.0.1", fleet.port, row, seed=seed,
                    pace_seconds=0.05,
                )
                labels[i] = result
                return
            except ServerError as error:
                if error.code == "internal" and attempt == 0:
                    retried.append(i)  # caught on the dying shard
                    continue
                failures.append((i, error.code))
                return
            except Exception as error:  # noqa: BLE001 - tallied below
                failures.append((i, repr(error)))
                return
        failures.append((i, "retry did not recover"))

    try:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        # Let the run get going, then kill one shard without drain.
        time.sleep(1.5)
        fleet.shards[victim].process.terminate()
        for thread in threads:
            thread.join(timeout=300)
        assert all(not t.is_alive() for t in threads)

        assert failures == [], f"non-shed errors: {failures}"
        assert len(labels) == N_CLIENTS  # every request classified
        # The victim really died and was not respawned; the survivor
        # served everything that completed after the kill.
        assert not fleet.shards[victim].process.is_alive()
        assert fleet.shards[victim ^ 1].process.is_alive()
        survivor_served = sum(
            1 for r in labels.values()
            if r.request_id.startswith(f"s{victim ^ 1}-")
        )
        assert survivor_served >= N_CLIENTS // 2
    finally:
        fleet.shutdown()
