"""Budget enforcement on the serving path: server, fleet, identity.

The enforcement invariant under test everywhere: a client identity's
cumulative realized risk never exceeds its budget, across requests,
across disclosure overrides, and across fleet shards (each of which
charges the one shared ledger file, exactly as a single server does).
"""

import contextlib
import dataclasses
import multiprocessing
import socket
import threading
import time

import pytest

import repro.telemetry as telemetry

from repro.core.exceptions import ReproError
from repro.core.serialization import (
    deployment_from_dict,
    deployment_to_dict,
)
from repro.core.session import SessionConfig
from repro.privacy.ledger import PrivacyLedger
from repro.privacy.pricing import DisclosurePricer, risk_model_from_dict
from repro.serving import ClassificationFleet, ClassificationServer
from repro.serving.budget import BudgetEnforcer, identity_for_context
from repro.smc.context import make_context
from repro.smc.transport import (
    ServerError,
    TransportConfig,
    request_classification,
)

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


def start_server(deployed, **config_overrides):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    config_overrides.setdefault("paillier_bits", _BITS["paillier_bits"])
    config_overrides.setdefault("dgk_bits", _BITS["dgk_bits"])
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


@contextlib.contextmanager
def serving(deployed, target, **config_overrides):
    """One server or a 2-shard fleet with the same knobs; yields the
    port and a callable returning the endpoint's merged metrics."""
    if target == "fleet":
        config = SessionConfig(shards=2, **{**_BITS, **config_overrides})
        with ClassificationFleet(
            deployed, config=config, heartbeat_interval=0.2
        ) as fleet:
            yield fleet.port, fleet.telemetry_snapshot
        return
    server, thread, port = start_server(deployed, **config_overrides)
    try:
        yield port, telemetry.snapshot
    finally:
        stop_server(server, thread)


def identity(seed):
    """The identity a client with ``seed`` presents: the fingerprint of
    the keys its session derives."""
    return identity_for_context(
        make_context(config=SessionConfig(seed=seed, **_BITS))
    )


def ledger_state(path):
    """Every client's record and charge journal, minus request ids and
    timestamps (which name the serving process and the moment)."""
    with PrivacyLedger(path) as ledger:
        return {
            client: (
                ledger.client(client).budget,
                ledger.client(client).spent,
                ledger.client(client).disclosed,
                [(c.features, c.delta, c.spent_after, c.mode)
                 for c in ledger.charges(client)],
            )
            for client in ledger.clients()
        }


class TestBundleCarriesRiskModel:
    def test_round_tripped_bundle_has_risk_model(self, deployed):
        assert deployed.risk_model is not None
        assert deployed.risk_model["adversary"]["kind"] == "naive_bayes"

    def test_enforcer_requires_risk_model(self, deployed, tmp_path):
        bare = dataclasses.replace(deployed, risk_model=None)
        config = SessionConfig(ledger_path=str(tmp_path / "l.db"), **_BITS)
        with pytest.raises(ReproError):
            BudgetEnforcer.from_config(bare, config)

    def test_fleet_without_risk_model_fails_at_startup(
        self, deployed, tmp_path
    ):
        bare = dataclasses.replace(deployed, risk_model=None)
        config = SessionConfig(ledger_path=str(tmp_path / "l.db"), **_BITS)
        fleet = ClassificationFleet(bare, config=config)
        with pytest.raises(ReproError):
            fleet.start()
        fleet.shutdown()

    def test_no_ledger_means_no_enforcer(self, deployed):
        assert BudgetEnforcer.from_config(
            deployed, SessionConfig(**_BITS)
        ) is None


class TestIdentity:
    def test_seed_identity_is_stable_and_distinct(self):
        a1 = identity(_BASE_SEED)
        a2 = identity(_BASE_SEED)
        b = identity(_BASE_SEED + 1)
        assert a1 == a2
        assert a1 != b
        assert a1.startswith("pk-")

    def test_seed_identity_matches_live_context(
        self, deployed, row, tmp_path
    ):
        """A served request is charged to the fingerprint of the keys
        its own session derived."""
        server, thread, port = start_server(
            deployed, ledger_path=str(tmp_path / "id.db")
        )
        try:
            result = request_classification(
                "127.0.0.1", port, row, seed=_BASE_SEED, disclosure=[0]
            )
        finally:
            stop_server(server, thread)
        assert result.budget["identity"] == identity(_BASE_SEED)


_SHARED_IDENTITIES = [f"pk-shared-{i}" for i in range(5)]


def _admit_each(risk_model, path, budget, features, barrier):
    enforcer = BudgetEnforcer(risk_model, path, default_budget=budget)
    barrier.wait(timeout=60)
    for feature in features:
        for client in _SHARED_IDENTITIES:
            enforcer.admit(client, [feature], f"req-{feature}")
    enforcer.close()


class TestSeveralWriters:
    def test_two_processes_never_spend_the_same_headroom(
        self, deployed, tmp_path
    ):
        """Two processes admit disjoint features for the same identities
        at once. Each admit reads, prices and charges in one
        transaction, so replaying the charge journal in order prices
        every charge exactly as recorded, no charge passes rho, and
        every admit left one charge."""
        path = str(tmp_path / "shared.db")
        PrivacyLedger(path).close()  # concurrent opens have their own test
        budget = 0.05
        halves = ([0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11])
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(len(halves))
        procs = [
            ctx.Process(target=_admit_each, args=(
                deployed.risk_model, path, budget, half, barrier,
            ), daemon=True)
            for half in halves
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            proc.kill()  # a no-op unless it hung
        assert [proc.exitcode for proc in procs] == [0, 0]
        pricer = DisclosurePricer(risk_model_from_dict(deployed.risk_model))
        with PrivacyLedger(path) as ledger:
            for client in _SHARED_IDENTITIES:
                record = ledger.client(client)
                disclosed = set()
                for charge in reversed(ledger.charges(client, limit=100)):
                    disclosed |= set(charge.features)
                    assert charge.spent_after == pytest.approx(
                        pricer.price(sorted(disclosed)), abs=1e-9
                    )
                    assert charge.spent_after <= budget + 1e-9
                assert record.spent == pytest.approx(
                    pricer.price(record.disclosed), abs=1e-9
                )
                assert record.charges == sum(len(h) for h in halves)


class TestServerEnforcement:
    def test_depletion_degrades_and_never_exceeds_budget(
        self, deployed, row, tmp_path
    ):
        """One identity walks the ladder: early requests are full, a
        hungry request is degraded or smc, spend stays under rho."""
        ledger_path = str(tmp_path / "serve.db")
        budget = 0.05
        n_features = len(row)
        server, thread, port = start_server(
            deployed, ledger_path=ledger_path, privacy_budget=budget,
            max_workers=2,
        )
        try:
            modes = []
            for lo in range(0, n_features, 3):
                want = list(range(lo, min(lo + 3, n_features)))
                result = request_classification(
                    "127.0.0.1", port, row, seed=_BASE_SEED,
                    disclosure=want,
                )
                decision = result.budget
                assert decision is not None
                assert decision["mode"] in ("full", "degraded", "smc")
                assert decision["spent_after"] <= budget + 1e-9
                assert set(decision["granted"]) <= set(want)
                modes.append(decision["mode"])
        finally:
            stop_server(server, thread)
        assert modes[0] == "full", "first cheap request should fit"
        assert any(m != "full" for m in modes), (
            "sweeping every feature must deplete a 0.05 budget"
        )
        with PrivacyLedger(ledger_path) as ledger:
            record = ledger.client(identity(_BASE_SEED))
            assert record.spent <= budget + 1e-9
            assert record.charges == len(modes)

    def test_identities_do_not_share_budget(self, deployed, row, tmp_path):
        ledger_path = str(tmp_path / "pair.db")
        telemetry.configure(True, reset=True)
        server, thread, port = start_server(
            deployed, ledger_path=ledger_path, privacy_budget=0.1,
            max_workers=2,
        )
        try:
            for seed in (_BASE_SEED, _BASE_SEED + 7):
                result = request_classification(
                    "127.0.0.1", port, row, seed=seed, disclosure=[0, 1],
                )
                assert result.budget["identity"] == identity(seed)
            gauges = telemetry.snapshot()["gauges"]
        finally:
            stop_server(server, thread)
            telemetry.configure(False, reset=True)
        with PrivacyLedger(ledger_path) as ledger:
            assert len(ledger.clients()) == ledger.client_count() == 2
        assert gauges["budget.clients"] == 2

    def test_redisclosure_is_free(self, deployed, row, tmp_path):
        server, thread, port = start_server(
            deployed, ledger_path=str(tmp_path / "replay.db"),
            privacy_budget=0.1, max_workers=2,
        )
        try:
            first = request_classification(
                "127.0.0.1", port, row, seed=_BASE_SEED,
                disclosure=[0, 1],
            )
            replay = request_classification(
                "127.0.0.1", port, row, seed=_BASE_SEED,
                disclosure=[0, 1],
            )
        finally:
            stop_server(server, thread)
        assert replay.budget["granted"] == first.budget["granted"]
        assert replay.budget["spent_after"] == pytest.approx(
            first.budget["spent_after"], abs=1e-12
        )
        assert replay.budget["mode"] == "full"

    def test_no_ledger_leaves_results_unstamped(self, deployed, row):
        server, thread, port = start_server(deployed, max_workers=2)
        try:
            result = request_classification(
                "127.0.0.1", port, row, seed=_BASE_SEED
            )
        finally:
            stop_server(server, thread)
        assert result.budget is None


class TestFleetEnforcement:
    def test_fleet_matches_single_server(self, deployed, row, tmp_path):
        """The same seeded request sequence gets the same budget
        decisions and leaves the same ledger behind on one server and
        on a 2-shard fleet; the fleet's charges carry the shard request
        ids the clients saw."""
        budget = 0.05
        sequence = [
            (_BASE_SEED, list(range(lo, min(lo + 3, len(row)))))
            for lo in range(0, len(row), 3)
        ] + [(_BASE_SEED + 1, [0, 1])]  # homed on the other shard
        decisions, ledgers, served = {}, {}, {}
        for target in ("server", "fleet"):
            path = str(tmp_path / f"{target}.db")
            with serving(
                deployed, target, ledger_path=path, privacy_budget=budget,
            ) as (port, _):
                served[target] = [
                    request_classification(
                        "127.0.0.1", port, row, seed=seed, disclosure=want,
                    )
                    for seed, want in sequence
                ]
            decisions[target] = [r.budget for r in served[target]]
            ledgers[target] = ledger_state(path)
        assert decisions["fleet"] == decisions["server"]
        assert ledgers["fleet"] == ledgers["server"]

        modes = [d["mode"] for d in decisions["fleet"][:-1]]
        assert modes[0] == "full" and any(m != "full" for m in modes)
        assert all(
            d["spent_after"] <= budget + 1e-9 for d in decisions["fleet"]
        )
        assert decisions["fleet"][-1]["spent_before"] == pytest.approx(0.0)
        with PrivacyLedger(str(tmp_path / "fleet.db")) as ledger:
            for seed in (_BASE_SEED, _BASE_SEED + 1):
                journal = [
                    c.request_id
                    for c in reversed(ledger.charges(identity(seed)))
                ]
                assert journal == [
                    r.request_id
                    for (s, _), r in zip(sequence, served["fleet"])
                    if s == seed
                ]
                assert all(rid.startswith("s") for rid in journal)

    def test_shed_request_is_never_charged(self, deployed, row, tmp_path):
        """Every shard sheds the request: the client sees ``overloaded``
        and the ledger holds nothing for its identity -- no client row,
        no disclosure, no charge."""
        ledger_path = str(tmp_path / "shed.db")
        config = SessionConfig(
            max_workers=1, queue_depth=0, ledger_path=ledger_path, **_BITS
        )
        with ClassificationFleet(
            deployed, config=config, heartbeat_interval=0.2
        ) as fleet:
            # An idle connection straight to the shard holds its only
            # worker slot until it is closed.
            with socket.create_connection(
                ("127.0.0.1", fleet.shards[0].port), timeout=10
            ):
                time.sleep(1.0)  # the shard's accept loop admits it
                with pytest.raises(ServerError) as excinfo:
                    request_classification(
                        "127.0.0.1", fleet.port, row, seed=_BASE_SEED,
                        disclosure=[2, 3, 4],
                        config=TransportConfig(retries=0),
                    )
        assert excinfo.value.code == "overloaded"
        with PrivacyLedger(ledger_path) as ledger:
            assert identity(_BASE_SEED) not in ledger.clients()
            assert ledger.disclosed(identity(_BASE_SEED)) == ()
            assert ledger.charges(identity(_BASE_SEED)) == []


@pytest.mark.parametrize("with_ledger", [True, False],
                         ids=["ledger", "no-ledger"])
@pytest.mark.parametrize("target", ["server", "fleet"])
def test_out_of_schema_disclosure_is_a_bad_request(
    deployed, row, tmp_path, target, with_ledger
):
    """A disclosure index the deployed schema lacks is refused at
    admission, before any keygen or pricing, on every endpoint."""
    overrides = {}
    if with_ledger:
        overrides["ledger_path"] = str(tmp_path / "oos.db")
    telemetry.configure(True, reset=True)
    try:
        with serving(deployed, target, **overrides) as (port, metrics):
            with pytest.raises(ServerError) as excinfo:
                request_classification(
                    "127.0.0.1", port, row, seed=_BASE_SEED,
                    disclosure=[999],
                )
            counters = metrics()["counters"]
    finally:
        telemetry.configure(False, reset=True)
    assert excinfo.value.code == "bad-request"
    assert counters["serve.errors.bad_request"] == 1
    if with_ledger:
        with PrivacyLedger(overrides["ledger_path"]) as ledger:
            assert ledger.clients() == []
