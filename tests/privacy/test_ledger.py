"""The durable privacy-budget ledger: charges, migrations, resets.

The ledger is the serving runtime's memory of what each client has
already been shown. These tests pin its contract without any serving
machinery: durability across re-open, the no-double-charge rule at
the storage layer, monotone spend, the v1 -> v2 forward migration,
several processes opening one file at once, and the failure modes (unknown clients, invalid budgets, newer-than-
known schema files).
"""

import multiprocessing
import sqlite3

import pytest

from repro.privacy.ledger import (
    DEFAULT_PRIVACY_BUDGET,
    SCHEMA_VERSION,
    LedgerError,
    PrivacyLedger,
)


@pytest.fixture()
def ledger_path(tmp_path):
    return str(tmp_path / "budget.db")


class TestBasics:
    def test_new_client_gets_default_budget(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            record = ledger.ensure_client("pk-a")
            assert record.budget == DEFAULT_PRIVACY_BUDGET
            assert record.spent == 0.0
            assert record.remaining == DEFAULT_PRIVACY_BUDGET
            assert record.disclosed == ()

    def test_custom_default_budget(self, ledger_path):
        with PrivacyLedger(ledger_path, default_budget=0.25) as ledger:
            assert ledger.ensure_client("pk-a").budget == 0.25

    def test_invalid_default_budget_rejected(self, ledger_path):
        with pytest.raises(LedgerError):
            PrivacyLedger(ledger_path, default_budget=1.5)
        with pytest.raises(LedgerError):
            PrivacyLedger(ledger_path, default_budget=-0.1)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(LedgerError):
            PrivacyLedger(str(tmp_path / "nope" / "budget.db"))

    def test_unknown_client_raises(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            with pytest.raises(LedgerError):
                ledger.client("pk-ghost")

    def test_ensure_client_is_idempotent(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            ledger.charge("pk-a", features=[3], delta=0.1,
                          spent_after=0.1, request_id="r1", mode="full")
            record = ledger.ensure_client("pk-a")
            assert record.spent == 0.1
            assert record.disclosed == (3,)


class TestCharging:
    def test_charge_accumulates_and_persists(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            ledger.charge("pk-a", features=[1, 2], delta=0.05,
                          spent_after=0.05, request_id="r1", mode="full")
            ledger.charge("pk-a", features=[7], delta=0.07,
                          spent_after=0.12, request_id="r2",
                          mode="degraded")
        # durability: a fresh open sees the same state
        with PrivacyLedger(ledger_path) as ledger:
            record = ledger.client("pk-a")
            assert record.spent == pytest.approx(0.12)
            assert record.disclosed == (1, 2, 7)
            assert record.charges == 2

    def test_redisclosure_does_not_duplicate(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            ledger.charge("pk-a", features=[4], delta=0.02,
                          spent_after=0.02, request_id="r1", mode="full")
            ledger.charge("pk-a", features=[4], delta=0.0,
                          spent_after=0.02, request_id="r2", mode="full")
            assert ledger.client("pk-a").disclosed == (4,)

    def test_negative_delta_rejected(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            with pytest.raises(LedgerError):
                ledger.charge("pk-a", features=[1], delta=-0.5,
                              spent_after=0.0, request_id="r1",
                              mode="full")

    def test_charge_journal_newest_first(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            for i in range(3):
                ledger.charge("pk-a", features=[i], delta=0.01,
                              spent_after=0.01 * (i + 1),
                              request_id=f"r{i}", mode="full")
            journal = ledger.charges("pk-a", limit=2)
            assert [c.request_id for c in journal] == ["r2", "r1"]
            assert journal[0].features == (2,)

    def test_clients_are_independent(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            ledger.ensure_client("pk-b")
            ledger.charge("pk-a", features=[1], delta=0.3,
                          spent_after=0.3, request_id="r1", mode="full")
            assert ledger.client("pk-b").spent == 0.0
            assert ledger.client("pk-b").disclosed == ()

    def test_top_ranks_by_spend(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            for name, spent in (("pk-low", 0.1), ("pk-high", 0.4),
                                ("pk-mid", 0.2)):
                ledger.ensure_client(name)
                ledger.charge(name, features=[0], delta=spent,
                              spent_after=spent, request_id="r",
                              mode="full")
            ranked = [r.client_id for r in ledger.top(2)]
            assert ranked == ["pk-high", "pk-mid"]


class TestReset:
    def test_reset_one_client(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            ledger.ensure_client("pk-b")
            ledger.charge("pk-a", features=[1], delta=0.1,
                          spent_after=0.1, request_id="r1", mode="full")
            assert ledger.reset("pk-a") == 1
            assert ledger.clients() == ["pk-b"]
            # a fresh record again, with a clean history
            record = ledger.ensure_client("pk-a")
            assert record.spent == 0.0
            assert record.disclosed == ()

    def test_reset_all(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            ledger.ensure_client("pk-a")
            ledger.ensure_client("pk-b")
            assert ledger.reset(None) == 2
            assert ledger.clients() == []


class TestMigrations:
    def test_fresh_ledger_is_current_version(self, ledger_path):
        with PrivacyLedger(ledger_path) as ledger:
            assert ledger.schema_version == SCHEMA_VERSION

    def test_v1_file_migrates_forward_preserving_data(self, ledger_path):
        # Write a v1 ledger (no charge journal) the way v1 code did.
        with PrivacyLedger(ledger_path, default_budget=0.3,
                           target_version=1) as ledger:
            assert ledger.schema_version == 1
            ledger.ensure_client("pk-old")
            ledger.charge("pk-old", features=[2, 5], delta=0.11,
                          spent_after=0.11, request_id="r1", mode="full")
        # v2 code opens it: schema upgrades in place, nothing is lost.
        with PrivacyLedger(ledger_path) as ledger:
            assert ledger.schema_version == SCHEMA_VERSION
            record = ledger.client("pk-old")
            assert record.budget == 0.3
            assert record.spent == pytest.approx(0.11)
            assert record.disclosed == (2, 5)
            # pre-migration charges were not journalled; new ones are
            assert record.charges == 0
            ledger.charge("pk-old", features=[7], delta=0.01,
                          spent_after=0.12, request_id="r2", mode="full")
            assert ledger.client("pk-old").charges == 1

    def test_v1_ledger_is_usable_without_journal(self, ledger_path):
        with PrivacyLedger(ledger_path, target_version=1) as ledger:
            ledger.ensure_client("pk-a")
            record = ledger.client("pk-a")
            assert record.charges == 0

    def test_newer_schema_refused(self, ledger_path):
        conn = sqlite3.connect(ledger_path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(LedgerError):
            PrivacyLedger(ledger_path)

    def test_unknown_target_version_refused(self, ledger_path):
        with pytest.raises(LedgerError):
            PrivacyLedger(ledger_path, target_version=SCHEMA_VERSION + 5)


def _open_and_report(path, barrier, results):
    try:
        barrier.wait(timeout=60)
        with PrivacyLedger(path) as ledger:
            results.put(ledger.schema_version)
    except Exception as error:  # noqa: BLE001 - reported to the parent
        results.put(repr(error))


class TestSeveralWriters:
    def test_concurrent_first_opens_all_reach_current_schema(self, tmp_path):
        """Four processes open one fresh file at the same instant: the
        migration runs once, under the write lock, and every open
        succeeds."""
        ctx = multiprocessing.get_context("fork")
        openers = 4
        for trial in range(20):
            path = str(tmp_path / f"fresh-{trial}.db")
            barrier = ctx.Barrier(openers)
            results = ctx.Queue()
            procs = [
                ctx.Process(target=_open_and_report,
                            args=(path, barrier, results), daemon=True)
                for _ in range(openers)
            ]
            for proc in procs:
                proc.start()
            outcomes = [results.get(timeout=120) for _ in procs]
            for proc in procs:
                proc.join(timeout=60)
            assert outcomes == [SCHEMA_VERSION] * openers, (trial, outcomes)
