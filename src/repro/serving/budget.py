"""Per-request privacy-budget enforcement for the serving runtime.

Glue between the durable ledger (:mod:`repro.privacy.ledger`), the
disclosure pricer (:mod:`repro.privacy.pricing`) and the servers
(:class:`~repro.serving.runtime.ClassificationServer`, which every
fleet shard runs too). One :class:`BudgetEnforcer` per serving process
admits each request after the session keys exist; the shards of a fleet
each hold one, all open on the same ledger file:

1. identify the client from the session keyring fingerprint
   (:func:`identity_for_context` -- stable because key material
   derives deterministically from the client's seed);
2. price the requested disclosure set on top of the client's recorded
   history (features already disclosed to this client are free -- the
   no-double-charge rule);
3. walk the degradation ladder: grant the full set if it fits the
   remaining budget, otherwise the cheapest affordable subset,
   otherwise nothing -- the request still runs, as pure-SMC
   classification (both ``paillier`` and ``shares`` backends accept an
   empty disclosure set);
4. charge the ledger and emit ``budget.*`` telemetry under a
   ``budget.charge`` span. Steps 2-4 run in one ledger transaction, so
   no other thread or process charges the client in between.

The enforcement invariant -- a client's cumulative realized risk never
exceeds their budget ``rho`` -- holds by construction: a feature is
granted only if the priced risk of the grown cumulative set stays
within ``rho``, and the charge is recorded before the disclosure is
served. See ``docs/PRIVACY.md`` for the operator view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import repro.telemetry as telemetry
from repro.core.exceptions import ReproError
from repro.privacy.ledger import (
    DEFAULT_PRIVACY_BUDGET,
    PrivacyLedger,
)
from repro.privacy.pricing import (
    DisclosurePricer,
    PricingPlan,
    risk_model_from_dict,
)
from repro.smc import wire

#: Degradation-ladder rungs, in order: the full requested set fits the
#: budget / a shrunk subset fits / nothing fits (pure-SMC fallback).
BUDGET_MODES = ("full", "degraded", "smc")


@dataclass(frozen=True)
class BudgetDecision:
    """The admission outcome for one request.

    ``granted`` is the disclosure set the request will actually be
    served with (already-disclosed repeats included -- they are free);
    ``dropped`` what the budget withheld; ``mode`` the degradation-
    ladder rung (:data:`BUDGET_MODES`). ``spent_after <= budget``
    always holds. Servers stamp ``to_dict()`` into the result payload,
    so TCP clients see the decision as
    :attr:`~repro.smc.transport.ClassificationResult.budget`::

        result = request_classification(host, port, row, seed=7)
        if result.budget and result.budget["mode"] != "full":
            print("withheld:", result.budget["dropped"])
    """

    identity: str
    granted: Tuple[int, ...]
    dropped: Tuple[int, ...]
    spent_before: float
    spent_after: float
    budget: float
    mode: str

    @property
    def delta(self) -> float:
        return max(0.0, self.spent_after - self.spent_before)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "granted": list(self.granted),
            "dropped": list(self.dropped),
            "spent_before": self.spent_before,
            "spent_after": self.spent_after,
            "budget": self.budget,
            "mode": self.mode,
        }


class BudgetEnforcer:
    """Prices and charges every request's disclosure against a ledger.

    Owns one :class:`~repro.privacy.ledger.PrivacyLedger` and one
    :class:`~repro.privacy.pricing.DisclosurePricer` (rebuilt from the
    deployment bundle's ``risk_model`` section). ``admit`` reads,
    prices and charges inside one ledger transaction, so concurrent
    handler threads -- and other processes on the same ledger file --
    see a consistent cumulative history per client.

    Servers build one via :meth:`from_config`; standalone use::

        enforcer = BudgetEnforcer(bundle.risk_model, "budget.db",
                                  default_budget=0.2)
        decision = enforcer.admit("pk-ab12", [0, 4, 9], "req-1")
        assert decision.spent_after <= decision.budget
        enforcer.close()
    """

    def __init__(
        self,
        risk_model: dict,
        ledger_path: str,
        default_budget: Optional[float] = None,
    ) -> None:
        self._pricer = DisclosurePricer(risk_model_from_dict(risk_model))
        self._ledger = PrivacyLedger(
            ledger_path,
            default_budget=(
                DEFAULT_PRIVACY_BUDGET
                if default_budget is None
                else default_budget
            ),
        )

    @classmethod
    def from_config(cls, deployed, config) -> Optional["BudgetEnforcer"]:
        """Build an enforcer from serving configuration, or ``None``.

        ``None`` (no ``ledger_path`` configured) means budget
        enforcement is off and requests are served with their full
        disclosure set. A configured ledger with a bundle that carries
        no ``risk_model`` section is a hard error -- silently serving
        unpriced disclosures would defeat the point.
        """
        if config is None or config.ledger_path is None:
            return None
        risk_model = getattr(deployed, "risk_model", None)
        if risk_model is None:
            raise ReproError(
                "budget enforcement requires a deployment bundle with a "
                "risk_model section (re-export it with save_deployment); "
                "this bundle has none"
            )
        return cls(
            risk_model,
            config.ledger_path,
            default_budget=config.privacy_budget,
        )

    @property
    def ledger(self) -> PrivacyLedger:
        return self._ledger

    def admit(
        self, identity: str, requested: Sequence[int], request_id: str
    ) -> BudgetDecision:
        """Price, degrade and durably charge one request's disclosure."""
        with telemetry.span(
            "budget.charge", request_id=request_id
        ) as charge_span:
            with self._ledger.transaction():
                record = self._ledger.ensure_client(identity)
                requested = [int(f) for f in requested]
                if not set(requested) - set(record.disclosed):
                    # Replay fast path: nothing fresh, so the
                    # cumulative set -- and its price -- cannot move.
                    # The ledger's recorded spend IS that price
                    # (verified against an independent re-pricing by
                    # benchmarks/bench_e26_budget.py).
                    plan = PricingPlan(
                        granted=tuple(sorted(set(requested))),
                        dropped=(),
                        spent_before=record.spent,
                        spent_after=record.spent,
                    )
                else:
                    plan = self._pricer.plan(
                        record.disclosed, requested, record.budget
                    )
                if not plan.dropped:
                    mode = "full"
                elif plan.granted:
                    mode = "degraded"
                else:
                    mode = "smc"
                fresh = sorted(set(plan.granted) - set(record.disclosed))
                self._ledger.charge(
                    identity,
                    features=fresh,
                    delta=plan.delta,
                    spent_after=plan.spent_after,
                    request_id=request_id,
                    mode=mode,
                )
                known_clients = self._ledger.client_count()
            charge_span.set("client", identity)
            charge_span.set("mode", mode)
            charge_span.set("delta", plan.delta)
        telemetry.count("budget.requests")
        if plan.delta > 0:
            telemetry.count("budget.charged")
        if mode == "degraded":
            telemetry.count("budget.degraded")
        elif mode == "smc":
            telemetry.count("budget.smc_fallback")
        telemetry.gauge("budget.clients", known_clients)
        telemetry.gauge("budget.spent_max", plan.spent_after)
        return BudgetDecision(
            identity=identity,
            granted=plan.granted,
            dropped=plan.dropped,
            spent_before=plan.spent_before,
            spent_after=plan.spent_after,
            budget=record.budget,
            mode=mode,
        )

    def close(self) -> None:
        self._ledger.close()


# -- client identity ----------------------------------------------------


def identity_for_context(ctx) -> str:
    """The client identity of a live session: the fingerprint of the
    keyring this session sends in its ``KIND_KEYS`` handshake."""
    codec = wire.codec_for_context(ctx)
    return wire.keyring_fingerprint(wire.keyring_payload(
        paillier=codec.paillier, dgk=codec.dgk
    ))
