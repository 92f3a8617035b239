"""repro.api -- the unified public surface of the reproduction.

One import gives everything a user of the library needs::

    from repro.api import (
        PipelineConfig, PrivacyAwareClassifier, SessionConfig,
        TradeoffAnalyzer, make_context, telemetry,
    )

The facade re-exports the pipeline, the session configuration, the
trade-off analyzer, live-session construction, the protocol backend
interface (:class:`ProtocolBackend` and its ``paillier`` / ``shares``
implementations) and the telemetry entry points eagerly; the deployment
*serving* surface (``ClassificationServer``, ``request_classification``,
``ServerError``, ...) is re-exported lazily via PEP 562 so
that ``import repro.api`` never drags in the TCP transport stack --
scripts that only train and classify in-process stay light, and the
facade import itself cannot open sockets or spawn process pools
(``tests/core/test_api_facade.py`` pins this). The privacy-budget
ledger surface (:class:`PrivacyLedger`, :class:`BudgetEnforcer`,
:class:`BudgetDecision`; see ``docs/PRIVACY.md``) is lazy for the same
reason.

Everything listed in ``__all__`` is public API with deprecation-window
stability; anything else in the package tree is implementation detail.
"""

from __future__ import annotations

import importlib
from typing import Any

import repro.telemetry as telemetry
from repro.core.exceptions import ReproError
from repro.core.pipeline import PipelineConfig, PrivacyAwareClassifier
from repro.core.session import SessionConfig
from repro.core.tradeoff import TradeoffAnalyzer, TradeoffPoint
from repro.privacy.risk import RiskMetric
from repro.secure.backends import (
    PaillierBackend,
    ProtocolBackend,
    SharesBackend,
)
from repro.selection.problem import DisclosureProblem, DisclosureSolution
from repro.smc.context import TwoPartyContext, make_context
from repro.telemetry import span

__all__ = [
    "BudgetDecision",
    "BudgetEnforcer",
    "ClassificationResult",
    "ClassificationServer",
    "DisclosureProblem",
    "DisclosureSolution",
    "PaillierBackend",
    "PipelineConfig",
    "PrivacyAwareClassifier",
    "PrivacyLedger",
    "ProtocolBackend",
    "ReproError",
    "RiskMetric",
    "ServerError",
    "SessionConfig",
    "SharesBackend",
    "TradeoffAnalyzer",
    "TradeoffPoint",
    "TwoPartyContext",
    "make_context",
    "request_classification",
    "span",
    "telemetry",
]

#: Lazily resolved exports: name -> (module, attribute). These pull in
#: sockets/multiprocessing machinery, so they only load on first touch.
_LAZY_EXPORTS = {
    "BudgetDecision": ("repro.serving.budget", "BudgetDecision"),
    "BudgetEnforcer": ("repro.serving.budget", "BudgetEnforcer"),
    "ClassificationResult": ("repro.smc.transport", "ClassificationResult"),
    "PrivacyLedger": ("repro.privacy.ledger", "PrivacyLedger"),
    "ClassificationServer": ("repro.serving", "ClassificationServer"),
    "ServerError": ("repro.smc.transport", "ServerError"),
    "request_classification": (
        "repro.smc.transport", "request_classification"
    ),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: resolve each lazy export once
    return value


def __dir__() -> list:
    return sorted(__all__)
