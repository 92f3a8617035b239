"""The invariant checkers, one module per rule.

``ALL_CHECKERS`` is the registry the driver and the CLI iterate; adding
a checker means adding a module here and instantiating it in the list
(see docs/STATIC_ANALYSIS.md, "Adding a checker").
"""

from __future__ import annotations

from typing import List

from repro.analysis.framework import Checker
from repro.analysis.checkers.rng_hygiene import RngHygieneChecker
from repro.analysis.checkers.channel_leak import ChannelLeakChecker
from repro.analysis.checkers.wire_tags import WireTagChecker
from repro.analysis.checkers.protocol_entry import ProtocolEntryChecker
from repro.analysis.checkers.telemetry_span import TelemetrySpanChecker
from repro.analysis.checkers.ciphertext_arith import CiphertextArithChecker
from repro.analysis.checkers.exception_hygiene import ExceptionHygieneChecker
from repro.analysis.checkers.mutable_defaults import MutableDefaultChecker
from repro.analysis.checkers.lock_discipline import LockDisciplineChecker
from repro.analysis.checkers.branch_on_secret import BranchOnSecretChecker

ALL_CHECKERS: List[Checker] = [
    RngHygieneChecker(),
    ChannelLeakChecker(),
    WireTagChecker(),
    ProtocolEntryChecker(),
    TelemetrySpanChecker(),
    CiphertextArithChecker(),
    ExceptionHygieneChecker(),
    MutableDefaultChecker(),
    LockDisciplineChecker(),
    BranchOnSecretChecker(),
]


__all__ = ["ALL_CHECKERS"]
