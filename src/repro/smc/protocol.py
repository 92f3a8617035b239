"""Execution traces: the accounting backbone of every protocol run.

Each protocol invocation records, into a shared :class:`ExecutionTrace`:

* counts of cryptographic operations (:class:`Op`),
* bytes sent in each direction, messages and the number of
  communication rounds (recorded by :class:`repro.smc.network.Channel`).

The analytic cost model (:mod:`repro.smc.cost_model`) converts a trace
into estimated runtime under arbitrary hardware and network profiles, so
benchmarks can report both live pure-Python timings and extrapolated
production timings from the *same* execution.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, TypeVar

import repro.telemetry as telemetry

_F = TypeVar("_F", bound=Callable)

#: Registry of functions marked with :func:`protocol_entry`, keyed by
#: ``module.qualname``. Tests and the static analyser use it to know
#: which functions own a protocol phase.
PROTOCOL_ENTRY_POINTS: Dict[str, Callable] = {}

#: The live trace whose ops the outermost running entry point publishes;
#: entry points nested on the same trace leave the publishing to it.
_PUBLISHING: ContextVar[Optional["ExecutionTrace"]] = ContextVar(
    "repro_publishing_trace", default=None
)


def protocol_entry(func: Optional[_F] = None, *, span: Optional[str] = None):
    """Mark ``func`` as a protocol entry point.

    Entry points own a fresh protocol *phase*: their first channel
    message opens a new communication round regardless of which party
    spoke last in the surrounding composition, which they guarantee by
    calling ``channel.reset_direction()`` before their first direct
    send. The contract is enforced statically by the ``protocol-entry``
    rule of :mod:`repro.analysis` (functions that only delegate to
    other entry points pass trivially -- the callee resets).

    Entry points are also the telemetry span boundary: every invocation
    runs under a span named ``span`` (the ``telemetry-span`` lint rule
    requires the name to be declared explicitly inside the protocol
    packages, so the span taxonomy in ``docs/OBSERVABILITY.md`` is the
    single source of truth). The outermost entry point on a live
    session trace -- a classifier's ``classify`` for a whole query --
    publishes the ops it recorded to the ``op.*`` counters when it
    returns (:func:`publish_ops`). While telemetry is disabled the
    wrapper costs one flag check per call -- the hot path stays flat.

    Usable bare (``@protocol_entry``; span name derived from the
    function name) or called (``@protocol_entry(span="dgk.compare")``).
    """

    def decorate(target: _F) -> _F:
        span_name = span or f"smc.{target.__name__.lstrip('_')}"

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not telemetry.enabled():
                return target(*args, **kwargs)
            with telemetry.span(span_name):
                trace = _session_trace(args)
                if trace is None or _PUBLISHING.get() is trace:
                    return target(*args, **kwargs)
                before = Counter(trace.ops)
                token = _PUBLISHING.set(trace)
                try:
                    return target(*args, **kwargs)
                finally:
                    _PUBLISHING.reset(token)
                    publish_ops(trace.ops - before)

        wrapper.__protocol_entry__ = True
        wrapper.__protocol_span__ = span_name
        PROTOCOL_ENTRY_POINTS[
            f"{target.__module__}.{target.__qualname__}"
        ] = wrapper
        return wrapper  # type: ignore[return-value]

    if func is not None:
        return decorate(func)
    return decorate


def _session_trace(args) -> Optional["ExecutionTrace"]:
    """The live trace an entry point runs on: carried by its context
    argument directly, or by a share session's ``ctx``."""
    for arg in args:
        trace = getattr(getattr(arg, "ctx", arg), "trace", None)
        if isinstance(trace, ExecutionTrace):
            return trace
    return None


def publish_ops(ops: Mapping["Op", int]) -> None:
    """Charge live operations to the ``op.<name>`` telemetry counters.

    The one writer of those counters. Analytic traces (the optimizer's
    ``estimated_trace`` calls) never reach it, so ``op.*`` describes
    work a live session actually performed.
    """
    for op, times in ops.items():
        telemetry.count(f"op.{op.value}", times)


class Op(enum.Enum):
    """Cryptographic operations tracked by the cost model."""

    PAILLIER_ENCRYPT = "paillier_encrypt"
    PAILLIER_DECRYPT = "paillier_decrypt"
    PAILLIER_ADD = "paillier_add"
    PAILLIER_SCALAR_MUL = "paillier_scalar_mul"
    PAILLIER_RERANDOMIZE = "paillier_rerandomize"
    DGK_ENCRYPT = "dgk_encrypt"
    DGK_ZERO_TEST = "dgk_zero_test"
    DGK_ADD = "dgk_add"
    DGK_SCALAR_MUL = "dgk_scalar_mul"
    OT_TRANSFER_1OF2 = "ot_transfer_1of2"
    SHARE_MUL_TRIPLE = "share_mul_triple"
    SYMMETRIC_OP = "symmetric_op"

    # Members are singletons compared by identity, so the identity hash
    # is valid, and it skips Enum.__hash__'s Python-level call on every
    # ExecutionTrace.count.
    __hash__ = object.__hash__


@dataclass
class ExecutionTrace:
    """Mutable record of one (or several composed) protocol executions.

    Traces are additive: running several protocols against the same trace
    accumulates their costs, which is how a full classification query
    (dot product + comparison + argmax) is accounted end to end.
    """

    ops: Counter = field(default_factory=Counter)
    bytes_client_to_server: int = 0
    bytes_server_to_client: int = 0
    messages: int = 0
    rounds: int = 0
    label: str = ""

    def count(self, op: Op, times: int = 1) -> None:
        """Record ``times`` occurrences of ``op`` in this trace only.

        Live traces reach the telemetry ``op.*`` counters through
        :func:`publish_ops` when their outermost protocol entry point
        returns; analytic traces never do.
        """
        if times < 0:
            raise ValueError(f"cannot count a negative number of ops: {times}")
        self.ops[op] += times

    @property
    def total_bytes(self) -> int:
        """Total bytes across both directions."""
        return self.bytes_client_to_server + self.bytes_server_to_client

    def merge(self, other: "ExecutionTrace") -> None:
        """Fold another trace's costs into this one."""
        self.ops.update(other.ops)
        self.bytes_client_to_server += other.bytes_client_to_server
        self.bytes_server_to_client += other.bytes_server_to_client
        self.messages += other.messages
        self.rounds += other.rounds

    def op_count(self, op: Op) -> int:
        """Number of recorded occurrences of ``op``."""
        return self.ops.get(op, 0)

    def summary(self) -> Dict[str, float]:
        """A flat dict view used by benchmark reporting."""
        result: Dict[str, float] = {
            "bytes_total": float(self.total_bytes),
            "bytes_client_to_server": float(self.bytes_client_to_server),
            "bytes_server_to_client": float(self.bytes_server_to_client),
            "messages": float(self.messages),
            "rounds": float(self.rounds),
        }
        for op, count in sorted(self.ops.items(), key=lambda kv: kv[0].value):
            result[f"op_{op.value}"] = float(count)
        return result

    def __iter__(self) -> Iterator:
        return iter(self.summary().items())
