"""The telemetry core: spans, counters, histograms, and the registry.

Zero-dependency (stdlib only) tracing and metrics for the secure
classification runtime. The design goals, in order:

1. **Near-no-op when disabled.** Every recording entry point starts
   with a single module-flag check; :func:`span` returns one shared
   no-op context manager without allocating. The ``bench_e22``
   benchmark pins the disabled overhead on the crypto hot paths.
2. **Thread- and process-safe.** The registry serialises mutation
   behind one lock; the active-span stack lives in a
   :class:`contextvars.ContextVar`, so concurrent serving threads each
   get their own span tree while sharing the counters. Fleet shard
   processes never share the registry -- they ship plain-dict
   snapshots (:meth:`MetricsRegistry.snapshot`) and the frontend folds
   them in with :meth:`MetricsRegistry.merge`.
3. **Reconcilable with the protocol accounting.** Wire traffic is
   recorded through :func:`record_wire`, which attributes every frame's
   bytes both to the innermost open span and to the global counters
   from the *same* size value the :class:`~repro.smc.protocol
   .ExecutionTrace` is charged with -- the two views cannot drift
   (``tests/telemetry/test_reconcile.py`` holds the line).

Span taxonomy and the counter catalogue are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

SCHEMA = "repro.telemetry/v1"

#: Per-histogram cap on retained raw observations. Histograms keep the
#: first this-many values alongside count/sum/min/max so quantiles
#: (p50/p99 of ``serve.queue_wait``) can be computed from a snapshot;
#: beyond the cap only the aggregate moments keep updating. Bounded so
#: a long-running server cannot grow a snapshot without limit.
HISTOGRAM_SAMPLE_CAP = 4096

#: Module-level fast path: all recording helpers bail on this flag
#: before doing any work. Mutated only via :func:`configure`.
_enabled = False

#: The innermost open span of the current thread/task (or ``None``).
_active_span: contextvars.ContextVar[Optional["SpanRecord"]] = (
    contextvars.ContextVar("repro_telemetry_active_span", default=None)
)


@dataclass
class SpanRecord:
    """One finished (or in-flight) span: a named, timed tree node.

    Attributes hold structured facts about the work done *directly*
    inside this span (not its children): accumulated ``wire_bytes``,
    ``wire_frames``, protocol parameters, request ids. Children are the
    sub-spans opened while this span was innermost.
    """

    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def set(self, key: str, value: Any) -> None:
        """Set one structured attribute."""
        self.attributes[key] = value

    def add(self, key: str, delta: float) -> None:
        """Accumulate a numeric attribute (missing counts as zero)."""
        self.attributes[key] = self.attributes.get(key, 0) + delta

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by snapshots and the JSON exporter."""
        return {
            "name": self.name,
            "elapsed_seconds": self.elapsed_seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(
            name=str(data.get("name", "")),
            attributes=dict(data.get("attributes", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )


class MetricsRegistry:
    """Thread-safe in-memory store of counters, histograms and spans.

    One process-global instance (:func:`get_registry`) backs the module
    helpers; independent instances can be created for tests or for
    merging several processes' snapshots (the fleet frontend).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}
        self._gauges: Dict[str, float] = {}
        self._roots: List[SpanRecord] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its current ``value``.

        Gauges are *set*, not accumulated -- they report an
        instantaneous level (e.g. ``serve.queue_depth``). Merging folds
        by maximum, so a merged document reads as the high-water mark.
        """
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``.

        Alongside the running count/sum/min/max, the first
        :data:`HISTOGRAM_SAMPLE_CAP` raw values are retained in
        ``samples`` so snapshot consumers can compute quantiles
        (:func:`repro.telemetry.histogram_quantiles`).
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = {
                    "count": 1, "sum": value, "min": value, "max": value,
                    "samples": [value],
                }
            else:
                hist["count"] += 1
                hist["sum"] += value
                hist["min"] = min(hist["min"], value)
                hist["max"] = max(hist["max"], value)
                if len(hist["samples"]) < HISTOGRAM_SAMPLE_CAP:
                    hist["samples"].append(value)

    def add_root(self, span: SpanRecord) -> None:
        """Attach a finished top-level span to the registry."""
        with self._lock:
            self._roots.append(span)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A deep plain-dict copy, safe to pickle across processes."""
        with self._lock:
            return {
                "schema": SCHEMA,
                "counters": dict(self._counters),
                "histograms": {
                    name: {**hist, "samples": list(hist.get("samples", []))}
                    for name, hist in self._histograms.items()
                },
                "gauges": dict(self._gauges),
                "spans": [root.to_dict() for root in self._roots],
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add, histograms combine (count/sum add, min/max fold),
        spans append as additional roots. This is how the fleet
        frontend folds every shard process's metrics into one document.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, hist in snapshot.get("histograms", {}).items():
            theirs = list(hist.get("samples", []))
            with self._lock:
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = {
                        **hist, "samples": theirs[:HISTOGRAM_SAMPLE_CAP],
                    }
                else:
                    mine["count"] += hist["count"]
                    mine["sum"] += hist["sum"]
                    mine["min"] = min(mine["min"], hist["min"])
                    mine["max"] = max(mine["max"], hist["max"])
                    room = HISTOGRAM_SAMPLE_CAP - len(mine["samples"])
                    if room > 0:
                        mine["samples"].extend(theirs[:room])
        for name, value in snapshot.get("gauges", {}).items():
            with self._lock:
                mine = self._gauges.get(name)
                self._gauges[name] = (
                    value if mine is None else max(mine, value)
                )
        for span in snapshot.get("spans", []):
            self.add_root(SpanRecord.from_dict(span))

    def reset(self) -> None:
        """Drop every recorded value (used between sessions/tests)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._gauges.clear()
            self._roots.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry behind the module helpers."""
    return _registry


# -- module-level recording helpers (all guarded by the enabled flag) --------


def enabled() -> bool:
    """Is telemetry recording currently on?"""
    return _enabled


def configure(on: bool = True, reset: bool = False) -> None:
    """Turn telemetry on or off; optionally clear the registry."""
    global _enabled
    _enabled = bool(on)
    if reset:
        _registry.reset()
        _active_span.set(None)


def reset() -> None:
    """Clear the registry without changing the enabled flag."""
    _registry.reset()


def count(name: str, value: float = 1) -> None:
    """Global counter increment; no-op while disabled."""
    if not _enabled:
        return
    _registry.count(name, value)


def observe(name: str, value: float) -> None:
    """Global histogram observation; no-op while disabled."""
    if not _enabled:
        return
    _registry.observe(name, value)


def gauge(name: str, value: float) -> None:
    """Global gauge set; no-op while disabled."""
    if not _enabled:
        return
    _registry.gauge(name, value)


def snapshot() -> Dict[str, Any]:
    """Snapshot of the global registry (works even while disabled)."""
    return _registry.snapshot()


def current_span() -> Optional[SpanRecord]:
    """The innermost open span of this thread/task, if any."""
    return _active_span.get()


def record_wire(direction: str, size: int, tag: Optional[str] = None) -> None:
    """Attribute one wire frame of ``size`` bytes to the telemetry.

    Called by :class:`repro.smc.network.Channel` at every logical wire
    crossing with the *same* byte count the execution trace is charged,
    which is what keeps the span view and the trace view reconciled.
    ``direction`` is ``"client_to_server"`` or ``"server_to_client"``;
    ``tag`` is the payload's top-level wire-codec tag name.
    """
    if not _enabled:
        return
    _registry.count("wire.frames")
    _registry.count(f"wire.bytes.{direction}", size)
    if tag is not None:
        _registry.count(f"wire.bytes.tag.{tag}", size)
    active = _active_span.get()
    if active is not None:
        active.add("wire_bytes", size)
        active.add("wire_frames", 1)
    else:
        _registry.count("wire.unattributed_bytes", size)


class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, delta: float) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Context manager recording one span into the registry."""

    __slots__ = ("_record", "_start", "_token")

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self._record = SpanRecord(name=name, attributes=attributes)
        self._start = 0.0
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> SpanRecord:
        self._start = time.perf_counter()
        self._token = _active_span.set(self._record)
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        record.elapsed_seconds = time.perf_counter() - self._start
        if exc_type is not None:
            record.set("error", exc_type.__name__)
        if self._token is not None:
            parent = self._token.old_value
            if parent is contextvars.Token.MISSING:
                parent = None
            _active_span.reset(self._token)
        else:  # pragma: no cover - __enter__ always sets the token
            parent = None
        if parent is not None:
            parent.children.append(record)
        else:
            _registry.add_root(record)
        return False


def span(name: str, **attributes: Any):
    """Open a telemetry span timing one named unit of work.

    While telemetry is disabled this returns a shared no-op context
    manager -- no allocation, no clock reads, no registry traffic.
    While enabled, the span times itself with the monotonic clock,
    nests under the innermost open span of the current thread/task, and
    lands in the registry when the outermost span closes. The yielded
    record takes structured attributes via ``set``/``add``; an
    exception escaping the block marks the span with an ``error``
    attribute before propagating.

    Example::

        telemetry.configure(True)
        with telemetry.span("pipeline.classify", row=3) as record:
            label = pipeline.classify(row, ctx=ctx)
            record.set("label", int(label))
    """
    if not _enabled:
        return _NOOP_SPAN
    return _LiveSpan(name, attributes)
