"""Span plumbing for the layer-attributed benchmark.

The benchmark measures layers from outside the program: it wraps the
public wire entry points (and, in the load generator, the TCP connect)
in ``repro.telemetry`` spans, next to the spans and counters the
program already records. Span trees stay in the process's telemetry
registry until the run ends and are then written out whole.

A layer's *self time* is its span's duration minus its child spans.
Children of one span never overlap -- every span tree belongs to one
thread, and a thread runs its spans one after another -- so the part of
a span its children cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import socket
from collections import Counter
from typing import Dict, Iterable, Tuple

import repro.telemetry as telemetry
from repro.smc import wire

#: Span name -> layer, matched by prefix in order. Benchmark spans named
#: ``bench.<layer>`` map to ``<layer>``.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("serve.request", "serving.request"),
    ("session.keygen", "smc.context.keygen"),
    ("classify.", "secure.classify"),
    ("bench.wire.encode", "smc.wire.encode"),
    ("bench.wire.decode", "smc.wire.decode"),
    ("bench.wire.send_frame", "smc.transport.send"),
    ("bench.wire.recv_frame", "smc.transport.recv_wait"),
    ("dgk.", "smc.compare"),
    ("compare.", "smc.compare"),
    ("argmax.", "smc.argmax"),
    ("dotproduct.", "smc.dotproduct"),
    ("lookup.", "smc.lookup"),
)


def layer_of(name: str) -> str:
    """The layer a span of this name belongs to (``other`` if none)."""
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    if name.startswith("bench."):
        return name[len("bench."):]
    return "other"


def self_seconds_by_name(
    roots: Iterable[Dict],
) -> Tuple[Counter, Counter]:
    """Self time and occurrence count per span name over span trees.

    ``roots`` are span dicts as the telemetry snapshot holds them
    (``name``, ``elapsed_seconds``, ``children``).
    """
    seconds: Counter = Counter()
    counts: Counter = Counter()
    stack = list(roots)
    while stack:
        span = stack.pop()
        children = span.get("children", [])
        seconds[span["name"]] += span["elapsed_seconds"] - sum(
            child["elapsed_seconds"] for child in children
        )
        counts[span["name"]] += 1
        stack.extend(children)
    return seconds, counts


def self_seconds_by_layer(roots: Iterable[Dict]) -> Counter:
    """Self time per layer (see :func:`layer_of`) over span trees."""
    by_name, _ = self_seconds_by_name(roots)
    layers: Counter = Counter()
    for name, seconds in by_name.items():
        layers[layer_of(name)] += seconds
    return layers


def spanned(name: str, func):
    """``func`` timed under a telemetry span called ``name``."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with telemetry.span(name):
            return func(*args, **kwargs)

    wrapper.__bench_wrapped__ = func
    return wrapper


def install_wire_spans() -> None:
    """Time every public wire entry point under a ``bench.wire.*`` span.

    Wraps ``wire.encode``, ``WireCodec.decode``, ``wire.send_frame``
    and ``wire.recv_frame`` process-wide; every caller reaches them
    through the module, so the wrappers see all wire traffic. While
    telemetry is off the wrappers cost one flag check. Idempotent.
    """
    for name in ("encode", "send_frame", "recv_frame"):
        func = getattr(wire, name)
        if not hasattr(func, "__bench_wrapped__"):
            setattr(wire, name, spanned(f"bench.wire.{name}", func))
    if not hasattr(wire.WireCodec.decode, "__bench_wrapped__"):
        wire.WireCodec.decode = spanned(
            "bench.wire.decode", wire.WireCodec.decode
        )


def install_client_spans() -> None:
    """Wire spans plus a ``bench.client.connect`` span around TCP
    connects, for the load-generator process. Idempotent."""
    install_wire_spans()
    if not hasattr(socket.create_connection, "__bench_wrapped__"):
        socket.create_connection = spanned(
            "bench.client.connect", socket.create_connection
        )
