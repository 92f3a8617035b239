"""Concurrent, fault-isolated serving runtime for deployed classifiers.

The package behind ``python -m repro serve``: a
:class:`ClassificationServer` accepts connections on a listener thread
and dispatches each request to a bounded worker pool, with per-request
immutable state (:class:`RequestSession`), load shedding, deadlines,
sanitized ``KIND_ERROR`` reporting and graceful drain. Above a single
process, :class:`ClassificationFleet` runs N shard servers as
independent processes behind a sticky, shed-aware routing frontend
(``--shards N``). See ``docs/DEPLOYMENT.md`` for the operator guide
and :mod:`repro.serving.runtime` / :mod:`repro.serving.fleet` for the
design invariants.
"""

from repro.serving.fleet import ClassificationFleet, ShardHandle
from repro.serving.runtime import ClassificationServer
from repro.serving.session import BadRequest, RequestSession

__all__ = [
    "BadRequest",
    "ClassificationFleet",
    "ClassificationServer",
    "RequestSession",
    "ShardHandle",
]
