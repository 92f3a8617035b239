"""Immutable per-request state for the concurrent serving runtime.

The old serial server (`serve_deployment` before PR 5) parked each
request's disclosure override *on the shared deployed model* and
restored it afterwards -- harmless with one request at a time, a data
race the moment two requests overlap. :class:`RequestSession` is the
replacement: everything one request needs (row, seed, a defensive copy
of the effective disclosure set) is captured into a frozen dataclass at
admission time, so a handler thread cannot observe -- let alone mutate
-- another request's state through the shared
:class:`~repro.core.serialization.DeployedClassifier`.

Validation happens here too: a malformed request -- including a row
of the wrong width, or one that asks to disclose a feature the
deployed schema does not have --
raises :class:`BadRequest` *before* any key material is derived or any
disclosure priced, and the runtime answers it with a ``KIND_ERROR``
frame instead of a stack trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple


class BadRequest(Exception):
    """Raised when a ``KIND_REQUEST`` payload is structurally invalid."""


def _int_tuple(values: Sequence[Any], what: str) -> Tuple[int, ...]:
    try:
        return tuple(int(v) for v in values)
    except (TypeError, ValueError) as error:
        raise BadRequest(f"{what} must be a sequence of integers") from error


@dataclass(frozen=True)
class RequestSession:
    """Everything one served classification request needs, immutably.

    Attributes
    ----------
    request_id:
        Server-assigned id (``req-000042``), echoed in result and error
        frames and in the ``serve.request`` telemetry span.
    row:
        The feature vector to classify, canonicalised to a tuple of
        ints.
    seed:
        Master seed for the per-request session keys and randomness
        streams (the client is the key owner in the Bost model; a
        shared seed keeps transcripts reproducible).
    disclosure:
        The *effective* disclosure set for this request: the request's
        override if it sent one, else a copy of the deployment bundle's
        policy. Always a private tuple copy -- handlers never read or
        write the deployed model's ``disclosure`` list.

    Example::

        session = RequestSession.from_payload(
            "req-000001",
            {"row": [1, 2, 3], "seed": 7, "disclosure": [0, 2]},
            default_disclosure=[0, 1, 2],
            n_features=3,
        )
        assert session.disclosure == (0, 2)
    """

    request_id: str
    row: Tuple[int, ...]
    seed: int
    disclosure: Tuple[int, ...]

    @classmethod
    def from_payload(
        cls,
        request_id: str,
        payload: Any,
        default_disclosure: Sequence[int],
        n_features: int,
    ) -> "RequestSession":
        """Validate one decoded ``KIND_REQUEST`` body into a session.

        ``default_disclosure`` (the bundle's shipped policy) is copied,
        never aliased, so per-request overrides can coexist with it on
        concurrent threads. ``n_features`` is the deployed schema's
        width: a row of any other length, or a disclosure override
        naming an index outside ``range(n_features)``, is rejected.
        Raises :class:`BadRequest` on any structural problem.
        """
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a mapping")
        if "row" not in payload or "seed" not in payload:
            raise BadRequest("request must carry 'row' and 'seed'")
        row = payload["row"]
        if not isinstance(row, (list, tuple)) or not row:
            raise BadRequest("'row' must be a non-empty list of integers")
        values = _int_tuple(row, "'row'")
        if len(values) != n_features:
            raise BadRequest(
                f"'row' has {len(values)} values; the deployed schema has "
                f"{n_features} features"
            )
        try:
            seed = int(payload["seed"])
        except (TypeError, ValueError) as error:
            raise BadRequest("'seed' must be an integer") from error
        disclosure: Optional[Sequence[int]] = payload.get("disclosure")
        if disclosure is None:
            effective = _int_tuple(default_disclosure, "bundle disclosure")
        elif isinstance(disclosure, (list, tuple)):
            effective = _int_tuple(disclosure, "'disclosure'")
            for index in effective:
                if not 0 <= index < n_features:
                    raise BadRequest(
                        f"'disclosure' index {index} is outside the "
                        f"deployed schema's {n_features} features"
                    )
        else:
            raise BadRequest("'disclosure' must be a list of indices or null")
        return cls(
            request_id=request_id,
            row=values,
            seed=seed,
            disclosure=effective,
        )
