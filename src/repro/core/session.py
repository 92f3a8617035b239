"""Session configuration: one object for a whole two-party session.

Key sizes, the protocol backend, socket timeouts, randomness mode,
serving policy and the telemetry switch live in one validated
dataclass, :class:`SessionConfig`, accepted everywhere a session is
built (:func:`repro.smc.context.make_context`,
:class:`repro.core.pipeline.PipelineConfig`, the CLI and the serving
runtime). The bignum kernel is not a session setting: every engine
runs on the process default of :mod:`repro.crypto.modexp`
(``REPRO_CRYPTO_BACKEND`` or
:func:`~repro.crypto.modexp.set_default_backend`).

This module is deliberately light: it imports no sockets, no process
pools, no numpy -- the :mod:`repro.api` facade re-exports it without
dragging the heavy runtime in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.exceptions import ReproError

#: Protocol backends, mirrored from
#: :data:`repro.secure.backends.PROTOCOL_BACKENDS` (kept literal here so
#: this module stays import-light; a unit test asserts the two stay in
#: sync).
PROTOCOL_BACKENDS = ("paillier", "shares")

RNG_MODES = ("deterministic", "system")

DEFAULT_STATISTICAL_SECURITY_BITS = 40


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to stand up one client/server crypto session.

    Attributes
    ----------
    seed:
        Master seed deriving key material and both parties' randomness
        streams (``rng_mode="deterministic"``).
    paillier_bits / dgk_bits / dgk_plaintext_bits:
        Key sizes for the additively homomorphic and comparison
        cryptosystems.
    statistical_security_bits:
        Width of the additive blinding margin (``kappa``).
    protocol_backend:
        Online-phase protocol engine: ``"paillier"`` (default; the
        paper's homomorphic protocol stack, all work online) or
        ``"shares"`` (additive secret sharing over precomputed Beaver
        triples; ring arithmetic online, triple dealing offline). The
        CLI surfaces this as ``--backend``.
    connect_timeout / io_timeout:
        Socket timeouts in seconds: one connect attempt (the fleet
        frontend dialing a shard) and one blocking send/receive on a
        served connection.
    rng_mode:
        ``"deterministic"`` (seeded, reproducible transcripts) or
        ``"system"`` (OS entropy; suitable for real key material, not
        reproducible).
    telemetry:
        Whether spans/counters should be recorded for this session.
        The CLI flips this on for ``--metrics``; library users call
        :func:`repro.telemetry.configure` themselves.
    max_workers / queue_depth / request_timeout_s:
        Serving-runtime policy (:class:`repro.serving
        .ClassificationServer`): the request handler pool size, how
        many admitted requests may wait for a free worker before new
        connections are shed with an ``overloaded`` error, and the
        per-request wall-clock deadline in seconds (``None`` = fall
        back to ``io_timeout``).
    ledger_path / privacy_budget:
        Cumulative privacy-budget enforcement for served deployments
        (:mod:`repro.privacy.ledger`). ``ledger_path`` is the sqlite
        file durably recording each client's disclosed features and
        realized risk (``None`` = no ledger, requests are served with
        their full disclosure set); ``privacy_budget`` is the default
        per-client budget ``rho`` in ``[0, 1]`` for clients the ledger
        has not seen before (``None`` = the ledger default). See
        ``docs/PRIVACY.md``.
    shards:
        Number of independent shard *processes* behind the serving
        frontend (:class:`repro.serving.ClassificationFleet`). ``1``
        (default) serves from a single in-process
        :class:`~repro.serving.ClassificationServer`; above that, each
        shard gets its own process, crypto engine and telemetry
        registry, so online capacity scales with cores instead of
        stalling on the GIL. ``max_workers`` / ``queue_depth`` apply
        *per shard*.

    Example::

        config = SessionConfig(seed=7, paillier_bits=384, dgk_bits=192)
        ctx = make_context(config=config)
        served = config.with_overrides(max_workers=8)
    """

    seed: int = 0
    paillier_bits: int = 512
    dgk_bits: int = 256
    dgk_plaintext_bits: int = 16
    statistical_security_bits: int = DEFAULT_STATISTICAL_SECURITY_BITS
    protocol_backend: str = "paillier"
    connect_timeout: float = 5.0
    io_timeout: float = 30.0
    rng_mode: str = "deterministic"
    telemetry: bool = False
    max_workers: int = 4
    queue_depth: int = 16
    request_timeout_s: Optional[float] = None
    shards: int = 1
    ledger_path: Optional[str] = None
    privacy_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.protocol_backend not in PROTOCOL_BACKENDS:
            raise ReproError(
                f"unknown protocol backend {self.protocol_backend!r}; "
                f"expected one of {PROTOCOL_BACKENDS}"
            )
        if self.rng_mode not in RNG_MODES:
            raise ReproError(
                f"unknown rng mode {self.rng_mode!r}; "
                f"expected one of {RNG_MODES}"
            )
        for name in ("paillier_bits", "dgk_bits", "dgk_plaintext_bits",
                     "statistical_security_bits"):
            if getattr(self, name) <= 0:
                raise ReproError(f"{name} must be positive")
        if self.max_workers < 1:
            raise ReproError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        if self.queue_depth < 0:
            raise ReproError(
                f"queue_depth must be non-negative, got {self.queue_depth}"
            )
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ReproError(
                f"request_timeout_s must be positive, "
                f"got {self.request_timeout_s}"
            )
        if self.shards < 1:
            raise ReproError(f"shards must be positive, got {self.shards}")
        if self.privacy_budget is not None and not (
            0.0 <= self.privacy_budget <= 1.0
        ):
            raise ReproError(
                f"privacy_budget must be a normalized risk in [0, 1], "
                f"got {self.privacy_budget}"
            )

    def with_overrides(self, **overrides) -> "SessionConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    @classmethod
    def from_args(cls, args, **extra) -> "SessionConfig":
        """Build a config from a parsed CLI namespace.

        Reads whichever of ``--seed``, ``--backend``, ``--rng-mode``,
        ``--metrics``, ``--queue-depth``, ``--request-timeout``,
        ``--shards``, ``--ledger`` and ``--privacy-budget`` the
        subcommand defined; anything absent keeps its default.
        ``extra`` overrides both.
        """
        values = {}
        for field_name, arg_name in (
            ("seed", "seed"),
            ("protocol_backend", "backend"),
            ("rng_mode", "rng_mode"),
            ("queue_depth", "queue_depth"),
            ("request_timeout_s", "request_timeout"),
            ("shards", "shards"),
            ("ledger_path", "ledger"),
            ("privacy_budget", "privacy_budget"),
        ):
            value = getattr(args, arg_name, None)
            if value is not None:
                values[field_name] = value
        if getattr(args, "metrics", None) is not None:
            values["telemetry"] = True
        values.update(extra)
        return cls(**values)
