"""Protocol backends: pluggable online-phase engines for classification.

The secure classifiers describe *what* a query computes (feature
transfer, per-class affine scores, a comparison or argmax, possibly a
revealed score); a :class:`ProtocolBackend` decides *how* those steps
execute cryptographically:

* :class:`PaillierBackend` -- the paper's protocol stack: Paillier
  ciphertexts cross the wire, dot products are homomorphic
  multi-exponentiations, comparisons run the DGK subprotocol. All the
  work is online.
* :class:`SharesBackend` -- an additive secret-sharing online phase:
  features and weights are input-shared, every multiplication consumes
  a precomputed Beaver triple and every comparison a precomputed mask
  from an offline :class:`~repro.crypto.triples.TripleStore`, so the
  online phase is integer ring arithmetic plus fixed-width share
  openings -- orders of magnitude cheaper per query, at the price of
  offline triple provisioning.

Backends are selected by name through :data:`PROTOCOL_BACKENDS` (the
``protocol_backend`` field of :class:`repro.core.session.SessionConfig`,
``--backend`` on the CLI) and attached to the session context by
:func:`repro.smc.context.make_context`; protocol code reads
``ctx.protocol_backend`` and never touches a keyring directly.

Every backend also carries the *cost-model hooks* (``trace_*``): the
analytic mirror of its live protocol, so the disclosure optimizer can
price a query under either backend without running crypto.

Example (the full surface, no network needed)::

    from repro.secure.backends import make_protocol_backend
    backend = make_protocol_backend("shares")
    from repro.smc.context import make_context
    from repro.core.session import SessionConfig
    ctx = make_context(config=SessionConfig(seed=1, paillier_bits=256))
    state = backend.begin_query(ctx, magnitude_bits=16)
    shared = backend.encrypt_features(state, [3, 1])
    scores = backend.dot_products(state, shared, [[2, 0], [0, 5]], [10, -4])
    assert backend.sign_test_client_learns(state, scores) in (0, 1)
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence

from repro.crypto.beaver import ComparisonMask, TrustedDealer
from repro.crypto.rand import DeterministicRandom
from repro.crypto.triples import TripleStore
from repro.secure.costing import (
    FRAME_OVERHEAD,
    ProtocolSizes,
    add_dot_product,
    add_encrypt_vector,
    add_secure_argmax,
    add_share_argmax,
    add_share_dot_products,
    add_share_reveal,
    add_share_sign_test,
    add_share_vector,
    add_sign_test,
)
from repro.smc import argmax as _argmax
from repro.smc import comparison as _comparison
from repro.smc import dotproduct as _dotproduct
from repro.smc import shares as _shares
from repro.smc import wire
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import ExecutionTrace, Op
from repro.smc.shares import ShareSession, modulus_bits_for


class BackendError(Exception):
    """Raised for unknown backend names or misused query states."""


@dataclass
class QueryState:
    """One classification query's backend-side state.

    ``session`` is populated by the shares backend only; the Paillier
    backend keeps all its state in the context's keyring.
    """

    ctx: TwoPartyContext
    magnitude_bits: int
    session: Optional[ShareSession] = None


class ProtocolBackend(abc.ABC):
    """Interface every online-phase protocol engine implements.

    Live-protocol methods (each operates on the :class:`QueryState`
    returned by :meth:`begin_query`):

    * :meth:`encrypt_features` -- move the client's hidden feature
      values into the backend's protected representation, crossing the
      wire once;
    * :meth:`dot_products` -- one protected affine score per weight
      row, folding public per-row offsets in for free;
    * :meth:`sign_test_client_learns` -- binary decision: the client
      learns ``score_1 >= score_0`` and nothing else;
    * :meth:`argmax_client_learns` -- multi-class decision: the client
      learns the index of the maximum score and nothing else;
    * :meth:`reveal_score_to_client` -- regression output: the client
      learns the raw fixed-point score.

    :meth:`prepare_offline` moves precomputable work (triple dealing,
    encryption pools) out of the online path; the ``trace_*`` hooks are
    the analytic cost model matching the live methods exactly.

    Backends are selected by name through
    :class:`repro.core.session.SessionConfig`; classifier code never
    branches on the backend, it only calls this interface. Example::

        ctx = make_context(config=SessionConfig(protocol_backend="shares"))
        backend = ctx.protocol_backend
        state = backend.begin_query(ctx, magnitude_bits=32)
        protected = backend.encrypt_features(state, [3, 1, 4])
        scores = backend.dot_products(state, protected, [[2, -1, 5]], [7])
        print(backend.reveal_score_to_client(state, scores[0]))
    """

    #: Registry name of the backend (the ``--backend`` value).
    name: ClassVar[str] = ""

    # -- live online phase ---------------------------------------------------

    @abc.abstractmethod
    def begin_query(
        self, ctx: TwoPartyContext, magnitude_bits: int
    ) -> QueryState:
        """Open one query's state; ``magnitude_bits`` bounds every
        score magnitude the query will compare or reveal."""

    @abc.abstractmethod
    def encrypt_features(
        self, state: QueryState, values: Sequence[int]
    ) -> List[Any]:
        """Client-side: protect the hidden feature values and ship them."""

    @abc.abstractmethod
    def dot_products(
        self,
        state: QueryState,
        vector: Sequence[Any],
        weight_rows: Sequence[Sequence[int]],
        offsets: Sequence[int],
    ) -> List[Any]:
        """Server-side: one protected ``<w, x> + offset`` per row."""

    @abc.abstractmethod
    def sign_test_client_learns(
        self, state: QueryState, scores: Sequence[Any]
    ) -> int:
        """Binary decision bit ``scores[1] >= scores[0]``, to the client."""

    @abc.abstractmethod
    def argmax_client_learns(
        self, state: QueryState, scores: Sequence[Any]
    ) -> int:
        """Index of the maximum score, to the client."""

    @abc.abstractmethod
    def reveal_score_to_client(self, state: QueryState, score: Any) -> int:
        """Open one protected (signed) score to the client."""

    # -- offline phase -------------------------------------------------------

    def prepare_offline(
        self,
        ctx: TwoPartyContext,
        magnitude_bits: int,
        *,
        triples: int = 0,
        comparisons: int = 0,
    ) -> None:
        """Run precomputation for upcoming queries (default: nothing).

        Backends with no offline phase ignore this; the shares backend
        deals ``triples`` Beaver triples and ``comparisons`` comparison
        masks into its store. A query the store cannot cover deals its
        shortfall inline, counted as ``triples.misses`` /
        ``masks.misses``.
        """

    def offline_trace(self) -> Optional[ExecutionTrace]:
        """Accumulated offline-phase traffic, or ``None`` if the
        backend has no offline phase."""
        return None

    # -- analytic cost hooks -------------------------------------------------

    @abc.abstractmethod
    def trace_encrypt_vector(
        self,
        trace: ExecutionTrace,
        length: int,
        sizes: ProtocolSizes,
        magnitude_bits: int,
    ) -> None:
        """Analytic mirror of :meth:`encrypt_features`."""

    @abc.abstractmethod
    def trace_dot_products(
        self,
        trace: ExecutionTrace,
        nonzero_per_row: Sequence[int],
        sizes: ProtocolSizes,
        magnitude_bits: int,
    ) -> None:
        """Analytic mirror of :meth:`dot_products` over rows with the
        given nonzero hidden-weight counts."""

    @abc.abstractmethod
    def trace_sign_test(
        self, trace: ExecutionTrace, bits: int, sizes: ProtocolSizes
    ) -> None:
        """Analytic mirror of :meth:`sign_test_client_learns`."""

    @abc.abstractmethod
    def trace_argmax(
        self,
        trace: ExecutionTrace,
        candidates: int,
        bits: int,
        sizes: ProtocolSizes,
    ) -> None:
        """Analytic mirror of :meth:`argmax_client_learns`."""

    @abc.abstractmethod
    def trace_reveal_score(
        self, trace: ExecutionTrace, sizes: ProtocolSizes, magnitude_bits: int
    ) -> None:
        """Analytic mirror of :meth:`reveal_score_to_client`."""


class PaillierBackend(ProtocolBackend):
    """The paper's Paillier/DGK protocol stack as a backend.

    A thin adapter: every method delegates to the existing protocol
    functions (:mod:`repro.smc.dotproduct`, :mod:`repro.smc.comparison`,
    :mod:`repro.smc.argmax`) with unchanged transcripts, and every
    ``trace_*`` hook to the existing analytic builders -- so traces and
    byte accounting are identical to the pre-backend code paths.

    ``rng`` is accepted for registry uniformity and ignored: all
    Paillier randomness comes from the session context's key material
    and party rngs.

    This is the default backend -- an unconfigured session runs on it.
    Example::

        ctx = make_context(config=SessionConfig(seed=7))
        print(ctx.protocol_backend.name)   # "paillier"
        label = deployed.classify(ctx, row)
    """

    name = "paillier"

    def __init__(self, rng: Optional[DeterministicRandom] = None) -> None:
        del rng

    def begin_query(
        self, ctx: TwoPartyContext, magnitude_bits: int
    ) -> QueryState:
        return QueryState(ctx=ctx, magnitude_bits=magnitude_bits)

    def encrypt_features(
        self, state: QueryState, values: Sequence[int]
    ) -> List[Any]:
        return _dotproduct.encrypt_feature_vector(state.ctx, values)

    def dot_products(
        self,
        state: QueryState,
        vector: Sequence[Any],
        weight_rows: Sequence[Sequence[int]],
        offsets: Sequence[int],
    ) -> List[Any]:
        return _dotproduct.batched_encrypted_dot_products(
            state.ctx, vector, weight_rows, offsets
        )

    def sign_test_client_learns(
        self, state: QueryState, scores: Sequence[Any]
    ) -> int:
        ctx = state.ctx
        difference = ctx.add(scores[1], -scores[0])
        return _comparison.sign_test_client_learns(
            ctx, difference, state.magnitude_bits
        )

    def argmax_client_learns(
        self, state: QueryState, scores: Sequence[Any]
    ) -> int:
        # Shift signed scores into [0, 2^bits) for the argmax protocol.
        ctx = state.ctx
        shift = 1 << (state.magnitude_bits - 1)
        shifted = [ctx.add(score, shift) for score in scores]
        return _argmax.secure_argmax(ctx, shifted, state.magnitude_bits)

    def reveal_score_to_client(self, state: QueryState, score: Any) -> int:
        ctx = state.ctx
        ctx.channel.reset_direction()
        delivered = ctx.channel.server_sends(ctx.rerandomize(score))
        return ctx.client_decrypt(delivered)

    # -- analytic hooks --

    def trace_encrypt_vector(self, trace, length, sizes, magnitude_bits):
        add_encrypt_vector(trace, length, sizes)

    def trace_dot_products(self, trace, nonzero_per_row, sizes, magnitude_bits):
        for nonzero in nonzero_per_row:
            add_dot_product(trace, nonzero, sizes)

    def trace_sign_test(self, trace, bits, sizes):
        add_sign_test(trace, bits, sizes)

    def trace_argmax(self, trace, candidates, bits, sizes):
        add_secure_argmax(trace, candidates, bits, sizes)

    def trace_reveal_score(self, trace, sizes, magnitude_bits):
        trace.count(Op.PAILLIER_RERANDOMIZE)
        trace.count(Op.PAILLIER_DECRYPT)
        trace.bytes_server_to_client += (
            FRAME_OVERHEAD + sizes.paillier_ct_wire_bytes
        )
        trace.messages += 1
        trace.rounds += 1


class SharesBackend(ProtocolBackend):
    """Secret-sharing online phase over precomputed Beaver material.

    One :class:`~repro.crypto.triples.TripleStore` per ring modulus,
    created lazily from the first query needing that ring and shared by
    all subsequent queries -- the offline stockpile survives across
    per-request contexts. The dealer's rng is a mode-preserving fork of
    the session rng (or of ``rng`` when injected), so a system-entropy
    session deals from system entropy too.

    Distribution honesty: every freshly dealt party-1 bundle round-trips
    through the canonical wire codec (``TAG_TRIPLE`` / ``TAG_SHARE``
    elements) via the store's ``distribute`` hook, and the measured
    bytes accumulate in :meth:`offline_trace` -- the offline phase is
    charged with the same honesty as the online one.

    Stock the store ahead of the online phase with
    :meth:`~ProtocolBackend.prepare_offline` (sized by
    :meth:`query_requirements`); unstocked queries still work, dealing
    inline and counting ``triples.misses``. Example::

        backend = SharesBackend()
        ctx = make_context(config=SessionConfig(protocol_backend="shares"),
                           protocol_backend=backend)
        need = backend.query_requirements(
            nonzero_total=12, n_classes=2, bits=32)
        backend.prepare_offline(ctx, 32, triples=need["triples"],
                                comparisons=need["comparisons"])
        label = secure_model.classify(ctx, row)   # online: ring ops only
    """

    name = "shares"

    def __init__(self, rng: Optional[DeterministicRandom] = None) -> None:
        self._rng = rng
        self._stores: Dict[int, TripleStore] = {}
        self._stores_lock = threading.Lock()
        self._offline_trace = ExecutionTrace(label="shares|offline")
        self._offline_lock = threading.Lock()
        self._codec = wire.WireCodec()

    # -- store management --

    def store_for(
        self, ctx: TwoPartyContext, magnitude_bits: int
    ) -> TripleStore:
        """The (shared, lazily created) triple store backing queries at
        this magnitude under the context's statistical security."""
        modulus_bits = modulus_bits_for(
            magnitude_bits, ctx.statistical_security_bits
        )
        with self._stores_lock:
            store = self._stores.get(modulus_bits)
            if store is None:
                source = self._rng if self._rng is not None else ctx.server_rng
                dealer = TrustedDealer(
                    rng=source.fork(), modulus=1 << modulus_bits
                )
                store = TripleStore(
                    dealer,
                    kappa=ctx.statistical_security_bits,
                    distribute=self._distribute,
                )
                self._stores[modulus_bits] = store
            return store

    def _distribute(self, kind: str, bundles: list) -> list:
        """Push a dealt party-1 batch through the wire codec, charging
        the offline trace with the measured bytes (each party's bundle
        has the same fixed-width size, so both directions are charged;
        the two deliveries are independent, hence one round)."""
        if kind == "masks":
            payload = [
                (m.bit_length, m.r, m.r_high, list(m.r_low_bits))
                for m in bundles
            ]
        else:
            payload = list(bundles)
        encoded = wire.encode(payload)
        delivered = self._codec.decode(encoded)
        with self._offline_lock:
            size = FRAME_OVERHEAD + len(encoded)
            self._offline_trace.bytes_client_to_server += size
            self._offline_trace.bytes_server_to_client += size
            self._offline_trace.messages += 2
            self._offline_trace.rounds += 1
        if kind == "masks":
            return [
                ComparisonMask(
                    bit_length=bits,
                    r=r,
                    r_high=r_high,
                    r_low_bits=tuple(low_bits),
                )
                for bits, r, r_high, low_bits in delivered
            ]
        return list(delivered)

    # -- offline phase --

    def prepare_offline(
        self,
        ctx: TwoPartyContext,
        magnitude_bits: int,
        *,
        triples: int = 0,
        comparisons: int = 0,
    ) -> None:
        store = self.store_for(ctx, magnitude_bits)
        if triples or comparisons:
            store.refill(
                triples=triples, masks=comparisons, mask_bits=magnitude_bits
            )

    def offline_trace(self) -> ExecutionTrace:
        return self._offline_trace

    @staticmethod
    def query_requirements(
        nonzero_total: int, n_classes: int, bits: int
    ) -> Dict[str, int]:
        """Exact offline material one query consumes: ``triples`` and
        ``comparisons`` (masks), for provisioning and benchmarks.

        ``n_classes`` of 0 or 1 means a regression/score-reveal query
        (no comparison); triple consumption is data-independent, so
        these counts are exact, not bounds.
        """
        per_compare = max(bits - 2, 0) + bits
        if n_classes == 2:
            comparisons = 1
            multiplex = 0
        elif n_classes > 2:
            comparisons = n_classes - 1
            multiplex = 2 * (n_classes - 1)
        else:
            comparisons = 0
            multiplex = 0
        return {
            "triples": nonzero_total + comparisons * per_compare + multiplex,
            "comparisons": comparisons,
        }

    # -- live online phase --

    def begin_query(
        self, ctx: TwoPartyContext, magnitude_bits: int
    ) -> QueryState:
        session = ShareSession(ctx, self.store_for(ctx, magnitude_bits))
        return QueryState(
            ctx=ctx, magnitude_bits=magnitude_bits, session=session
        )

    @staticmethod
    def _session(state: QueryState) -> ShareSession:
        if state.session is None:
            raise BackendError(
                "query state was not opened by the shares backend"
            )
        return state.session

    def encrypt_features(
        self, state: QueryState, values: Sequence[int]
    ) -> List[Any]:
        return _dotproduct.share_feature_vector(self._session(state), values)

    def dot_products(
        self,
        state: QueryState,
        vector: Sequence[Any],
        weight_rows: Sequence[Sequence[int]],
        offsets: Sequence[int],
    ) -> List[Any]:
        return _dotproduct.shared_dot_products(
            self._session(state), vector, weight_rows, offsets
        )

    def sign_test_client_learns(
        self, state: QueryState, scores: Sequence[Any]
    ) -> int:
        return _comparison.share_sign_test_client_learns(
            self._session(state),
            scores[1] - scores[0],
            state.magnitude_bits,
        )

    def argmax_client_learns(
        self, state: QueryState, scores: Sequence[Any]
    ) -> int:
        return _argmax.share_secure_argmax(
            self._session(state), scores, state.magnitude_bits
        )

    def reveal_score_to_client(self, state: QueryState, score: Any) -> int:
        return _shares.share_reveal_to_client(
            self._session(state), score, signed=True
        )

    # -- analytic hooks --

    def _modulus_bits(self, magnitude_bits: int, sizes: ProtocolSizes) -> int:
        return modulus_bits_for(
            magnitude_bits, sizes.statistical_security_bits
        )

    def trace_encrypt_vector(self, trace, length, sizes, magnitude_bits):
        add_share_vector(
            trace,
            length,
            self._modulus_bits(magnitude_bits, sizes),
            client_to_server=True,
        )

    def trace_dot_products(self, trace, nonzero_per_row, sizes, magnitude_bits):
        add_share_dot_products(
            trace,
            sum(nonzero_per_row),
            self._modulus_bits(magnitude_bits, sizes),
        )

    def trace_sign_test(self, trace, bits, sizes):
        add_share_sign_test(trace, bits, self._modulus_bits(bits, sizes))

    def trace_argmax(self, trace, candidates, bits, sizes):
        add_share_argmax(
            trace, candidates, bits, self._modulus_bits(bits, sizes)
        )

    def trace_reveal_score(self, trace, sizes, magnitude_bits):
        add_share_reveal(trace, self._modulus_bits(magnitude_bits, sizes))


#: Registry of protocol backends by CLI / config name. Mirrored by the
#: ``PROTOCOL_BACKENDS`` literal in :mod:`repro.core.session` (kept in
#: sync by a unit test) so the config layer needs no crypto imports.
PROTOCOL_BACKENDS: Dict[str, type] = {
    PaillierBackend.name: PaillierBackend,
    SharesBackend.name: SharesBackend,
}


def make_protocol_backend(
    name: str, rng: Optional[DeterministicRandom] = None
) -> ProtocolBackend:
    """Instantiate a registered backend by name.

    Example::

        backend = make_protocol_backend("paillier")
        assert backend.name == "paillier"
    """
    try:
        backend_cls = PROTOCOL_BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown protocol backend {name!r}; "
            f"known: {', '.join(sorted(PROTOCOL_BACKENDS))}"
        ) from None
    return backend_cls(rng=rng)
