"""Shared state for a two-party secure computation session.

A :class:`TwoPartyContext` bundles everything a protocol invocation
needs: the accounted channel, the client's key material (the *client* is
the data owner and holds all private keys, exactly as in Bost et al.),
independent randomness streams for each party, and the statistical
security parameter used for additive blinding.

Protocols take a context instead of loose arguments so that composed
executions (dot product, then comparison, then argmax) accumulate into a
single :class:`~repro.smc.protocol.ExecutionTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import repro.telemetry as telemetry
from repro.core.session import DEFAULT_STATISTICAL_SECURITY_BITS, SessionConfig
from repro.crypto.dgk import DgkKeyPair
from repro.crypto.engine import CryptoEngine
from repro.crypto.paillier import PaillierCiphertext, PaillierKeyPair
from repro.crypto.rand import DeterministicRandom, fresh_rng, secure_rng
from repro.smc.network import Channel
from repro.smc.protocol import ExecutionTrace, Op

if TYPE_CHECKING:  # repro.secure imports this module at import time
    from repro.secure.backends import ProtocolBackend

@dataclass
class TwoPartyContext:
    """Keys, randomness and accounting for one client/server session.

    Attributes
    ----------
    channel:
        The accounted message channel; its trace is the session trace.
    paillier:
        The client's Paillier key pair. The server only ever uses
        ``paillier.public_key``.
    dgk:
        The client's DGK key pair for the bitwise comparison subprotocol.
    client_rng / server_rng:
        Independent randomness streams so one party's draws cannot
        perturb the other's (important for reproducible transcripts).
    protocol_backend:
        The :class:`repro.secure.backends.ProtocolBackend` live queries
        run on (selected by ``SessionConfig.protocol_backend``).
    statistical_security_bits:
        Width of additive blinding noise (``kappa``); blinded values are
        statistically indistinguishable from uniform up to ``2^-kappa``.
    engine:
        The batch crypto engine executing bulk Paillier work; a server
        shares one engine across all of its request contexts.

    Example::

        ctx = make_context(config=SessionConfig(seed=7))
        label = deployed.classify(ctx, row)
        print(ctx.trace.total_bytes, ctx.trace.rounds)
    """

    channel: Channel
    paillier: PaillierKeyPair
    dgk: DgkKeyPair
    client_rng: DeterministicRandom
    server_rng: DeterministicRandom
    protocol_backend: "ProtocolBackend"
    statistical_security_bits: int = DEFAULT_STATISTICAL_SECURITY_BITS
    engine: CryptoEngine = field(default_factory=CryptoEngine)

    @property
    def trace(self) -> ExecutionTrace:
        """The session's execution trace (owned by the channel)."""
        return self.channel.trace

    # -- counted cryptographic helpers ---------------------------------

    def client_encrypt(self, value: int) -> PaillierCiphertext:
        """Client-side Paillier encryption, counted in the trace."""
        return self.client_encrypt_batch([value])[0]

    def server_encrypt(self, value: int) -> PaillierCiphertext:
        """Server-side Paillier encryption under the client's key."""
        self.trace.count(Op.PAILLIER_ENCRYPT)
        return self.paillier.public_key.encrypt(value, rng=self.server_rng)

    def client_decrypt(self, ciphertext: PaillierCiphertext) -> int:
        """Client-side Paillier decryption, counted in the trace."""
        self.trace.count(Op.PAILLIER_DECRYPT)
        return self.paillier.private_key.decrypt(ciphertext)

    def add(self, a: PaillierCiphertext, b) -> PaillierCiphertext:
        """Homomorphic addition (ciphertext or plaintext), counted."""
        self.trace.count(Op.PAILLIER_ADD)
        return a + b

    def rerandomize(self, a: PaillierCiphertext) -> PaillierCiphertext:
        """Server-side ciphertext re-randomisation, counted."""
        self.trace.count(Op.PAILLIER_RERANDOMIZE)
        return a.rerandomize(rng=self.server_rng)

    def client_rerandomize(self, a: PaillierCiphertext) -> PaillierCiphertext:
        """Client-side re-randomisation, counted: ``a`` times a fresh
        encryption of zero, whose nonce power the key owner computes by
        CRT -- bit-identical to :meth:`PaillierCiphertext.rerandomize`."""
        self.trace.count(Op.PAILLIER_RERANDOMIZE)
        return a + self.engine.encrypt_batch(
            self.paillier.public_key, [0], rng=self.client_rng,
            private_key=self.paillier.private_key,
        )[0]

    def blinding_noise(self, payload_bits: int, rng=None) -> int:
        """Draw additive blinding noise covering ``payload_bits`` plus
        the statistical security margin."""
        rng = rng or self.server_rng
        return rng.getrandbits(payload_bits + self.statistical_security_bits)

    # -- counted batch paths (dispatched to the engine) -----------------

    def client_encrypt_batch(
        self, values: Sequence[int]
    ) -> List[PaillierCiphertext]:
        """Client-side batch encryption; one counted op per value.

        Nonces come from ``client_rng`` in input order, so the batch is
        transcript-identical to a loop of
        :meth:`PaillierPublicKey.encrypt`. The client owns the key, so
        the blinding factors are computed by CRT from its factors.
        """
        self.trace.count(Op.PAILLIER_ENCRYPT, len(values))
        return self.engine.encrypt_batch(
            self.paillier.public_key, values, rng=self.client_rng,
            private_key=self.paillier.private_key,
        )

    def server_encrypt_batch(
        self, values: Sequence[int]
    ) -> List[PaillierCiphertext]:
        """Server-side batch encryption under the client's key."""
        self.trace.count(Op.PAILLIER_ENCRYPT, len(values))
        return self.engine.encrypt_batch(
            self.paillier.public_key, values, rng=self.server_rng
        )

    def client_decrypt_batch(
        self, ciphertexts: Sequence[PaillierCiphertext], signed: bool = True
    ) -> List[int]:
        """Client-side batch decryption (CRT fast path when available)."""
        self.trace.count(Op.PAILLIER_DECRYPT, len(ciphertexts))
        return self.engine.decrypt_batch(
            self.paillier.private_key, ciphertexts, signed=signed
        )

    def rerandomize_batch(
        self, ciphertexts: Sequence[PaillierCiphertext]
    ) -> List[PaillierCiphertext]:
        """Server-side batch re-randomisation, counted per element."""
        self.trace.count(Op.PAILLIER_RERANDOMIZE, len(ciphertexts))
        return self.engine.rerandomize_batch(ciphertexts, rng=self.server_rng)

    def blind_batch(
        self,
        ciphertexts: Sequence[PaillierCiphertext],
        scalars: Sequence[int],
        offsets: Sequence[Optional[int]],
    ) -> List[PaillierCiphertext]:
        """Server-side :meth:`CryptoEngine.blind_batch`, counted as the
        scalar multiplications, offset adds and refreshes it fuses."""
        adds = sum(offset is not None for offset in offsets)
        self.trace.count(Op.PAILLIER_SCALAR_MUL, len(ciphertexts))
        if adds:
            self.trace.count(Op.PAILLIER_ADD, adds)
        self.trace.count(Op.PAILLIER_RERANDOMIZE, len(ciphertexts))
        return self.engine.blind_batch(
            ciphertexts, scalars, offsets, rng=self.server_rng
        )


def make_context(
    seed: Optional[int] = None,
    *,
    config: Optional[SessionConfig] = None,
    channel: Optional[Channel] = None,
    engine: Optional[CryptoEngine] = None,
    protocol_backend: Optional["ProtocolBackend"] = None,
) -> TwoPartyContext:
    """Build a ready-to-use session context with freshly generated keys.

    ``config`` (a :class:`repro.core.session.SessionConfig`, default
    ``SessionConfig()``) sets key sizes, randomness mode and protocol
    backend; ``seed`` overrides its seed. A prebuilt
    ``engine`` or ``protocol_backend`` replaces the one the config
    would build -- passing them lets many per-request contexts share
    one engine and one offline triple store.

    Under ``rng_mode="deterministic"`` the single seed derives the key
    material and both parties' randomness streams, so a whole protocol
    transcript is reproducible from one integer; ``rng_mode="system"``
    draws everything from OS entropy instead.

    Example::

        ctx = make_context(config=SessionConfig(
            seed=7, paillier_bits=384, dgk_bits=192,
        ))
    """
    cfg = config if config is not None else SessionConfig()
    if seed is not None:
        cfg = cfg.with_overrides(seed=seed)
    if cfg.rng_mode == "system":
        master = secure_rng()
    else:
        master = fresh_rng(cfg.seed)
    with telemetry.span(
        "session.keygen",
        paillier_bits=cfg.paillier_bits,
        dgk_bits=cfg.dgk_bits,
    ):
        paillier = PaillierKeyPair.generate(
            key_bits=cfg.paillier_bits, rng=master
        )
        dgk = DgkKeyPair.generate(
            key_bits=cfg.dgk_bits,
            plaintext_bits=cfg.dgk_plaintext_bits,
            rng=master,
        )
    # Imported here: repro.secure imports this module at import time.
    from repro.secure.backends import make_protocol_backend

    return TwoPartyContext(
        channel=channel or Channel(),
        paillier=paillier,
        dgk=dgk,
        client_rng=master.fork(),
        server_rng=master.fork(),
        statistical_security_bits=cfg.statistical_security_bits,
        engine=engine or CryptoEngine(),
        protocol_backend=(
            protocol_backend
            if protocol_backend is not None
            else make_protocol_backend(cfg.protocol_backend)
        ),
    )
