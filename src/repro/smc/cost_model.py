"""Analytic cost model: execution traces -> estimated seconds.

The pure-Python protocols run with small research keys; the paper's
evaluation used native implementations with production keys over real
networks. The cost model bridges the gap: an
:class:`~repro.smc.protocol.ExecutionTrace` records *what* a protocol
did (operation counts, bytes, rounds), and a :class:`CostModel` prices
that trace under

* a :class:`HardwareProfile` -- seconds per cryptographic operation,
  either measured live on this machine (:func:`calibrate_hardware_profile`)
  or one of the documented native-implementation estimates, and
* a :class:`~repro.smc.network.NetworkModel` -- latency and bandwidth.

Because the *relative* cost structure (ops proportional to hidden
features, rounds proportional to comparisons) is preserved exactly by
the simulator, pricing the same trace under different profiles recovers
the paper's performance curves at any scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.crypto.dgk import DgkKeyPair
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.rand import DeterministicRandom, fresh_rng
from repro.smc.network import NetworkModel, NetworkProfile
from repro.smc.protocol import ExecutionTrace, Op


@dataclass(frozen=True)
class HardwareProfile:
    """Seconds per cryptographic operation for one implementation/key
    size combination.

    Attributes
    ----------
    name:
        Identifier used in benchmark output.
    op_seconds:
        Mapping from :class:`Op` to seconds per invocation. Missing ops
        are priced at zero (appropriate for negligible bookkeeping ops).
    ciphertext_bytes:
        Nominal Paillier ciphertext wire size, used to rescale traffic
        recorded under a different key size.
    """

    name: str
    op_seconds: Mapping[Op, float]
    ciphertext_bytes: int = 512

    def compute_seconds(self, trace: ExecutionTrace) -> float:
        """Total compute time implied by the trace's operation counts."""
        return sum(
            count * self.op_seconds.get(op, 0.0)
            for op, count in trace.ops.items()
        )


# Literature-derived estimates for a native (GMP-backed C++)
# implementation on 2015-era server hardware, the setting of the
# original evaluation. Sources: Bost et al. (NDSS'15) microbenchmarks
# and standard GMP modexp throughput; values are order-of-magnitude
# calibrations, not measurements.
NATIVE_1024 = HardwareProfile(
    name="native-paillier1024",
    op_seconds={
        Op.PAILLIER_ENCRYPT: 1.6e-3,
        Op.PAILLIER_DECRYPT: 1.2e-3,
        Op.PAILLIER_ADD: 4.0e-6,
        Op.PAILLIER_SCALAR_MUL: 2.5e-4,
        Op.PAILLIER_RERANDOMIZE: 1.6e-3,
        Op.DGK_ENCRYPT: 2.0e-4,
        Op.DGK_ZERO_TEST: 1.5e-4,
        Op.DGK_ADD: 1.5e-6,
        Op.DGK_SCALAR_MUL: 4.0e-5,
        Op.OT_TRANSFER_1OF2: 3.0e-3,
        Op.SHARE_MUL_TRIPLE: 2.0e-6,
        Op.SYMMETRIC_OP: 1.0e-7,
    },
    ciphertext_bytes=256,
)


@dataclass(frozen=True)
class CostBreakdown:
    """Priced trace: compute + network = total seconds."""

    compute_seconds: float
    network_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end estimated latency for the traced execution."""
        return self.compute_seconds + self.network_seconds


@dataclass(frozen=True)
class CostModel:
    """Prices execution traces under a hardware + network profile."""

    hardware: HardwareProfile
    network: NetworkModel = NetworkProfile.LAN
    traffic_scale: float = 1.0

    def price(self, trace: ExecutionTrace) -> CostBreakdown:
        """Return the cost breakdown for ``trace``.

        ``traffic_scale`` rescales recorded bytes when the trace was
        produced with a different key size than the profile models
        (e.g. 512-bit research keys vs 2048-bit production keys).
        """
        compute = self.hardware.compute_seconds(trace)
        scaled_bytes = int(trace.total_bytes * self.traffic_scale)
        network = self.network.transfer_seconds(scaled_bytes, trace.rounds)
        return CostBreakdown(compute_seconds=compute, network_seconds=network)

    def total_seconds(self, trace: ExecutionTrace) -> float:
        """Shorthand for ``price(trace).total_seconds``."""
        return self.price(trace).total_seconds


def calibrate_hardware_profile(
    paillier_bits: int = 512,
    dgk_bits: int = 256,
    dgk_plaintext_bits: int = 16,
    iterations: int = 20,
    rng: Optional[DeterministicRandom] = None,
) -> HardwareProfile:
    """Measure per-op timings of *this* machine's pure-Python crypto.

    Runs short microbenchmarks of every priced operation and returns a
    profile, so live benchmark numbers and modeled numbers come from the
    same yardstick.
    """
    rng = rng or fresh_rng(0xCA11B)
    paillier = PaillierKeyPair.generate(key_bits=paillier_bits, rng=rng)
    dgk = DgkKeyPair.generate(
        key_bits=dgk_bits, plaintext_bits=dgk_plaintext_bits, rng=rng
    )

    def timeit(fn) -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        return (time.perf_counter() - start) / iterations

    sample_cipher = paillier.public_key.encrypt(123, rng=rng)
    other_cipher = paillier.public_key.encrypt(456, rng=rng)
    dgk_cipher = dgk.public_key.encrypt(5, rng=rng)
    dgk_other = dgk.public_key.encrypt(7, rng=rng)

    op_seconds: Dict[Op, float] = {
        Op.PAILLIER_ENCRYPT: timeit(
            lambda: paillier.public_key.encrypt(123, rng=rng)
        ),
        Op.PAILLIER_DECRYPT: timeit(
            lambda: paillier.private_key.decrypt(sample_cipher)
        ),
        Op.PAILLIER_ADD: timeit(lambda: sample_cipher + other_cipher),
        Op.PAILLIER_SCALAR_MUL: timeit(lambda: sample_cipher * 31337),
        Op.PAILLIER_RERANDOMIZE: timeit(lambda: sample_cipher.rerandomize(rng=rng)),
        Op.DGK_ENCRYPT: timeit(lambda: dgk.public_key.encrypt(5, rng=rng)),
        Op.DGK_ZERO_TEST: timeit(lambda: dgk.private_key.is_zero(dgk_cipher)),
        Op.DGK_ADD: timeit(lambda: dgk_cipher + dgk_other),
        Op.DGK_SCALAR_MUL: timeit(lambda: dgk_cipher * 3),
        Op.OT_TRANSFER_1OF2: 2.0e-3,  # dominated by RSA keygen; nominal
        Op.SHARE_MUL_TRIPLE: 2.0e-6,
        Op.SYMMETRIC_OP: 1.0e-7,
    }
    return HardwareProfile(
        name=f"calibrated-python-{paillier_bits}",
        op_seconds=op_seconds,
        ciphertext_bytes=paillier_bits // 4,
    )
