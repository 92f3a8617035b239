"""Boolean circuits and a Yao garbled-circuit cost model.

The paper compares against "pure SMC solutions"; besides the
specialized Paillier/DGK protocols (:mod:`repro.secure`), the standard
generic alternative is Yao's garbled circuits. This package provides:

* :mod:`repro.circuits.builder` -- a boolean circuit representation
  with free-XOR accounting and a plaintext evaluator for functional
  verification;
* :mod:`repro.circuits.arithmetic` -- adders, subtractors, comparators,
  multiplexers and an argmax built from gates;
* :mod:`repro.circuits.classifiers` -- circuit compilers for the three
  classifier families (with optional disclosure folding: disclosed
  features become constants, shrinking the circuit exactly as
  disclosure shrinks the specialized protocols);
* :mod:`repro.circuits.garbled` -- a cost model for garbling,
  transferring and evaluating the circuit (free-XOR + half-gates, OT
  per client input bit) under the same hardware/network profiles as
  the rest of the library.

Experiment E11 uses this to place the disclosure-optimized protocol
against *both* pure-SMC baselines.
"""

from repro.circuits.builder import Circuit, CircuitError
from repro.circuits.garbled import GarbledCostModel, YAO_2015

__all__ = ["Circuit", "CircuitError", "GarbledCostModel", "YAO_2015"]
