"""An executable Yao garbled-circuit runtime.

Beyond the analytic cost model (:mod:`repro.circuits.garbled`), this
module actually *runs* circuits garbled: the garbler (server) assigns
128-bit wire labels with the free-XOR global offset, builds
point-and-permute garbled tables for AND gates, and the evaluator
(client) walks the circuit holding exactly one label per wire -- never
learning, for any wire, which bit its label encodes until the output
decode table is applied.

Construction summary (semi-honest, classical):

* global offset ``R`` with LSB 1; ``label1 = label0 XOR R`` on every
  wire (free-XOR invariant);
* XOR gates: ``out0 = a0 XOR b0``, no table, no crypto;
* NOT gates: ``out0 = a0 XOR R`` -- a relabeling, free;
* AND gates: four-row table indexed by the operand labels' select bits
  (their LSBs), each row ``H(La, Lb, gate) XOR out_label``;
* client input labels are delivered through 1-out-of-2 oblivious
  transfer (:mod:`repro.crypto.ot`), so the garbler never learns the
  client's bits; server inputs ship as bare active labels;
* outputs decode through the permute bits of the output wires.

The test suite checks the evaluator against the plaintext circuit
evaluator on every gadget and on full compiled classifiers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuits.builder import Circuit, CircuitError, Gate, GateKind, Owner
from repro.crypto.ot import one_of_two_transfer
from repro.crypto.rand import DeterministicRandom, fresh_rng

LABEL_BITS = 128
_LABEL_BYTES = LABEL_BITS // 8


class YaoRuntimeError(Exception):
    """Raised on malformed garbling or evaluation inputs."""


def _hash_labels(label_a: int, label_b: int, gate_index: int) -> int:
    """The garbling PRF: SHA-256 over both labels and the gate id."""
    digest = hashlib.sha256(
        label_a.to_bytes(_LABEL_BYTES, "big")
        + label_b.to_bytes(_LABEL_BYTES, "big")
        + gate_index.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest[:_LABEL_BYTES], "big")


@dataclass
class GarbledCircuit:
    """Everything the evaluator needs (plus the garbler's secrets kept
    separately in :class:`Garbler`)."""

    circuit: Circuit
    and_tables: Dict[int, List[int]]          # gate position -> 4 rows
    constant_labels: Tuple[int, int]          # active labels of consts 0/1
    output_permute_bits: List[int]            # decode info per output wire

    @property
    def table_bytes(self) -> int:
        """Wire size of the garbled tables (4 rows of 16 bytes each)."""
        return sum(4 * _LABEL_BYTES for _ in self.and_tables)


class Garbler:
    """Server side: assigns labels and builds the garbled tables.

    Parameters
    ----------
    circuit:
        The circuit to garble (shared public structure).
    rng:
        Label randomness (deterministic for reproducible transcripts).
    """

    def __init__(
        self, circuit: Circuit, rng: Optional[DeterministicRandom] = None
    ) -> None:
        self.circuit = circuit
        self._rng = rng or fresh_rng(0xFACE)
        # Free-XOR offset; LSB forced to 1 so select bits differ across
        # a wire's two labels.
        self.offset = self._rng.getrandbits(LABEL_BITS) | 1
        self._zero_labels: Dict[int, int] = {}
        self._garbled: Optional[GarbledCircuit] = None

    def _fresh_label(self) -> int:
        return self._rng.getrandbits(LABEL_BITS)

    def _zero_label(self, wire: int) -> int:
        if wire not in self._zero_labels:
            self._zero_labels[wire] = self._fresh_label()
        return self._zero_labels[wire]

    def label_for(self, wire: int, bit: int) -> int:
        """The label encoding ``bit`` on ``wire`` (garbler-private)."""
        if bit not in (0, 1):
            raise YaoRuntimeError(f"bit must be 0/1, got {bit!r}")
        return self._zero_label(wire) ^ (self.offset if bit else 0)

    def garble(self) -> GarbledCircuit:
        """Build (and cache) the garbled tables."""
        if self._garbled is not None:
            return self._garbled
        circuit = self.circuit
        # Pre-assign labels for constants and inputs.
        for wire in (Circuit.CONST_ZERO, Circuit.CONST_ONE):
            self._zero_label(wire)
        for owner in (Owner.CLIENT, Owner.SERVER):
            for wire in circuit.input_wires(owner):
                self._zero_label(wire)

        and_tables: Dict[int, List[int]] = {}
        for position, gate in enumerate(circuit._gates):
            if gate.kind is GateKind.XOR:
                a, b = gate.inputs
                self._zero_labels[gate.output] = (
                    self._zero_label(a) ^ self._zero_label(b)
                )
            elif gate.kind is GateKind.NOT:
                (a,) = gate.inputs
                self._zero_labels[gate.output] = (
                    self._zero_label(a) ^ self.offset
                )
            else:  # AND
                and_tables[position] = self._garble_and(position, gate)

        self._garbled = GarbledCircuit(
            circuit=circuit,
            and_tables=and_tables,
            constant_labels=(
                self.label_for(Circuit.CONST_ZERO, 0),
                self.label_for(Circuit.CONST_ONE, 1),
            ),
            output_permute_bits=[
                self._zero_label(w) & 1 for w in circuit.outputs
            ],
        )
        return self._garbled

    def _garble_and(self, position: int, gate: Gate) -> List[int]:
        a, b = gate.inputs
        out_zero = self._fresh_label()
        self._zero_labels[gate.output] = out_zero
        table = [0, 0, 0, 0]
        for bit_a in (0, 1):
            for bit_b in (0, 1):
                label_a = self.label_for(a, bit_a)
                label_b = self.label_for(b, bit_b)
                row = ((label_a & 1) << 1) | (label_b & 1)
                out_label = self.label_for(gate.output, bit_a & bit_b)
                table[row] = _hash_labels(label_a, label_b, position) ^ out_label
        return table

    def server_input_labels(self, assignment: Dict[int, int]) -> Dict[int, int]:
        """Active labels for the server's own input bits."""
        labels = {}
        for wire in self.circuit.input_wires(Owner.SERVER):
            if wire not in assignment:
                raise YaoRuntimeError(f"missing server input for wire {wire}")
            labels[wire] = self.label_for(wire, assignment[wire])
        return labels


class Evaluator:
    """Client side: walks the garbled circuit with active labels only."""

    def __init__(self, garbled: GarbledCircuit) -> None:
        self.garbled = garbled

    def evaluate(self, input_labels: Dict[int, int]) -> List[int]:
        """Evaluate with active labels for *every* input wire; returns
        the decoded output bits."""
        circuit = self.garbled.circuit
        active: Dict[int, int] = {
            Circuit.CONST_ZERO: self.garbled.constant_labels[0],
            Circuit.CONST_ONE: self.garbled.constant_labels[1],
        }
        for owner in (Owner.CLIENT, Owner.SERVER):
            for wire in circuit.input_wires(owner):
                if wire not in input_labels:
                    raise YaoRuntimeError(
                        f"missing active label for input wire {wire}"
                    )
                active[wire] = input_labels[wire]

        for position, gate in enumerate(circuit._gates):
            if gate.kind is GateKind.XOR:
                a, b = gate.inputs
                active[gate.output] = active[a] ^ active[b]
            elif gate.kind is GateKind.NOT:
                (a,) = gate.inputs
                active[gate.output] = active[a]  # relabeled by the garbler
            else:
                a, b = gate.inputs
                label_a, label_b = active[a], active[b]
                row = ((label_a & 1) << 1) | (label_b & 1)
                table = self.garbled.and_tables[position]
                active[gate.output] = table[row] ^ _hash_labels(
                    label_a, label_b, position
                )

        return [
            (active[w] & 1) ^ permute
            for w, permute in zip(
                circuit.outputs, self.garbled.output_permute_bits
            )
        ]

    def evaluate_int(self, input_labels: Dict[int, int]) -> int:
        """Evaluate and pack the outputs LSB-first."""
        bits = self.evaluate(input_labels)
        return sum(bit << i for i, bit in enumerate(bits))


def run_garbled(
    circuit: Circuit,
    client_assignment: Dict[int, int],
    server_assignment: Dict[int, int],
    rng: Optional[DeterministicRandom] = None,
    use_real_ot: bool = False,
    ot_key_bits: int = 256,
) -> int:
    """End-to-end garbled execution; returns the output as an integer.

    Parameters
    ----------
    circuit:
        The public circuit.
    client_assignment / server_assignment:
        Each party's input bits (wire -> bit).
    use_real_ot:
        When ``True``, client input labels are fetched through the RSA
        1-out-of-2 OT (slow but fully faithful); otherwise the transfer
        is simulated by direct selection (the label algebra -- what the
        tests verify -- is identical either way).
    """
    rng = rng or fresh_rng(0xBEEF)
    garbler = Garbler(circuit, rng=rng)
    garbled = garbler.garble()

    input_labels = dict(garbler.server_input_labels(server_assignment))
    for wire in circuit.input_wires(Owner.CLIENT):
        if wire not in client_assignment:
            raise YaoRuntimeError(f"missing client input for wire {wire}")
        bit = client_assignment[wire]
        if use_real_ot:
            label0 = garbler.label_for(wire, 0).to_bytes(_LABEL_BYTES, "big")
            label1 = garbler.label_for(wire, 1).to_bytes(_LABEL_BYTES, "big")
            chosen = one_of_two_transfer(
                label0, label1, bit, rng=rng, key_bits=ot_key_bits
            )
            input_labels[wire] = int.from_bytes(chosen, "big")
        else:
            input_labels[wire] = garbler.label_for(wire, bit)

    return Evaluator(garbled).evaluate_int(input_labels)
