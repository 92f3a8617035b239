"""Boolean circuit representation with free-XOR accounting.

A :class:`Circuit` is a DAG of gates over wires (integer ids). The cost
model only charges AND gates (XOR and NOT are free under the free-XOR
garbling technique), so the builder tracks AND and XOR counts
separately. Wires belong to the *client*, the *server*, or are
*derived*; client input bits are what oblivious transfers are paid for.

The plaintext :meth:`Circuit.evaluate` executes the circuit on concrete
bits -- the test suite uses it to verify every gadget and every
compiled classifier circuit against its plaintext reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class CircuitError(Exception):
    """Raised on malformed circuit construction or evaluation."""


class GateKind(enum.Enum):
    """Gate types; only AND costs anything under free-XOR garbling."""

    AND = "and"
    XOR = "xor"
    NOT = "not"


class Owner(enum.Enum):
    """Who supplies an input wire's bit."""

    CLIENT = "client"
    SERVER = "server"


@dataclass(frozen=True)
class Gate:
    """One gate: output wire, kind, input wires."""

    kind: GateKind
    output: int
    inputs: Tuple[int, ...]


class Circuit:
    """A mutable boolean circuit builder.

    Wire 0 is the constant 0 and wire 1 the constant 1; all other wires
    are created through :meth:`input_bit` / gate methods.
    """

    CONST_ZERO = 0
    CONST_ONE = 1

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._next_wire = 2
        self._gates: List[Gate] = []
        self._inputs: Dict[int, Owner] = {}
        self._outputs: List[int] = []

    # -- construction ------------------------------------------------------

    def input_bit(self, owner: Owner) -> int:
        """Allocate one input wire supplied by ``owner``."""
        wire = self._allocate()
        self._inputs[wire] = owner
        return wire

    def input_bits(self, owner: Owner, count: int) -> List[int]:
        """Allocate ``count`` input wires (LSB-first by convention)."""
        if count < 0:
            raise CircuitError(f"negative input width {count}")
        return [self.input_bit(owner) for _ in range(count)]

    def constant_bits(self, value: int, width: int) -> List[int]:
        """Wires for a public constant, LSB-first."""
        if value < 0 or value >= (1 << width):
            raise CircuitError(f"constant {value} does not fit in {width} bits")
        return [
            self.CONST_ONE if (value >> i) & 1 else self.CONST_ZERO
            for i in range(width)
        ]

    def gate_and(self, a: int, b: int) -> int:
        """AND gate (the only priced gate)."""
        self._check_wires(a, b)
        # Constant folding keeps compiled circuits honest about cost.
        if a == self.CONST_ZERO or b == self.CONST_ZERO:
            return self.CONST_ZERO
        if a == self.CONST_ONE:
            return b
        if b == self.CONST_ONE:
            return a
        if a == b:
            return a
        wire = self._allocate()
        self._gates.append(Gate(GateKind.AND, wire, (a, b)))
        return wire

    def gate_xor(self, a: int, b: int) -> int:
        """XOR gate (free under free-XOR garbling)."""
        self._check_wires(a, b)
        if a == self.CONST_ZERO:
            return b
        if b == self.CONST_ZERO:
            return a
        if a == b:
            return self.CONST_ZERO
        if a == self.CONST_ONE:
            return self.gate_not(b)
        if b == self.CONST_ONE:
            return self.gate_not(a)
        wire = self._allocate()
        self._gates.append(Gate(GateKind.XOR, wire, (a, b)))
        return wire

    def gate_not(self, a: int) -> int:
        """NOT gate (free: XOR with the garbler's constant)."""
        self._check_wires(a)
        if a == self.CONST_ZERO:
            return self.CONST_ONE
        if a == self.CONST_ONE:
            return self.CONST_ZERO
        wire = self._allocate()
        self._gates.append(Gate(GateKind.NOT, wire, (a,)))
        return wire

    def gate_or(self, a: int, b: int) -> int:
        """OR via De Morgan: one AND."""
        return self.gate_not(self.gate_and(self.gate_not(a), self.gate_not(b)))

    def mark_output(self, wire: int) -> None:
        """Declare a circuit output wire."""
        self._check_wires(wire)
        self._outputs.append(wire)

    def mark_outputs(self, wires: Sequence[int]) -> None:
        """Declare several output wires (LSB-first values)."""
        for wire in wires:
            self.mark_output(wire)

    # -- statistics ---------------------------------------------------------

    @property
    def and_count(self) -> int:
        """Number of AND gates (what garbling pays for)."""
        return sum(1 for g in self._gates if g.kind is GateKind.AND)

    def input_count(self, owner: Owner) -> int:
        """Number of input bits supplied by ``owner``."""
        return sum(1 for o in self._inputs.values() if o is owner)

    @property
    def outputs(self) -> List[int]:
        """Declared output wires."""
        return list(self._outputs)

    def input_wires(self, owner: Owner) -> List[int]:
        """Input wires of one owner, in allocation order."""
        return [w for w, o in self._inputs.items() if o is owner]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, assignment: Dict[int, int]) -> List[int]:
        """Execute the circuit on concrete input bits.

        Parameters
        ----------
        assignment:
            ``{input wire: bit}`` covering every input wire.

        Returns the output bits in :attr:`outputs` order.
        """
        values: Dict[int, int] = {self.CONST_ZERO: 0, self.CONST_ONE: 1}
        for wire, owner in self._inputs.items():
            if wire not in assignment:
                raise CircuitError(
                    f"missing assignment for {owner.value} input wire {wire}"
                )
            bit = assignment[wire]
            if bit not in (0, 1):
                raise CircuitError(f"wire {wire} assigned non-bit {bit!r}")
            values[wire] = bit
        for gate in self._gates:
            operands = [values[w] for w in gate.inputs]
            if gate.kind is GateKind.AND:
                values[gate.output] = operands[0] & operands[1]
            elif gate.kind is GateKind.XOR:
                values[gate.output] = operands[0] ^ operands[1]
            else:
                values[gate.output] = 1 - operands[0]
        return [values[w] for w in self._outputs]

    def evaluate_int(self, assignment: Dict[int, int]) -> int:
        """Evaluate and interpret the outputs as an LSB-first integer."""
        bits = self.evaluate(assignment)
        return sum(bit << i for i, bit in enumerate(bits))

    # -- internals --------------------------------------------------------------

    def _allocate(self) -> int:
        wire = self._next_wire
        self._next_wire += 1
        return wire

    def _check_wires(self, *wires: int) -> None:
        for wire in wires:
            if not 0 <= wire < self._next_wire:
                raise CircuitError(f"unknown wire {wire}")


def assign_value(
    circuit: Circuit, wires: Sequence[int], value: int
) -> Dict[int, int]:
    """Build the assignment mapping ``wires`` (LSB-first) to ``value``'s
    bits -- a convenience for tests and compilers."""
    if value < 0 or value >= (1 << len(wires)):
        raise CircuitError(
            f"value {value} does not fit in {len(wires)} wires"
        )
    return {wire: (value >> i) & 1 for i, wire in enumerate(wires)}
