"""Arithmetic gadgets over boolean circuits.

All values are LSB-first wire vectors in two's complement (where
signedness matters). Gate budgets follow the standard free-XOR
constructions: a full adder costs one AND, an n-bit comparator n ANDs,
an n-bit mux n ANDs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.circuits.builder import Circuit, CircuitError


def full_adder(
    circuit: Circuit, a: int, b: int, carry: int
) -> Tuple[int, int]:
    """One-bit full adder: returns ``(sum, carry_out)``; 1 AND gate.

    Uses the identity ``carry_out = ((a ^ c)(b ^ c)) ^ c``.
    """
    a_xor_c = circuit.gate_xor(a, carry)
    b_xor_c = circuit.gate_xor(b, carry)
    total = circuit.gate_xor(a_xor_c, b)
    carry_out = circuit.gate_xor(circuit.gate_and(a_xor_c, b_xor_c), carry)
    return total, carry_out


def add(
    circuit: Circuit, a: Sequence[int], b: Sequence[int], width: int = 0
) -> List[int]:
    """Ripple-carry addition; output width defaults to
    ``max(len(a), len(b)) + 1``. Inputs are zero-extended."""
    width = width or max(len(a), len(b)) + 1
    a = _extend(circuit, a, width)
    b = _extend(circuit, b, width)
    out: List[int] = []
    carry = Circuit.CONST_ZERO
    for bit_a, bit_b in zip(a, b):
        total, carry = full_adder(circuit, bit_a, bit_b, carry)
        out.append(total)
    return out


def twos_complement_negate(circuit: Circuit, a: Sequence[int]) -> List[int]:
    """``-a`` over the same width (invert and add one)."""
    inverted = [circuit.gate_not(bit) for bit in a]
    one = circuit.constant_bits(1, len(a))
    return add(circuit, inverted, one, width=len(a))


def subtract(
    circuit: Circuit, a: Sequence[int], b: Sequence[int], width: int = 0
) -> List[int]:
    """Two's-complement ``a - b`` over ``width`` bits (default
    ``max(len) + 1``)."""
    width = width or max(len(a), len(b)) + 1
    a = _extend(circuit, a, width)
    b = _extend(circuit, b, width)
    return add(circuit, a, twos_complement_negate(circuit, b), width=width)


def less_than(circuit: Circuit, a: Sequence[int], b: Sequence[int]) -> int:
    """Unsigned ``a < b`` as a single wire; ~n AND gates.

    Computed as the final borrow of ``a - b`` via the standard chain
    ``borrow' = (~(a ^ b) & borrow) | (~a & b)``.
    """
    if len(a) != len(b):
        raise CircuitError("comparator operands must share a width")
    borrow = Circuit.CONST_ZERO
    for bit_a, bit_b in zip(a, b):
        same = circuit.gate_not(circuit.gate_xor(bit_a, bit_b))
        keep = circuit.gate_and(same, borrow)
        new = circuit.gate_and(circuit.gate_not(bit_a), bit_b)
        borrow = circuit.gate_or(keep, new)
    return borrow


def greater_equal(circuit: Circuit, a: Sequence[int], b: Sequence[int]) -> int:
    """Unsigned ``a >= b``."""
    return circuit.gate_not(less_than(circuit, a, b))


def mux(
    circuit: Circuit, selector: int, if_zero: Sequence[int],
    if_one: Sequence[int],
) -> List[int]:
    """Bitwise 2-to-1 multiplexer: ``selector ? if_one : if_zero``;
    one AND per bit (``out = a ^ s(a ^ b)``)."""
    if len(if_zero) != len(if_one):
        raise CircuitError("mux arms must share a width")
    out = []
    for bit_a, bit_b in zip(if_zero, if_one):
        diff = circuit.gate_xor(bit_a, bit_b)
        out.append(circuit.gate_xor(bit_a, circuit.gate_and(selector, diff)))
    return out


def mux_many(
    circuit: Circuit, selector_bits: Sequence[int],
    options: Sequence[Sequence[int]],
) -> List[int]:
    """``options[selector]`` via a binary mux tree.

    ``selector_bits`` is LSB-first; ``options`` is padded to the next
    power of two by repeating the last entry.
    """
    if not options:
        raise CircuitError("mux_many needs at least one option")
    padded: List[Sequence[int]] = list(options)
    target = 1 << len(selector_bits)
    if len(padded) > target:
        raise CircuitError(
            f"{len(padded)} options exceed 2^{len(selector_bits)} selectors"
        )
    while len(padded) < target:
        padded.append(padded[-1])
    level = padded
    for bit in selector_bits:
        level = [
            mux(circuit, bit, level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return list(level[0])


def argmax(
    circuit: Circuit, values: Sequence[Sequence[int]]
) -> List[int]:
    """Index of the (unsigned) maximum among equal-width values,
    returned as an LSB-first index vector; linear tournament with one
    comparator + two muxes per candidate."""
    if not values:
        raise CircuitError("argmax needs at least one value")
    index_width = max(1, (len(values) - 1).bit_length())
    best_value = list(values[0])
    best_index = circuit.constant_bits(0, index_width)
    for position in range(1, len(values)):
        candidate = list(values[position])
        candidate_index = circuit.constant_bits(position, index_width)
        is_better = greater_equal(circuit, candidate, best_value)
        best_value = mux(circuit, is_better, best_value, candidate)
        best_index = mux(circuit, is_better, best_index, candidate_index)
    return best_index


def _extend(circuit: Circuit, wires: Sequence[int], width: int) -> List[int]:
    if len(wires) > width:
        return list(wires)[:width]
    return list(wires) + [Circuit.CONST_ZERO] * (width - len(wires))
