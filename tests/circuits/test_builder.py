"""Tests for the boolean circuit builder."""

import pytest

from repro.circuits.builder import (
    Circuit,
    CircuitError,
    GateKind,
    Owner,
    assign_value,
)


def _xor_count(circuit: Circuit) -> int:
    return sum(1 for g in circuit._gates if g.kind is GateKind.XOR)


class TestGates:
    def test_and_truth_table(self):
        for x in (0, 1):
            for y in (0, 1):
                c = Circuit()
                a, b = c.input_bit(Owner.CLIENT), c.input_bit(Owner.CLIENT)
                c.mark_output(c.gate_and(a, b))
                assert c.evaluate({a: x, b: y}) == [x & y]

    def test_xor_truth_table(self):
        for x in (0, 1):
            for y in (0, 1):
                c = Circuit()
                a, b = c.input_bit(Owner.CLIENT), c.input_bit(Owner.CLIENT)
                c.mark_output(c.gate_xor(a, b))
                assert c.evaluate({a: x, b: y}) == [x ^ y]

    def test_not(self):
        c = Circuit()
        a = c.input_bit(Owner.CLIENT)
        c.mark_output(c.gate_not(a))
        assert c.evaluate({a: 0}) == [1]
        assert c.evaluate({a: 1}) == [0]

    def test_or(self):
        c = Circuit()
        a, b = c.input_bit(Owner.CLIENT), c.input_bit(Owner.CLIENT)
        c.mark_output(c.gate_or(a, b))
        for x in (0, 1):
            for y in (0, 1):
                assert c.evaluate({a: x, b: y}) == [x | y]


class TestConstantFolding:
    def test_and_with_constants_costs_nothing(self):
        c = Circuit()
        a = c.input_bit(Owner.CLIENT)
        assert c.gate_and(a, Circuit.CONST_ZERO) == Circuit.CONST_ZERO
        assert c.gate_and(a, Circuit.CONST_ONE) == a
        assert c.gate_and(a, a) == a
        assert c.and_count == 0

    def test_xor_with_constants_costs_nothing(self):
        c = Circuit()
        a = c.input_bit(Owner.CLIENT)
        assert c.gate_xor(a, Circuit.CONST_ZERO) == a
        assert c.gate_xor(a, a) == Circuit.CONST_ZERO
        assert _xor_count(c) == 0

    def test_xor_with_one_becomes_not(self):
        c = Circuit()
        a = c.input_bit(Owner.CLIENT)
        out = c.gate_xor(a, Circuit.CONST_ONE)
        c.mark_output(out)
        assert c.and_count == 0
        assert c.evaluate({a: 0}) == [1]


class TestAccounting:
    def test_counts(self):
        c = Circuit()
        a, b = c.input_bits(Owner.CLIENT, 2)
        s = c.input_bit(Owner.SERVER)
        c.gate_and(a, b)
        c.gate_and(a, s)
        c.gate_xor(a, b)
        assert c.and_count == 2
        assert _xor_count(c) == 1
        assert c.input_count(Owner.CLIENT) == 2
        assert c.input_count(Owner.SERVER) == 1

    def test_constant_bits(self):
        c = Circuit()
        wires = c.constant_bits(5, 4)
        c.mark_outputs(wires)
        assert c.evaluate_int({}) == 5

    def test_constant_too_wide_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().constant_bits(16, 4)


class TestEvaluation:
    def test_missing_input_rejected(self):
        c = Circuit()
        a = c.input_bit(Owner.CLIENT)
        c.mark_output(a)
        with pytest.raises(CircuitError, match="missing"):
            c.evaluate({})

    def test_non_bit_rejected(self):
        c = Circuit()
        a = c.input_bit(Owner.CLIENT)
        c.mark_output(a)
        with pytest.raises(CircuitError):
            c.evaluate({a: 2})

    def test_assign_value_lsb_first(self):
        c = Circuit()
        wires = c.input_bits(Owner.CLIENT, 4)
        c.mark_outputs(wires)
        assert c.evaluate_int(assign_value(c, wires, 9)) == 9

    def test_assign_value_overflow_rejected(self):
        c = Circuit()
        wires = c.input_bits(Owner.CLIENT, 2)
        with pytest.raises(CircuitError):
            assign_value(c, wires, 4)

    def test_unknown_wire_rejected(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.gate_and(99, 100)
