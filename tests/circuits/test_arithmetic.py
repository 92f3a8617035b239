"""Tests for circuit arithmetic gadgets."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import arithmetic as ar
from repro.circuits.builder import Circuit, CircuitError, Owner, assign_value


def _two_operand(width, build):
    """Build a circuit with two ``width``-bit client inputs run through
    ``build``; returns (circuit, a_wires, b_wires)."""
    c = Circuit()
    a = c.input_bits(Owner.CLIENT, width)
    b = c.input_bits(Owner.CLIENT, width)
    out = build(c, a, b)
    if isinstance(out, int):
        c.mark_output(out)
    else:
        c.mark_outputs(out)
    return c, a, b


class TestAdder:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60)
    def test_matches_plus(self, x, y):
        c, a, b = _two_operand(8, lambda c, a, b: ar.add(c, a, b))
        asg = {**assign_value(c, a, x), **assign_value(c, b, y)}
        assert c.evaluate_int(asg) == x + y

    def test_gate_budget_one_and_per_bit(self):
        c, a, b = _two_operand(16, lambda c, a, b: ar.add(c, a, b))
        assert c.and_count <= 17

    def test_truncating_width(self):
        c, a, b = _two_operand(8, lambda c, a, b: ar.add(c, a, b, width=8))
        asg = {**assign_value(c, a, 200), **assign_value(c, b, 100)}
        assert c.evaluate_int(asg) == (200 + 100) % 256


class TestSubtractNegate:
    @given(st.integers(0, 127), st.integers(0, 127))
    @settings(max_examples=60)
    def test_subtract_twos_complement(self, x, y):
        c, a, b = _two_operand(8, lambda c, a, b: ar.subtract(c, a, b, width=8))
        asg = {**assign_value(c, a, x), **assign_value(c, b, y)}
        assert c.evaluate_int(asg) == (x - y) % 256

    def test_negate(self):
        c = Circuit()
        a = c.input_bits(Owner.CLIENT, 8)
        c.mark_outputs(ar.twos_complement_negate(c, a))
        for x in (0, 1, 127, 255):
            assert c.evaluate_int(assign_value(c, a, x)) == (-x) % 256


class TestComparators:
    def test_less_than_exhaustive_4bit(self):
        c, a, b = _two_operand(4, ar.less_than)
        for x, y in itertools.product(range(16), repeat=2):
            asg = {**assign_value(c, a, x), **assign_value(c, b, y)}
            assert c.evaluate_int(asg) == int(x < y), (x, y)

    def test_greater_equal(self):
        c, a, b = _two_operand(4, ar.greater_equal)
        for x, y in itertools.product(range(0, 16, 3), repeat=2):
            asg = {**assign_value(c, a, x), **assign_value(c, b, y)}
            assert c.evaluate_int(asg) == int(x >= y)

    def test_width_mismatch_rejected(self):
        c = Circuit()
        a = c.input_bits(Owner.CLIENT, 3)
        b = c.input_bits(Owner.CLIENT, 4)
        with pytest.raises(CircuitError):
            ar.less_than(c, a, b)


class TestMux:
    def test_two_way(self):
        c = Circuit()
        s = c.input_bit(Owner.CLIENT)
        zero_arm = c.constant_bits(5, 4)
        one_arm = c.constant_bits(9, 4)
        c.mark_outputs(ar.mux(c, s, zero_arm, one_arm))
        assert c.evaluate_int({s: 0}) == 5
        assert c.evaluate_int({s: 1}) == 9

    def test_many_way_non_power_of_two(self):
        c = Circuit()
        sel = c.input_bits(Owner.CLIENT, 2)
        options = [c.constant_bits(v, 5) for v in (1, 2, 3)]
        c.mark_outputs(ar.mux_many(c, sel, options))
        for i, expected in enumerate((1, 2, 3, 3)):  # padded with last
            assert c.evaluate_int(assign_value(c, sel, i)) == expected

    def test_too_many_options_rejected(self):
        c = Circuit()
        sel = c.input_bits(Owner.CLIENT, 1)
        options = [c.constant_bits(v, 2) for v in (0, 1, 2)]
        with pytest.raises(CircuitError):
            ar.mux_many(c, sel, options)

    def test_empty_options_rejected(self):
        c = Circuit()
        sel = c.input_bits(Owner.CLIENT, 1)
        with pytest.raises(CircuitError):
            ar.mux_many(c, sel, [])


class TestArgmax:
    def test_unique_maxima(self):
        c = Circuit()
        values = [c.constant_bits(v, 6) for v in (10, 40, 25, 7)]
        c.mark_outputs(ar.argmax(c, values))
        assert c.evaluate_int({}) == 1

    def test_tie_prefers_later(self):
        c = Circuit()
        values = [c.constant_bits(v, 6) for v in (9, 9)]
        c.mark_outputs(ar.argmax(c, values))
        assert c.evaluate_int({}) == 1  # >= keeps the challenger

    def test_max_at_each_position(self):
        for position in range(4):
            c = Circuit()
            raw = [5] * 4
            raw[position] = 50
            values = [c.constant_bits(v, 6) for v in raw]
            c.mark_outputs(ar.argmax(c, values))
            assert c.evaluate_int({}) == position

    def test_empty_rejected(self):
        with pytest.raises(CircuitError):
            ar.argmax(Circuit(), [])
