"""Tests for the analytic cost model."""

import pytest

from repro.smc.cost_model import (
    NATIVE_1024,
    CostModel,
    calibrate_hardware_profile,
)
from repro.smc.network import NetworkProfile
from repro.smc.protocol import ExecutionTrace, Op


def _sample_trace() -> ExecutionTrace:
    trace = ExecutionTrace()
    trace.count(Op.PAILLIER_ENCRYPT, 10)
    trace.count(Op.PAILLIER_SCALAR_MUL, 20)
    trace.count(Op.DGK_ENCRYPT, 30)
    trace.bytes_client_to_server = 5000
    trace.bytes_server_to_client = 3000
    trace.rounds = 6
    return trace


class TestHardwareProfiles:
    def test_compute_seconds_positive(self):
        assert NATIVE_1024.compute_seconds(_sample_trace()) > 0

    def test_missing_ops_priced_zero(self):
        trace = ExecutionTrace()
        trace.count(Op.SYMMETRIC_OP, 1)
        profile = NATIVE_1024
        assert profile.compute_seconds(trace) == pytest.approx(
            profile.op_seconds[Op.SYMMETRIC_OP]
        )


class TestCostModel:
    def test_breakdown_sums(self):
        model = CostModel(hardware=NATIVE_1024, network=NetworkProfile.LAN)
        breakdown = model.price(_sample_trace())
        assert breakdown.total_seconds == pytest.approx(
            breakdown.compute_seconds + breakdown.network_seconds
        )

    def test_wan_increases_network_share(self):
        trace = _sample_trace()
        lan = CostModel(hardware=NATIVE_1024, network=NetworkProfile.LAN)
        wan = CostModel(hardware=NATIVE_1024, network=NetworkProfile.WAN)
        assert wan.price(trace).network_seconds > lan.price(trace).network_seconds
        assert wan.price(trace).compute_seconds == lan.price(trace).compute_seconds

    def test_traffic_scale(self):
        trace = _sample_trace()
        base = CostModel(hardware=NATIVE_1024, network=NetworkProfile.WAN)
        scaled = CostModel(
            hardware=NATIVE_1024, network=NetworkProfile.WAN, traffic_scale=4.0
        )
        assert scaled.price(trace).network_seconds > base.price(trace).network_seconds


class TestCalibration:
    def test_calibrated_profile_is_usable(self):
        profile = calibrate_hardware_profile(
            paillier_bits=256, dgk_bits=192, dgk_plaintext_bits=10, iterations=3
        )
        assert profile.op_seconds[Op.PAILLIER_ENCRYPT] > 0
        assert profile.op_seconds[Op.DGK_ZERO_TEST] > 0
        assert profile.compute_seconds(_sample_trace()) > 0
