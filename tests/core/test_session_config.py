"""Tests for :class:`repro.core.session.SessionConfig` and the
``make_context(config=...)`` interface."""

import argparse
import warnings

import pytest

from repro.core.exceptions import ReproError
from repro.core.session import (
    PROTOCOL_BACKENDS,
    RNG_MODES,
    SessionConfig,
)


class TestValidation:
    def test_defaults_are_valid(self):
        config = SessionConfig()
        assert config.rng_mode == "deterministic"
        assert config.telemetry is False

    @pytest.mark.parametrize("field,value", [
        ("protocol_backend", "garbled"),
        ("rng_mode", "lava-lamp"),
        ("paillier_bits", 0),
        ("dgk_bits", -1),
        ("dgk_plaintext_bits", 0),
        ("statistical_security_bits", 0),
        ("max_workers", 0),
        ("queue_depth", -1),
        ("request_timeout_s", 0.0),
        ("privacy_budget", -0.1),
        ("privacy_budget", 1.5),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ReproError):
            SessionConfig(**{field: value})

    def test_budget_fields_default_off(self):
        config = SessionConfig()
        assert config.ledger_path is None
        assert config.privacy_budget is None

    def test_valid_privacy_budget_accepted(self):
        assert SessionConfig(privacy_budget=0.0).privacy_budget == 0.0
        assert SessionConfig(privacy_budget=1.0).privacy_budget == 1.0

    @pytest.mark.parametrize("field", [
        "transport_backend", "transport_retries", "backoff_seconds",
    ])
    def test_retired_transport_fields_are_gone(self, field):
        with pytest.raises(TypeError):
            SessionConfig(**{field: 1})

    def test_retired_crypto_backend_field_is_gone(self):
        # The bignum kernel is the process default of repro.crypto.modexp.
        with pytest.raises(TypeError):
            SessionConfig(crypto_backend="python")

    def test_frozen(self):
        with pytest.raises(Exception):
            SessionConfig().seed = 5  # type: ignore[misc]


class TestOverrides:
    def test_with_overrides_replaces_and_revalidates(self):
        base = SessionConfig(seed=3)
        derived = base.with_overrides(paillier_bits=384, seed=9)
        assert derived.seed == 9
        assert derived.paillier_bits == 384
        assert base.paillier_bits == 512  # original untouched
        with pytest.raises(ReproError):
            base.with_overrides(rng_mode="quantum")


class TestFromArgs:
    def test_reads_cli_namespace(self):
        args = argparse.Namespace(
            seed=4,
            rng_mode="system", metrics="out.json",
        )
        config = SessionConfig.from_args(args)
        assert config.seed == 4
        assert config.rng_mode == "system"
        assert config.telemetry is True

    def test_absent_flags_keep_defaults(self):
        config = SessionConfig.from_args(argparse.Namespace(seed=1))
        assert config.rng_mode == "deterministic"
        assert config.telemetry is False

    def test_reads_serving_flags(self):
        args = argparse.Namespace(seed=0, queue_depth=2,
                                  request_timeout=1.5)
        config = SessionConfig.from_args(args)
        assert config.queue_depth == 2
        assert config.request_timeout_s == 1.5
        # The serve command sets the handler-pool size (max_workers)
        # from --workers explicitly; from_args leaves it alone.
        assert config.max_workers == 4

    def test_reads_budget_flags(self):
        args = argparse.Namespace(seed=0, ledger="budget.db",
                                  privacy_budget=0.2)
        config = SessionConfig.from_args(args)
        assert config.ledger_path == "budget.db"
        assert config.privacy_budget == 0.2

    def test_extra_overrides_win(self):
        args = argparse.Namespace(seed=1)
        config = SessionConfig.from_args(args, paillier_bits=384, seed=8)
        assert config.paillier_bits == 384
        assert config.seed == 8


class TestBackendTuplesStayInSync:
    # SessionConfig keeps literal copies so that repro.core.session
    # stays import-light; these tests are the drift alarm.

    def test_protocol_backends(self):
        from repro.secure.backends import PROTOCOL_BACKENDS as REAL
        assert tuple(PROTOCOL_BACKENDS) == tuple(REAL)

    def test_rng_modes_cover_context_behaviour(self):
        assert set(RNG_MODES) == {"deterministic", "system"}


class TestMakeContextShim:
    """The per-parameter keyword shim is gone: a SessionConfig is the
    one way to size a session, and nothing warns."""

    def test_config_object_accepted(self):
        from repro.smc.context import make_context

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ctx = make_context(config=SessionConfig(
                seed=5, paillier_bits=384, dgk_bits=192,
                dgk_plaintext_bits=16,
            ))
        assert ctx.paillier.public_key.n.bit_length() >= 380

    def test_per_parameter_keywords_are_gone(self):
        from repro.smc.context import make_context

        with pytest.raises(TypeError):
            make_context(seed=5, paillier_bits=384)

    def test_seed_alone_is_not_deprecated(self):
        from repro.smc.context import make_context

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ctx = make_context(seed=13, config=SessionConfig(
                paillier_bits=384, dgk_bits=192, dgk_plaintext_bits=16,
            ))
        assert ctx is not None
