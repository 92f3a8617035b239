"""Tests for :class:`repro.core.session.SessionConfig` and the
``make_context(config=...)`` interface."""

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
        assert config.request_timeout_s == 30.0

    @pytest.mark.parametrize("field,value", [
        ("protocol_backend", "garbled"),
        ("rng_mode", "lava-lamp"),
        ("paillier_bits", 0),
        ("paillier_bits", 513),  # two equal-size primes give an even modulus
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

    @pytest.mark.parametrize("field,value", [
        ("io_timeout", 30.0),       # request_timeout_s is the deadline
        ("connect_timeout", 5.0),   # a fleet constant now
        ("telemetry", True),        # repro.telemetry.configure is the switch
    ])
    def test_retired_serving_fields_are_gone(self, field, value):
        with pytest.raises(TypeError):
            SessionConfig(**{field: value})

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

    def test_system_rng_mode_builds_working_keys(self):
        from repro.smc.context import make_context

        ctx = make_context(config=SessionConfig(
            rng_mode="system", paillier_bits=384, dgk_bits=192,
        ))
        assert not ctx.client_rng.is_deterministic
        assert ctx.paillier.public_key.n.bit_length() == 384
        public = ctx.paillier.public_key
        assert ctx.paillier.private_key.decrypt(
            public.encrypt(-42, ctx.client_rng)
        ) == -42
        dgk = ctx.dgk.public_key
        assert ctx.dgk.private_key.decrypt(dgk.encrypt(7, ctx.client_rng)) == 7

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
