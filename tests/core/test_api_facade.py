"""Tests for the :mod:`repro.api` facade and the bare top-level package."""

import subprocess
import sys
import warnings

import repro
import repro.api as api


class TestFacadeSurface:
    def test_star_import_exposes_documented_surface(self):
        namespace = {}
        exec("from repro.api import *", namespace)
        for name in api.__all__:
            assert name in namespace, name

    def test_dir_matches_all(self):
        assert dir(api) == sorted(api.__all__)

    def test_unknown_attribute_raises(self):
        try:
            api.definitely_not_a_thing
        except AttributeError as error:
            assert "definitely_not_a_thing" in str(error)
        else:
            raise AssertionError("expected AttributeError")

    def test_lazy_serving_exports_resolve(self):
        # Touching a lazy name loads and caches the real object.
        assert callable(api.request_classification)
        assert "request_classification" in vars(api)

    def test_session_config_and_telemetry_are_eager(self):
        assert api.SessionConfig is not None
        assert api.telemetry.enabled in (True, False) or callable(
            api.telemetry.enabled
        )


class TestImportIsolation:
    def test_facade_import_stays_light(self):
        # The facade must not drag in the socket/process-pool stack:
        # a fresh interpreter importing repro.api must finish without
        # repro.smc.transport (sockets, multiprocessing peers) loaded.
        code = (
            "import sys; import repro.api; "
            "heavy = [m for m in ('repro.smc.transport',) "
            "if m in sys.modules]; "
            "sys.exit(1 if heavy else 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_facade_import_emits_no_warnings(self):
        code = (
            "import warnings; warnings.simplefilter('error'); "
            "import repro.api"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestLegacyShim:
    """The top-level legacy shim is deleted; only the package's own
    names remain importable from ``repro``."""

    def test_facade_names_are_not_served_top_level(self):
        # The PEP 562 shim is gone: repro.api is the one import path.
        assert not hasattr(repro, "PipelineConfig")
        assert repro.__all__ == ["ReproError", "__version__"]
        assert api.PipelineConfig is not None

    def test_error_type_is_not_deprecated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro import ReproError  # noqa: F401 - import is the test

    def test_unknown_top_level_attribute_raises(self):
        try:
            repro.nonsense
        except AttributeError:
            pass
        else:
            raise AssertionError("expected AttributeError")
