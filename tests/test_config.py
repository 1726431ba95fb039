"""Tests for RouterConfig validation and benchmark scaling."""

import dataclasses

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    Engine,
    RouterConfig,
    benchmark_scale,
    resolve_engine,
)


class TestRouterConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.stitch_spacing == 15
        assert DEFAULT_CONFIG.epsilon == 1
        assert DEFAULT_CONFIG.escape_width == 4
        assert (DEFAULT_CONFIG.alpha, DEFAULT_CONFIG.beta, DEFAULT_CONFIG.gamma) == (
            1.0,
            10.0,
            5.0,
        )

    def test_beta_much_larger_than_gamma(self):
        """Section IV: beta must dominate gamma."""
        assert DEFAULT_CONFIG.beta > DEFAULT_CONFIG.gamma

    def test_tiny_spacing_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(stitch_spacing=2)

    def test_overlapping_unfriendly_regions_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(stitch_spacing=5, epsilon=2)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(alpha=-1.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(epsilon=-1)

    def test_tiny_tile_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(tile_size=1)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.alpha = 2.0  # type: ignore[misc]


class TestBenchmarkScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert benchmark_scale(default=0.2) == 0.2

    def test_full_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        monkeypatch.setenv("REPRO_SCALE", "0.3")
        assert benchmark_scale() == 1.0

    def test_explicit_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert benchmark_scale() == 0.25

    def test_oversize_scale_for_speedup_runs(self, monkeypatch):
        # Factors above 1 (up to 100) grow instances beyond the
        # paper's statistics for speedup measurements.
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "10")
        assert benchmark_scale() == 10.0

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        for bad in ("0", "-0.5", "101"):
            monkeypatch.setenv("REPRO_SCALE", bad)
            with pytest.raises(ValueError):
                benchmark_scale()


class TestWorkersValidation:
    def test_default_is_serial(self):
        assert DEFAULT_CONFIG.workers == 1

    def test_accepts_positive_counts(self):
        assert RouterConfig(workers=4).workers == 4

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            RouterConfig(workers=0)
        with pytest.raises(ValueError):
            RouterConfig(workers=-2)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            RouterConfig(workers=2.5)
        with pytest.raises(ValueError):
            RouterConfig(workers=True)
        with pytest.raises(ValueError):
            RouterConfig(workers="4")


class TestAuditFlag:
    def test_default_is_off(self):
        assert DEFAULT_CONFIG.audit is False

    def test_accepts_bools(self):
        assert RouterConfig(audit=True).audit is True
        assert RouterConfig(audit=False).audit is False

    def test_rejects_non_bools(self):
        with pytest.raises(ValueError):
            RouterConfig(audit=1)
        with pytest.raises(ValueError):
            RouterConfig(audit="yes")


class TestProfileField:
    def test_default_is_off(self):
        assert DEFAULT_CONFIG.profile == "off"

    def test_accepts_known_levels(self):
        assert RouterConfig(profile="counters").profile == "counters"
        assert RouterConfig(profile="full").profile == "full"

    def test_rejects_unknown_levels(self):
        with pytest.raises(ValueError):
            RouterConfig(profile="verbose")
        with pytest.raises(ValueError):
            RouterConfig(profile=True)


class TestEngineField:
    """Deprecated field: selects nothing, warns, rejects ``object``."""

    def test_default_is_auto(self):
        assert DEFAULT_CONFIG.engine is Engine.AUTO

    def test_accepts_enum_and_string(self):
        with pytest.warns(DeprecationWarning):
            assert RouterConfig(engine=Engine.ARRAY).engine is Engine.ARRAY
        with pytest.warns(DeprecationWarning):
            assert RouterConfig(engine="auto").engine is Engine.AUTO
        with pytest.raises(ValueError, match="object engine was removed"):
            RouterConfig(engine="object")

    def test_rejects_unknown_engines(self):
        with pytest.raises(ValueError):
            RouterConfig(engine="vectorized")
        with pytest.raises(ValueError):
            RouterConfig(engine=3)

    def test_resolve_never_returns_auto(self):
        with pytest.warns(DeprecationWarning):
            assert resolve_engine("array") is Engine.ARRAY
        with pytest.warns(DeprecationWarning):
            assert resolve_engine(Engine.AUTO) is Engine.ARRAY
        with pytest.warns(DeprecationWarning), pytest.raises(ValueError):
            resolve_engine(Engine.OBJECT)

    def test_auto_prefers_array_with_numpy(self):
        with pytest.warns(DeprecationWarning):
            assert resolve_engine(Engine.AUTO) is Engine.ARRAY
