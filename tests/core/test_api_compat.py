"""The redesigned router constructors and their removed flag aliases."""

import warnings

import pytest

from repro.config import ColoringMethod, RouterConfig, TrackMethod
from repro.api import BaselineRouter, StitchAwareRouter


class TestConfigConstructor:
    def test_default_config(self):
        router = StitchAwareRouter()
        assert router.config == RouterConfig()
        assert router.track_method is TrackMethod.GRAPH
        assert router.coloring is ColoringMethod.FLOW
        assert router.stitch_aware_global is True
        assert router.stitch_aware_detail is True

    def test_explicit_config_does_not_warn(self):
        config = RouterConfig(
            track_method=TrackMethod.ILP, coloring=ColoringMethod.MST
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            router = StitchAwareRouter(config=config)
        assert router.config is config
        assert router.track_method is TrackMethod.ILP

    def test_baseline_pins_policy_flags(self):
        router = BaselineRouter()
        assert router.track_method is TrackMethod.BASELINE
        assert router.coloring is ColoringMethod.MST
        assert router.stitch_aware_global is False
        assert router.stitch_aware_detail is False

    def test_baseline_keeps_geometry_overrides(self):
        config = RouterConfig(stitch_spacing=21, tile_size=21)
        router = BaselineRouter(config=config)
        assert router.config.stitch_spacing == 21
        assert router.track_method is TrackMethod.BASELINE

    def test_config_accepts_policy_strings(self):
        config = RouterConfig(track_method="ilp", coloring="mst")
        assert config.track_method is TrackMethod.ILP
        assert config.coloring is ColoringMethod.MST


class TestDeprecatedFlagAliases:
    """The pre-``RouterConfig`` flag aliases served their deprecation
    release and were removed: every legacy form now fails loudly."""

    def test_legacy_keywords_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            StitchAwareRouter(
                track_method=TrackMethod.BASELINE,
                coloring=ColoringMethod.MST,
            )

    def test_legacy_positional_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            StitchAwareRouter(
                TrackMethod.ILP, ColoringMethod.MST, False, False
            )

    def test_legacy_flags_with_config_rejected(self):
        config = RouterConfig(stitch_spacing=21, tile_size=21)
        with pytest.raises(TypeError, match="unexpected keyword"):
            StitchAwareRouter(config=config, stitch_aware_detail=False)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            StitchAwareRouter(not_a_flag=True)

    def test_duplicate_flag_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            StitchAwareRouter(TrackMethod.ILP, track_method=TrackMethod.GRAPH)

    def test_too_many_positionals_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            StitchAwareRouter(
                TrackMethod.ILP, ColoringMethod.MST, False, False, "extra"
            )
