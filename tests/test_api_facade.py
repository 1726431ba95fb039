"""The ``repro.api`` facade contract and its deprecation shims."""

import importlib

import pytest

import repro.api as api
from repro.benchmarks_gen import mcnc_design


class TestFacadeExports:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_lazy_analysis_reexports(self):
        from repro.analysis import audit_solution, lint_paths

        assert api.audit_solution is audit_solution
        assert api.lint_paths is lint_paths

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            api.no_such_name

    def test_root_package_serves_the_same_objects(self):
        import repro

        assert repro.StitchAwareRouter is api.StitchAwareRouter
        assert repro.RouterConfig is api.RouterConfig
        assert repro.FlowResult is api.FlowResult


class TestRouteConvenience:
    def test_routes_with_default_config(self):
        design = mcnc_design("S9234", scale=0.02)
        result = api.route(design)
        assert isinstance(result, api.FlowResult)
        assert isinstance(result.report, api.RoutingReport)

    def test_engine_selection_is_deprecated(self):
        design = mcnc_design("S9234", scale=0.02)
        with pytest.warns(DeprecationWarning, match="one engine"):
            config = api.RouterConfig(engine="array")
        result = api.route(design, config)
        assert result.trace is not None
        assert "engine" not in result.trace.meta


class TestEngineDeprecation:
    """``Engine`` / ``resolve_engine`` / ``engine=`` spend one release
    warning before removal; the object engine itself is gone."""

    def test_names_still_import_and_construct(self):
        from repro.config import Engine, resolve_engine

        assert api.Engine is Engine
        assert api.resolve_engine is resolve_engine
        assert api.Engine("auto") is api.Engine.AUTO

    def test_config_accepts_auto_and_array_with_warning(self):
        for value in ("auto", "array", api.Engine.ARRAY):
            with pytest.warns(DeprecationWarning, match="selects nothing"):
                api.RouterConfig(engine=value)

    def test_config_rejects_object(self):
        with pytest.raises(ValueError, match="object engine was removed"):
            api.RouterConfig(engine="object")

    def test_resolve_engine_warns_and_returns_the_one_engine(self):
        with pytest.warns(DeprecationWarning, match="one engine"):
            assert api.resolve_engine("auto") is api.Engine.ARRAY

    def test_resolve_engine_rejects_object(self):
        with pytest.warns(DeprecationWarning), pytest.raises(
            ValueError, match="object engine was removed"
        ):
            api.resolve_engine("object")

    def test_global_router_engine_array_still_works(self):
        from repro.globalroute import GlobalRouter

        design = mcnc_design("S9234", scale=0.02)
        with pytest.warns(DeprecationWarning, match="selects nothing"):
            router = GlobalRouter(engine="array")
        result = router.route(design)
        assert not result.failed

    def test_global_router_rejects_other_engines(self):
        from repro.globalroute import GlobalRouter

        for value in ("object", "auto", "vectorized"):
            with pytest.raises(ValueError, match="object engine"):
                GlobalRouter(engine=value)

    def test_detailed_router_has_no_engine_parameter(self):
        from repro.detailed import DetailedRouter

        with pytest.raises(TypeError, match="unexpected keyword"):
            DetailedRouter(engine="array")


class TestCoreShim:
    def test_old_import_path_is_removed(self):
        core = importlib.import_module("repro.core")
        with pytest.raises(AttributeError):
            core.StitchAwareRouter
        # The implementation module itself stays importable.
        flow = importlib.import_module("repro.core.flow")
        assert flow.StitchAwareRouter is api.StitchAwareRouter

    def test_shim_rejects_unknown_names(self):
        core = importlib.import_module("repro.core")
        with pytest.raises(AttributeError):
            core.DetailedRouter
