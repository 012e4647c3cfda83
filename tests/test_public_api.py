"""Smoke tests for the public API surface."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.sim",
    "repro.disk",
    "repro.buffer",
    "repro.storage",
    "repro.scans",
    "repro.core",
    "repro.engine",
    "repro.workloads",
    "repro.metrics",
    "repro.experiments",
    "repro.service",
    "repro.cluster",
    "repro.extensions.index_sharing",
    "repro.cli",
]


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_import(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize(
        "module_name",
        [m for m in SUBPACKAGES if m != "repro.cli"],
    )
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name, None) is not None, (module_name, name)

    def test_every_public_item_documented(self):
        """Every name the top-level package exports carries a docstring."""
        import inspect

        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_config_validation_n_disks(self):
        from repro.engine.database import SystemConfig

        with pytest.raises(ValueError):
            SystemConfig(n_disks=0)
        with pytest.raises(ValueError):
            SystemConfig(stripe_extents=0)
