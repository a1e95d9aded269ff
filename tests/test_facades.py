"""Package façades: every name in a package's ``__all__`` resolves.

The façades load a name's defining submodule only when the name is
first read, so nothing but these checks catches an export table that
drifts from ``__all__`` or points a name at the wrong submodule.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    name
    for _, name, is_package in pkgutil.walk_packages(repro.__path__, "repro.")
    if is_package
)
EXPORTING = [name for name in PACKAGES if hasattr(importlib.import_module(name), "__all__")]


def test_the_exporting_packages_are_found():
    assert {"repro", "repro.core", "repro.harness", "repro.tech"} <= set(EXPORTING)


@pytest.mark.parametrize("package", EXPORTING)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        getattr(module, name)
        assert name in listed, name


@pytest.mark.parametrize("package", EXPORTING)
def test_an_unknown_name_is_an_attribute_error(package):
    assert not hasattr(importlib.import_module(package), "no_such_name")


def test_star_import_binds_every_top_level_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["AnalyticalChipModel"] is importlib.import_module(
        "repro.core.powermodel"
    ).AnalyticalChipModel


def test_scenario_iii_is_exported_by_core_not_the_top_level():
    from repro.core import EnergyOptimizationScenario

    assert EnergyOptimizationScenario.__module__ == "repro.core.scenario3"
    assert not hasattr(repro, "EnergyOptimizationScenario")
