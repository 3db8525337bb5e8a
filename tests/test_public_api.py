"""Public API surface: imports, __all__, and the README quickstart."""

import importlib
import pkgutil
import re

import pytest

import repro

#: ``repro`` and every subpackage; each exports through a lazy table.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_version():
    assert repro.__version__ == "1.10.0"


def test_all_names_resolve():
    for package in PACKAGES:
        module = importlib.import_module(package)
        listed = dir(module)
        assert module.__all__, package
        for name in module.__all__:
            getattr(module, name)
            assert name in listed, f"{package}.{name}"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_raise_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_quickstart_snippet_runs():
    # The exact flow documented in the package docstring / README.
    from repro import ColumnSimulator, PvcPolicy, SimulationConfig
    from repro import get_topology, uniform_workload

    topology = get_topology("dps")
    config = SimulationConfig(frame_cycles=10_000)
    sim = ColumnSimulator(
        topology.build(config), uniform_workload(0.05), PvcPolicy(), config
    )
    stats = sim.run(2_000, warmup=500)
    assert stats.mean_latency > 0


def test_system_snippet_runs():
    from repro import TopologyAwareSystem

    system = TopologyAwareSystem()
    system.admit_vm("web", n_threads=24, weight=2.0)
    system.admit_vm("db", n_threads=16, weight=3.0)
    assert system.audit_isolation() == []


def test_experiment_modules_importable():
    from repro.analysis import experiments

    for name in experiments.__all__:
        assert hasattr(experiments, name)
