"""Energy model: Figure 7's qualitative structure.

Encoded findings:

* meshes are least efficient on a 3-hop route (four router traversals);
* MECS has the most energy-hungry switch stage (long input lines) and
  undesirable per-hop cost, but good 3-hop efficiency (no intermediates);
* DPS combines mesh-like endpoint cost with very cheap intermediate
  hops (no crossbar traversal, no flow-state access);
* DPS saves roughly 17% over mesh x1 and 33% over mesh x4 on 3 hops;
* MECS and DPS are nearly identical on the 3-hop composite.

The 3-hop bands here are tighter than the ``fig7.dps_energy_savings``
claim's (:mod:`repro.campaign.claims`), so they are checked here too.
"""

import pytest

from repro.errors import ModelError
from repro.models.energy import HopType, RouterEnergyModel
from repro.topologies.registry import TOPOLOGY_NAMES, get_topology


@pytest.fixture(scope="module")
def model():
    return RouterEnergyModel()


@pytest.fixture(scope="module")
def geometries():
    return {name: get_topology(name).geometry() for name in TOPOLOGY_NAMES}


@pytest.fixture(scope="module")
def three_hop(model, geometries):
    return {
        name: model.route_energy(
            geometry, 3, single_hop_reach=(name == "mecs")
        ).total_pj
        for name, geometry in geometries.items()
    }


def test_meshes_least_efficient_on_three_hops(three_hop):
    for mesh in ("mesh_x1", "mesh_x2", "mesh_x4"):
        assert three_hop[mesh] > three_hop["mecs"]
        assert three_hop[mesh] > three_hop["dps"]


def test_dps_saves_about_17_percent_vs_mesh_x1(three_hop):
    savings = 1.0 - three_hop["dps"] / three_hop["mesh_x1"]
    assert 0.12 < savings < 0.25


def test_dps_saves_about_33_percent_vs_mesh_x4(three_hop):
    savings = 1.0 - three_hop["dps"] / three_hop["mesh_x4"]
    assert 0.28 < savings < 0.45


def test_mecs_and_dps_nearly_identical_on_three_hops(three_hop):
    ratio = three_hop["mecs"] / three_hop["dps"]
    assert 0.9 < ratio < 1.15


def test_mecs_switch_stage_is_most_energy_hungry(model, geometries):
    mecs_dest = model.hop_energy(geometries["mecs"], HopType.DESTINATION)
    for name, geometry in geometries.items():
        if name == "mecs":
            continue
        other = model.hop_energy(geometry, HopType.DESTINATION)
        assert mecs_dest.crossbar_pj > other.crossbar_pj, name


def test_dps_intermediate_hop_is_cheapest(model, geometries):
    dps_mid = model.hop_energy(geometries["dps"], HopType.INTERMEDIATE).total_pj
    for name, geometry in geometries.items():
        if name == "dps":
            continue
        assert dps_mid < model.hop_energy(geometry, HopType.INTERMEDIATE).total_pj


def test_dps_intermediate_has_no_flow_table_energy(model, geometries):
    energy = model.hop_energy(geometries["dps"], HopType.INTERMEDIATE)
    assert energy.flow_table_pj == 0.0


def test_mesh_per_hop_energy_grows_with_replication(model, geometries):
    totals = [
        model.hop_energy(geometries[name], HopType.SOURCE).total_pj
        for name in ("mesh_x1", "mesh_x2", "mesh_x4")
    ]
    assert totals[0] < totals[1] < totals[2]


def test_route_energy_rejects_zero_hops(model, geometries):
    with pytest.raises(ModelError):
        model.route_energy(geometries["dps"], 0)


def test_single_hop_reach_skips_intermediates(model, geometries):
    geometry = geometries["mecs"]
    near = model.route_energy(geometry, 1, single_hop_reach=True)
    far = model.route_energy(geometry, 7, single_hop_reach=True)
    assert near.total_pj == pytest.approx(far.total_pj)


def test_energy_breakdown_addition_and_scaling(model, geometries):
    hop = model.hop_energy(geometries["mesh_x1"], HopType.SOURCE)
    doubled = hop + hop
    assert doubled.total_pj == pytest.approx(2 * hop.total_pj)
    scaled = hop.scaled(3.0)
    assert scaled.buffers_pj == pytest.approx(3 * hop.buffers_pj)


def test_voltage_scaling_reduces_energy(model, geometries):
    from repro.models.technology import DEFAULT_TECHNOLOGY

    low_v = RouterEnergyModel(DEFAULT_TECHNOLOGY.scaled_to_voltage(0.6))
    base = model.hop_energy(geometries["mesh_x1"], HopType.SOURCE).total_pj
    scaled = low_v.hop_energy(geometries["mesh_x1"], HopType.SOURCE).total_pj
    assert scaled == pytest.approx(base * (0.6 / 0.9) ** 2)
