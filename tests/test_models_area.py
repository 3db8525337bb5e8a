"""Area model: Figure 3's qualitative structure.

The paper's findings encoded as assertions (that mesh x1 is the most
compact router and mesh x4 the largest is the ``fig3.area_order`` claim
of :mod:`repro.campaign.claims`):

* mesh x4's footprint is dominated by its crossbar;
* MECS has the largest buffer footprint but a compact crossbar;
* DPS is comparable to MECS in total;
* mesh x2 is similar to MECS/DPS (at half their bisection bandwidth);
* PVC flow state is never a significant contributor.
"""

import pytest

from repro.models.area import RouterAreaModel
from repro.models.technology import TechnologyParameters
from repro.topologies.registry import TOPOLOGY_NAMES, get_topology


@pytest.fixture(scope="module")
def areas():
    model = RouterAreaModel()
    return {
        name: model.breakdown(get_topology(name).geometry())
        for name in TOPOLOGY_NAMES
    }


def test_mesh_x4_crossbar_dominates_its_area(areas):
    breakdown = areas["mesh_x4"]
    assert breakdown.crossbar_mm2 > breakdown.buffers_mm2


def test_mesh_x4_crossbar_roughly_4x_baseline(areas):
    ratio = areas["mesh_x4"].crossbar_mm2 / areas["mesh_x1"].crossbar_mm2
    # 11x11 over 5x5 ports = 4.84x.
    assert 4.0 < ratio < 6.0


def test_mecs_has_largest_buffers(areas):
    assert areas["mecs"].buffers_mm2 == max(a.buffers_mm2 for a in areas.values())


def test_mecs_crossbar_is_compact(areas):
    assert areas["mecs"].crossbar_mm2 == min(
        areas[n].crossbar_mm2 for n in TOPOLOGY_NAMES
    )


def test_dps_total_comparable_to_mecs(areas):
    ratio = areas["dps"].total_mm2 / areas["mecs"].total_mm2
    assert 0.8 < ratio < 1.2


def test_dps_smaller_buffers_larger_crossbar_than_mecs(areas):
    assert areas["dps"].buffers_mm2 < areas["mecs"].buffers_mm2
    assert areas["dps"].crossbar_mm2 > areas["mecs"].crossbar_mm2


def test_mesh_x2_similar_footprint_to_mecs_and_dps(areas):
    for other in ("mecs", "dps"):
        ratio = areas["mesh_x2"].total_mm2 / areas[other].total_mm2
        assert 0.6 < ratio < 1.4


def test_flow_state_is_insignificant(areas):
    for name, breakdown in areas.items():
        assert breakdown.flow_state_mm2 < 0.15 * breakdown.total_mm2, name


def test_row_buffers_identical_across_topologies(areas):
    values = {round(a.row_buffers_mm2, 9) for a in areas.values()}
    assert len(values) == 1


def test_area_scales_with_sram_density():
    dense = TechnologyParameters(sram_um2_per_bit=0.45)
    sparse = TechnologyParameters(sram_um2_per_bit=0.90)
    geometry = get_topology("mecs").geometry()
    assert (
        RouterAreaModel(dense).buffer_area_mm2(geometry)
        < RouterAreaModel(sparse).buffer_area_mm2(geometry)
    )


def test_breakdown_total_is_component_sum(areas):
    for breakdown in areas.values():
        assert breakdown.total_mm2 == pytest.approx(
            breakdown.buffers_mm2
            + breakdown.crossbar_mm2
            + breakdown.flow_state_mm2
        )
