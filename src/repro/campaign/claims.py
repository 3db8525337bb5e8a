"""The claim table: each paper result the campaigns reproduce, as a
predicate over one stage kind's summary rows.

A :class:`Claim` names a result, where the paper states it, the stage
kind whose rows decide it, and the campaigns whose budgets support it.
The report card (:mod:`repro.campaign.report`) evaluates every claim of
its campaign on the rows of each stage of that kind, and a false claim
fails the card.  So ``repro campaign run|report --check`` gates on the
paper's results as well as on the rows matching the baseline: a
baseline re-recorded from rows that break a claim cannot pass.

Predicates read rows as plain dicts; nothing here imports
``repro.analysis``.  Figure 4's "low" and "high" load are the stage's
lowest and highest swept rate.  A predicate raises ``KeyError`` when
its rows lack a topology, workload, policy or field it reads, and
:func:`check` reports that claim as false.  Claims that read the
replicated meshes or DPS list ``paper`` only, because ``smoke`` runs
mesh_x1 and MECS; so do the five marked claims whose effect ``smoke``'s
windows are too short to show.

Sources: Grot, Keckler and Mutlu, ISCA 2010, for the figure, table and
section numbers; Lee, Ng and Asanović, ISCA 2008, for GSF.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

#: ``holds(rows) -> bool`` over one stage's summary rows.
Predicate = Callable[[list[dict]], bool]

PAPER = ("paper",)
BOTH = ("paper", "smoke")

_MESHES = ("mesh_x1", "mesh_x2", "mesh_x4")


@dataclass(frozen=True)
class Claim:
    """One paper result, decided by the rows of one stage kind."""

    id: str
    #: Where the paper states it, e.g. ``"Fig. 5, §5.3"``.
    where: str
    kind: str
    #: The campaigns whose budgets support it.
    campaigns: tuple[str, ...]
    holds: Predicate

    @property
    def statement(self) -> str:
        """The claim in one sentence: its predicate's docstring."""
        return " ".join((self.holds.__doc__ or "").split())


_TABLE: list[Claim] = []


def _claim(
    claim_id: str, where: str, kind: str, campaigns: tuple[str, ...] = BOTH
) -> Callable[[Predicate], Predicate]:
    def register(holds: Predicate) -> Predicate:
        _TABLE.append(Claim(claim_id, where, kind, campaigns, holds))
        return holds

    return register


def _by(rows: list[dict], key: str, **match) -> dict:
    """``{row[key]: row}`` over the rows whose fields equal ``match``."""
    return {
        row[key]: row
        for row in rows
        if all(row[field] == value for field, value in match.items())
    }


def _latency_at(rows: list[dict], pick: Callable) -> dict[str, dict[str, float]]:
    """``{panel: {topology: mean latency}}`` at the ``pick`` (min/max) rate."""
    rate = pick(row["rate"] for row in rows)
    latency: dict[str, dict[str, float]] = {}
    for row in rows:
        if row["rate"] == rate:
            latency.setdefault(row["panel"], {})[row["topology"]] = row["mean_latency"]
    return latency


# -- Figures 3 and 7: the analytical area and energy models -------------


@_claim("fig3.area_order", "Fig. 3", "fig3")
def _area_order(rows):
    """mesh_x1 has the smallest router area and mesh_x4 the largest."""
    totals = {row["topology"]: row["total_mm2"] for row in rows}
    smallest = min(totals, key=totals.get)
    return smallest == "mesh_x1" and max(totals, key=totals.get) == "mesh_x4"


@_claim("fig7.dps_energy_savings", "Fig. 7", "fig7")
def _dps_energy_savings(rows):
    """Over three hops DPS saves 10-30% of mesh_x1's router energy and
    25-45% of mesh_x4's, and MECS is within 15% of DPS."""
    three_hops = _by(rows, "topology", hop="three_hops")
    total = {topology: row["total_pj"] for topology, row in three_hops.items()}
    return (
        0.10 < 1 - total["dps"] / total["mesh_x1"] < 0.30
        and 0.25 < 1 - total["dps"] / total["mesh_x4"] < 0.45
        and abs(total["mecs"] - total["dps"]) / total["dps"] < 0.15
    )


# -- Figure 4: latency against offered load ------------------------------


@_claim("fig4.p2p_fastest_at_low_load", "Fig. 4, §5.2", "fig4", PAPER)
def _p2p_fastest_at_low_load(rows):
    """At the lowest rate, MECS and DPS beat every mesh on both panels."""
    return all(
        low[fast] < low[mesh]
        for low in _latency_at(rows, min).values()
        for fast in ("mecs", "dps")
        for mesh in _MESHES
    )


@_claim("fig4.mecs_matches_dps_on_uniform", "Fig. 4, §5.2", "fig4", PAPER)
def _mecs_matches_dps_on_uniform(rows):
    """At the lowest rate on uniform traffic, MECS is within 5% of DPS."""
    low = _latency_at(rows, min)["uniform"]
    return abs(low["mecs"] - low["dps"]) / low["dps"] < 0.05


@_claim("fig4.mecs_leads_dps_on_tornado", "Fig. 4, §5.2", "fig4", PAPER)
def _mecs_leads_dps_on_tornado(rows):
    """At the lowest rate on tornado, MECS beats DPS, by less than 20%: it
    amortises its deeper pipeline over the longer flight."""
    low = _latency_at(rows, min)["tornado"]
    return low["mecs"] < low["dps"] and (low["dps"] - low["mecs"]) / low["dps"] < 0.20


@_claim("fig4.mesh_x1_saturates_first", "Fig. 4, §5.2", "fig4", PAPER)
def _mesh_x1_saturates_first(rows):
    """At the highest rate, mesh_x1's latency exceeds 3x MECS's and 3x
    DPS's on both panels."""
    return all(
        high["mesh_x1"] > 3 * high[fast]
        for high in _latency_at(rows, max).values()
        for fast in ("mecs", "dps")
    )


@_claim("fig4.mesh_x4_cannot_balance_tornado", "Fig. 4, §5.2", "fig4", PAPER)
def _mesh_x4_cannot_balance_tornado(rows):
    """At the highest rate on tornado, mesh_x4's latency exceeds 1.5x MECS's."""
    high = _latency_at(rows, max)["tornado"]
    return high["mesh_x4"] > 1.5 * high["mecs"]


@_claim("fig4.bisection_order_on_uniform", "Fig. 4, §5.2", "fig4", PAPER)
def _bisection_order_on_uniform(rows):
    """At the highest rate on uniform traffic, latency falls with mesh
    replication: mesh_x1 > mesh_x2 > mesh_x4."""
    high = _latency_at(rows, max)["uniform"]
    return high["mesh_x1"] > high["mesh_x2"] > high["mesh_x4"]


# -- Table 2: hotspot throughput fairness --------------------------------


# Paper only: smoke's 1,500-cycle window leaves std 6.5-7.5% of the mean.
@_claim("table2.fairness_band", "Table 2", "table2", PAPER)
def _fairness_band(rows):
    """Every topology keeps the per-source throughput std under 3% of the
    mean and every source within 6% of it."""
    return all(
        row["std_relative"] < 0.03
        and max(abs(row["min_relative"] - 1.0), abs(row["max_relative"] - 1.0)) < 0.06
        for row in rows
    )


# Paper only, as above.
@_claim("table2.paper_band", "Table 2", "table2", PAPER)
def _paper_band(rows):
    """Every topology keeps every source within 4% of the mean and the std
    under 2% of it (the paper: min 98.5%, max 101.9%, std 1.1%)."""
    return all(
        row["min_relative"] > 0.96
        and row["max_relative"] < 1.04
        and row["std_relative"] < 0.02
        for row in rows
    )


@_claim("table2.means_agree", "Table 2", "table2")
def _means_agree(rows):
    """Mean per-source throughput agrees across topologies within 5%."""
    means = [row["mean_flits"] for row in rows]
    return max(means) / min(means) < 1.05


@_claim("table2.preemption_rare", "Table 2", "table2")
def _preemption_rare(rows):
    """Every topology preempts fewer than 100 times: PVC's throttles keep
    the hotspot calm."""
    return all(row["preemption_events"] < 100 for row in rows)


# -- Figure 5: preemption under the adversarial workloads ----------------


# Paper only: smoke's 2,500 cycles show no preemption on either workload.
@_claim("fig5.workload1_stresses_meshes", "Fig. 5, §5.3", "fig5", PAPER)
def _workload1_stresses_meshes(rows):
    """Workload 1 makes every mesh preempt."""
    w1 = _by(rows, "topology", workload="workload1")
    return all(w1[mesh]["preemption_events"] > 0 for mesh in _MESHES)


@_claim("fig5.replicas_thrash_on_workload2", "Fig. 5, §5.3", "fig5", PAPER)
def _replicas_thrash_on_workload2(rows):
    """On Workload 2, mesh_x2's preempted-packet fraction exceeds 5x
    mesh_x1's and mesh_x4's exceeds 5x DPS's (each floored at 0.001)."""
    w2 = _by(rows, "topology", workload="workload2")
    fraction = {t: row["preempted_packet_fraction"] for t, row in w2.items()}
    return (
        fraction["mesh_x2"] > 5 * max(fraction["mesh_x1"], 0.001)
        and fraction["mesh_x4"] > 5 * max(fraction["dps"], 0.001)
    )


# Paper only, as above.
@_claim("fig5.mesh_x1_dps_calm_on_workload2", "Fig. 5, §5.3", "fig5", PAPER)
def _mesh_x1_dps_calm_on_workload2(rows):
    """mesh_x1 preempts less on Workload 2 than on Workload 1, and DPS no
    more."""
    w1 = _by(rows, "topology", workload="workload1")
    w2 = _by(rows, "topology", workload="workload2")
    return (
        w2["mesh_x1"]["preemption_events"] < w1["mesh_x1"]["preemption_events"]
        and w2["dps"]["preemption_events"] <= w1["dps"]["preemption_events"]
    )


@_claim("fig5.mecs_resilient", "Fig. 5, §5.3", "fig5")
def _mecs_resilient(rows):
    """MECS preempts under 12% of its packets on both workloads."""
    mecs = _by(rows, "workload", topology="mecs")
    return all(
        mecs[workload]["preempted_packet_fraction"] < 0.12
        for workload in ("workload1", "workload2")
    )


@_claim("fig5.mecs_hops_track_packets", "Fig. 5, §5.3", "fig5")
def _mecs_hops_track_packets(rows):
    """On Workload 1, whenever over 1% of MECS's packets are preempted, its
    wasted-hop fraction is 0.5-2x its preempted-packet fraction: rich
    buffering means packets are rarely caught mid-transfer."""
    row = _by(rows, "topology", workload="workload1")["mecs"]
    if row["preempted_packet_fraction"] <= 0.01:
        return True
    ratio = row["wasted_hop_fraction"] / row["preempted_packet_fraction"]
    return 0.5 < ratio < 2.0


# -- Figure 6: slowdown and deviation from max-min fairness --------------


@_claim("fig6.slowdown_under_5pct", "Fig. 6", "fig6")
def _slowdown_under_5pct(rows):
    """PVC slows no workload on any topology by 5% or more against
    per-flow queuing."""
    return all(row["slowdown"] < 0.05 for row in rows)


@_claim("fig6.mean_deviation_under_2pct", "Fig. 6", "fig6")
def _mean_deviation_under_2pct(rows):
    """The average deviation from max-min fair throughput stays within
    2%."""
    return all(abs(row["avg_deviation"]) < 0.02 for row in rows)


# Paper only: smoke's 1,200-cycle window lets a source reach +20%.
@_claim("fig6.deviation_band", "Fig. 6", "fig6", PAPER)
def _deviation_band(rows):
    """Every source stays within 12% of its max-min fair share."""
    return all(
        row["min_deviation"] > -0.12 and row["max_deviation"] < 0.12 for row in rows
    )


# -- Section 5.2: replays in saturation ----------------------------------


@_claim("saturation.mecs_replays_least", "§5.2", "saturation")
def _mecs_replays_least(rows):
    """In saturation on uniform traffic, MECS replays the smallest fraction
    of packets."""
    uniform = _by(rows, "topology", pattern="uniform")
    fractions = [row["replayed_packet_fraction"] for row in uniform.values()]
    return uniform["mecs"]["replayed_packet_fraction"] <= min(fractions) + 1e-9


@_claim("saturation.tornado_calms_mesh_x1", "§5.2", "saturation")
def _tornado_calms_mesh_x1(rows):
    """In saturation, mesh_x1 replays no more on tornado than on uniform
    traffic."""
    mesh_x1 = _by(rows, "pattern", topology="mesh_x1")
    return (
        mesh_x1["tornado"]["replayed_packet_fraction"]
        <= mesh_x1["uniform"]["replayed_packet_fraction"] + 1e-9
    )


# -- PVC against GSF's frames (Lee, Ng and Asanović) ---------------------


@_claim("pvc_vs_gsf.comparable_fairness", "GSF, ISCA 2008", "pvc_vs_gsf")
def _comparable_fairness(rows):
    """At saturation GSF's worst flow gets no less than PVC's worst flow
    minus 0.15 of the fair share."""
    saturation = _by(rows, "policy", regime="saturation")
    pvc, gsf = saturation["pvc"], saturation["gsf"]
    return gsf["min_relative"] >= pvc["min_relative"] - 0.15


@_claim("pvc_vs_gsf.pvc_preempts_gsf_defers", "GSF, ISCA 2008", "pvc_vs_gsf")
def _pvc_preempts_gsf_defers(rows):
    """At saturation PVC pays in preemptions and never defers; GSF defers
    at the source and never preempts."""
    saturation = _by(rows, "policy", regime="saturation")
    pvc, gsf = saturation["pvc"], saturation["gsf"]
    return (
        pvc["preemption_events"] > 0
        and pvc["throttle_deferrals"] == 0
        and gsf["preemption_events"] == 0
        and gsf["throttle_deferrals"] > 0
    )


@_claim("pvc_vs_gsf.gsf_clamps_headroom", "GSF, ISCA 2008", "pvc_vs_gsf")
def _gsf_clamps_headroom(rows):
    """With headroom, GSF defers, delivers fewer flits than PVC and waits
    over 10x PVC's latency: admission clamps what scheduling would use."""
    headroom = _by(rows, "policy", regime="headroom")
    pvc, gsf = headroom["pvc"], headroom["gsf"]
    return (
        gsf["delivered_flits"] < pvc["delivered_flits"]
        and gsf["mean_latency"] > 10 * pvc["mean_latency"]
        and gsf["throttle_deferrals"] > 0
    )


# -- Ablations of the mechanisms the results rest on ----------------------


@_claim("ablation_quota.throttles_preemption", "PVC quota", "ablation_quota")
def _quota_throttles_preemption(rows):
    """A larger reserved quota never raises preemptions beyond 5% + 5
    events, a full-frame quota suppresses them, and the largest quota
    preempts less than the smallest."""
    ordered = sorted(rows, key=itemgetter("share"))
    events = [row["preemption_events"] for row in ordered]
    return (
        all(later <= earlier * 1.05 + 5 for earlier, later in zip(events, events[1:]))
        and events[-1] == 0
        and events[-1] < events[0]
    )


@_claim("ablation_patience.damps_thrash", "PVC inversion", "ablation_patience")
def _patience_damps_thrash(rows):
    """Preemptions never rise with patience, and an impatient trigger
    preempts over 5x the most patient one."""
    ordered = sorted(rows, key=itemgetter("patience"))
    events = [row["preemption_events"] for row in ordered]
    return events == sorted(events, reverse=True) and events[0] > 5 * events[-1]


@_claim("ablation_frame.longer_is_fairer", "PVC frame", "ablation_frame")
def _longer_frame_is_fairer(rows):
    """The longest frame's hotspot fairness std is no worse than the
    shortest's."""
    ordered = sorted(rows, key=itemgetter("frame_cycles"))
    return ordered[-1]["fairness_std"] <= ordered[0]["fairness_std"]


@_claim("ablation_window.throughput_grows", "PVC window", "ablation_window")
def _window_throughput_grows(rows):
    """Delivered flits never fall as the retransmission window grows, and
    the largest window delivers over 5x the smallest."""
    ordered = sorted(rows, key=itemgetter("window_packets"))
    flits = [row["delivered_flits"] for row in ordered]
    return flits == sorted(flits) and flits[-1] > 5 * flits[0]


@_claim("ablation_replica.pinning_cuts_waste", "Fig. 5", "ablation_replica", PAPER)
def _pinning_cuts_waste(rows):
    """On Workload 2, pinning each flow to one replica wastes no more hops
    than per-packet round robin, at 2 and 4 replicas."""
    wasted = {
        (row["replication"], row["policy"]): row["w2_wasted_hop_fraction"]
        for row in rows
    }
    return all(
        wasted[replication, "per_flow"] <= wasted[replication, "packet_rr"]
        for replication in (2, 4)
    )


@_claim("ablation_fbfly.matches_mecs", "§2.2 (fbfly)", "ablation_fbfly")
def _fbfly_matches_mecs(rows):
    """fbfly's uniform latency is within 2 cycles of MECS's, and its
    3-hop energy stays under 14 pJ."""
    by_topology = _by(rows, "topology")
    fbfly, mecs = by_topology["fbfly"], by_topology["mecs"]
    return (
        abs(fbfly["uniform_latency"] - mecs["uniform_latency"]) < 2.0
        and fbfly["three_hop_energy_pj"] < 14.0
    )


#: Every claim, in table order.
CLAIMS: tuple[Claim, ...] = tuple(_TABLE)


def claims_for(campaign: str, kind: str | None = None) -> tuple[Claim, ...]:
    """The claims ``campaign`` supports, optionally only ``kind``'s."""
    return tuple(
        claim
        for claim in CLAIMS
        if campaign in claim.campaigns and kind in (None, claim.kind)
    )


def check(claim: Claim, rows: list[dict]) -> tuple[bool, str]:
    """``(holds, detail)``; the detail names what the rows lacked, if any."""
    try:
        return bool(claim.holds(rows)), ""
    except (KeyError, IndexError, ValueError, ZeroDivisionError) as error:
        return False, f"the rows cannot decide it: {type(error).__name__} {error}"
