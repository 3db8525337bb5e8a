"""Chaos runs: prove a disturbed campaign converges to the clean answer.

The harness runs one campaign three ways inside a chaos directory:

1. **reference** — serial, no cache, no faults: the ground truth.
2. **chaos** — parallel under a :class:`FaultPlan`: forked agents are
   SIGKILLed and hung, specs and adapters raise, cache blobs are
   corrupted as they are written, a manifest save is torn, and the run
   is interrupted mid-campaign.  Between the legs the harness also
   corrupts one at-rest cache blob and one shard artifact.
3. **resume** — the same plan minus the interrupt, continuing from the
   (recovered) checkpoint to completion.

Convergence means :func:`~repro.campaign.runner.stage_digests` of the
resumed chaos manifest equals the reference's, byte for byte — every
retry, quarantine and checkpoint fallback notwithstanding.  Because
fault plans are deterministic (every fault keys on a counter, never on
the clock), a converging chaos run converges every time, which is what
lets CI assert it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign import get_campaign
from repro.campaign.runner import CampaignRunner, stage_digests
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignInterrupted
from repro.resilience.faults import BUILTIN_PLANS, FaultInjector, FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ParallelExecutor, SerialExecutor


@dataclass
class ChaosReport:
    """Everything a chaos run observed, plus the verdict."""

    campaign: str
    plan: FaultPlan
    identical: bool
    complete: bool
    interrupted: bool
    mismatched: list[str]
    reference_digests: dict[str, str | None]
    chaos_digests: dict[str, str | None]
    fired: dict[str, int]
    resilience: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    # Dispatch legs (4/5): a distributed run under network faults must
    # converge to the same reference digests.  Defaults mean "not run".
    dispatch_ran: bool = False
    dispatch_identical: bool = True
    dispatch_complete: bool = True
    dispatch_interrupted: bool = False
    dispatch_mismatched: list[str] = field(default_factory=list)
    dispatch_digests: dict = field(default_factory=dict)
    dispatch_counters: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return (
            self.identical
            and self.complete
            and (
                not self.dispatch_ran
                or (self.dispatch_identical and self.dispatch_complete)
            )
        )

    def to_json(self) -> dict:
        payload = {
            "campaign": self.campaign,
            "plan": self.plan.to_json(),
            "converged": self.converged,
            "identical": self.identical,
            "complete": self.complete,
            "interrupted": self.interrupted,
            "mismatched": list(self.mismatched),
            "reference_digests": dict(self.reference_digests),
            "chaos_digests": dict(self.chaos_digests),
            "fired": dict(self.fired),
            "resilience": dict(self.resilience),
            "wall_seconds": round(self.wall_seconds, 3),
        }
        if self.dispatch_ran:
            payload["dispatch"] = {
                "identical": self.dispatch_identical,
                "complete": self.dispatch_complete,
                "interrupted": self.dispatch_interrupted,
                "mismatched": list(self.dispatch_mismatched),
                "digests": dict(self.dispatch_digests),
                "counters": dict(self.dispatch_counters),
            }
        return payload

    def summary(self) -> str:
        verdict = "CONVERGED" if self.converged else "DIVERGED"
        lines = [
            f"chaos {self.campaign!r} under plan {self.plan.name!r}: {verdict}",
            f"  interrupted mid-run: {self.interrupted}",
            f"  faults fired: {json.dumps(self.fired, sort_keys=True)}",
            f"  resilience: {json.dumps(self.resilience, sort_keys=True)}",
            f"  stages identical: {len(self.reference_digests) - len(self.mismatched)}"
            f"/{len(self.reference_digests)}",
            f"  wall: {self.wall_seconds:.1f}s",
        ]
        if self.mismatched:
            lines.append(f"  MISMATCHED: {', '.join(sorted(self.mismatched))}")
        if self.dispatch_ran:
            n = len(self.reference_digests) - len(self.dispatch_mismatched)
            lines.insert(
                -1,
                "  dispatch leg: "
                f"identical {n}/{len(self.reference_digests)}, "
                f"counters {json.dumps(self.dispatch_counters, sort_keys=True)}",
            )
            if self.dispatch_mismatched:
                lines.append(
                    "  DISPATCH MISMATCHED: "
                    f"{', '.join(sorted(self.dispatch_mismatched))}"
                )
        return "\n".join(lines)


def _corrupt_at_rest(cache_root: Path, chaos_dir: Path) -> int:
    """Deterministically damage one cache blob and one shard artifact.

    Picks the lexicographically first of each so the disturbance is
    reproducible; returns how many files were damaged.
    """
    damaged = 0
    blobs = sorted(cache_root.glob("v*/*/*.json"))
    if blobs:
        blobs[0].write_bytes(b'{"cache_version": "tampered"')
        damaged += 1
    shards = sorted(chaos_dir.glob("artifacts/shards/*.json"))
    if shards:
        data = shards[0].read_bytes()
        shards[0].write_bytes(data[: max(1, len(data) // 2)])
        damaged += 1
    return damaged


def run_chaos(
    campaign: CampaignSpec | str,
    *,
    chaos_dir: str | Path,
    plan: FaultPlan | str | None = None,
    jobs: int = 2,
    retries: int = 2,
    timeout: float | None = 3.0,
    dispatch: bool = False,
    progress=None,
) -> ChaosReport:
    """Run the reference/chaos/resume legs and compare digests.

    With ``dispatch=True`` two more legs run the same campaign through
    a local :class:`~repro.dispatch.DispatchExecutor` under the
    network-fault plan (drops, duplicates, delays, a partition and a
    vanished worker, plus the mid-run interrupt), then resume it —
    asserting the distributed path converges to the same byte-identical
    stage digests as the serial reference.
    """
    if isinstance(campaign, str):
        campaign = get_campaign(campaign)
    if plan is None:
        plan = BUILTIN_PLANS["smoke"]
    elif isinstance(plan, str):
        from repro.resilience.faults import load_plan

        plan = load_plan(plan)
    base = Path(chaos_dir)
    started = time.perf_counter()
    retry = RetryPolicy(max_attempts=retries + 1)

    # Leg 1 — undisturbed serial reference, no cache: ground truth.
    reference = CampaignRunner(
        campaign, campaign_dir=base / "reference", executor=SerialExecutor()
    ).run(progress=progress)
    reference_digests = stage_digests(reference.manifest)

    # Leg 2 — the disturbed run: faults + mid-run interrupt.
    cache = ResultCache(base / "cache")
    injector = FaultInjector(plan)
    cache.put_hook = injector.on_cache_put
    fired: dict[str, int] = {}
    interrupted = False
    executor = ParallelExecutor(
        jobs=jobs, retry=retry, timeout=timeout, fault_plan=plan
    )
    runner = CampaignRunner(
        campaign,
        campaign_dir=base / "chaos",
        executor=executor,
        cache=cache,
        shard_retries=retries,
        faults=injector,
    )
    try:
        runner.run(progress=progress, stop_after=injector.stop_hook())
    except CampaignInterrupted:
        interrupted = True
    finally:
        executor.close()
    for kind, count in injector.summary().items():
        fired[kind] = fired.get(kind, 0) + count

    # Between legs: damage data at rest, the way a bad disk would.
    _corrupt_at_rest(base / "cache", base / "chaos")

    # Leg 3 — resume to completion under the same faults, no interrupt.
    resume_plan = plan.without_interrupt()
    resume_injector = FaultInjector(resume_plan)
    cache = ResultCache(base / "cache")
    cache.put_hook = resume_injector.on_cache_put
    executor = ParallelExecutor(
        jobs=jobs, retry=retry, timeout=timeout, fault_plan=resume_plan
    )
    runner = CampaignRunner(
        campaign,
        campaign_dir=base / "chaos",
        executor=executor,
        cache=cache,
        shard_retries=retries,
        faults=resume_injector,
    )
    try:
        final = runner.run(progress=progress)
    finally:
        executor.close()
    for kind, count in resume_injector.summary().items():
        fired[kind] = fired.get(kind, 0) + count

    chaos_digests = stage_digests(final.manifest)
    mismatched = sorted(
        name
        for name in reference_digests
        if reference_digests[name] != chaos_digests.get(name)
    )

    # Legs 4/5 — the distributed story: the same campaign through the
    # dispatch layer under network chaos, interrupted, then resumed.
    dispatch_ran = dispatch
    dispatch_identical = dispatch_complete = True
    dispatch_interrupted = False
    dispatch_mismatched: list[str] = []
    dispatch_digests: dict[str, str | None] = {}
    dispatch_counters: dict[str, int] = {}
    if dispatch:
        from repro.dispatch import DispatchExecutor

        dplan = plan if plan.network_faults() else BUILTIN_PLANS["dispatch"]
        for leg_plan, resuming in ((dplan, False), (dplan.without_interrupt(), True)):
            dcache = ResultCache(base / "dispatch_cache")
            dexecutor = DispatchExecutor(
                jobs=jobs, retry=retry, timeout=timeout, fault_plan=leg_plan
            )
            dinjector = dexecutor.injector
            dcache.put_hook = dinjector.on_cache_put
            drunner = CampaignRunner(
                campaign,
                campaign_dir=base / "dispatch",
                executor=dexecutor,
                cache=dcache,
                shard_retries=retries,
                faults=dinjector,
            )
            try:
                dfinal = drunner.run(
                    progress=progress,
                    stop_after=None if resuming else dinjector.stop_hook(),
                )
            except CampaignInterrupted:
                dispatch_interrupted = True
                dfinal = None
            finally:
                if dexecutor._broker is not None:
                    for key, value in dexecutor._broker.counters.items():
                        dispatch_counters[key] = dispatch_counters.get(key, 0) + value
                dexecutor.close()
            for kind, count in dinjector.summary().items():
                fired[kind] = fired.get(kind, 0) + count
            if not resuming:
                # Same at-rest damage the parallel legs get between runs.
                _corrupt_at_rest(base / "dispatch_cache", base / "dispatch")
        dispatch_complete = dfinal is not None and dfinal.complete
        if dfinal is not None:
            dispatch_digests = stage_digests(dfinal.manifest)
        dispatch_mismatched = sorted(
            name
            for name in reference_digests
            if reference_digests[name] != dispatch_digests.get(name)
        )
        dispatch_identical = not dispatch_mismatched

    report = ChaosReport(
        campaign=campaign.name,
        plan=plan,
        identical=not mismatched,
        complete=final.complete,
        interrupted=interrupted,
        mismatched=mismatched,
        reference_digests=reference_digests,
        chaos_digests=chaos_digests,
        fired=fired,
        resilience=final.manifest.get("telemetry", {}).get("resilience", {}),
        wall_seconds=time.perf_counter() - started,
        dispatch_ran=dispatch_ran,
        dispatch_identical=dispatch_identical,
        dispatch_complete=dispatch_complete,
        dispatch_interrupted=dispatch_interrupted,
        dispatch_mismatched=dispatch_mismatched,
        dispatch_digests=dispatch_digests,
        dispatch_counters=dispatch_counters,
    )
    (base / "chaos_report.json").write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return report
