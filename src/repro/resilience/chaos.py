"""Chaos runs: prove a disturbed campaign converges to the clean answer.

The harness runs one campaign three ways inside a chaos directory:

1. **reference** — serial, no cache, no faults: the ground truth.
2. **chaos** — parallel under a :class:`FaultPlan`, interrupted
   mid-campaign: forked agents are SIGKILLed, hung, partitioned off or
   vanish holding their lease, calls are lost, duplicated and delayed,
   specs and adapters raise, cache blobs are corrupted as they are
   written and a manifest save is torn.  Between the legs the harness
   also corrupts one at-rest cache blob and one shard artifact.
3. **resume** — the same plan minus the interrupt, continuing from the
   (recovered) checkpoint to completion.

Convergence means every stage completed, every fault kind the plan
names fired, and :func:`~repro.campaign.runner.stage_digests` of the
resumed chaos manifest equals the reference's, byte for byte — every
retry, quarantine and checkpoint fallback notwithstanding.  Because
fault plans are deterministic (every fault keys on a counter, never on
the clock), a converging chaos run converges every time, which is what
lets CI assert it.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign import get_campaign
from repro.campaign.runner import CampaignRunner, stage_digests
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignInterrupted
from repro.resilience.faults import BUILTIN_PLANS, FaultInjector, FaultPlan, load_plan
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

    @property
    def unfired(self) -> list[str]:
        """Fault kinds the plan names that never fired: untested."""
        return sorted({fault.kind for fault in self.plan.faults} - set(self.fired))

    @property
    def converged(self) -> bool:
        return self.identical and self.complete and not self.unfired

    def to_json(self) -> dict:
        return {
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
        if self.unfired:
            lines.append(f"  NEVER FIRED: {', '.join(self.unfired)}")
        return "\n".join(lines)


def _corrupt_at_rest(cache_root: Path, chaos_dir: Path) -> None:
    """Deterministically damage one cache blob and one shard artifact.

    Picks the lexicographically first of each so the disturbance is
    reproducible.
    """
    blobs = sorted(cache_root.glob("v*/*/*.json"))
    if blobs:
        blobs[0].write_bytes(b'{"cache_version": "tampered"')
    shards = sorted(chaos_dir.glob("artifacts/shards/*.json"))
    if shards:
        data = shards[0].read_bytes()
        shards[0].write_bytes(data[: max(1, len(data) // 2)])


def _disturbed_leg(
    campaign: CampaignSpec,
    base: Path,
    plan: FaultPlan,
    *,
    jobs: int,
    retries: int,
    timeout: float | None,
    progress,
):
    """Run the campaign in ``base/chaos`` under ``plan``, one injector
    for the executor, the cache and the runner alike.

    Returns the result (``None`` when the plan's interrupt stopped the
    run) and the faults fired, by kind.
    """
    injector = FaultInjector(plan)
    cache = ResultCache(base / "cache")
    cache.put_hook = injector.on_cache_put
    executor = ParallelExecutor(
        jobs=jobs,
        retry=RetryPolicy(max_attempts=retries + 1),
        timeout=timeout,
        faults=injector,
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
        result = runner.run(progress=progress, stop_after=injector.stop_hook())
    except CampaignInterrupted:
        result = None
    finally:
        executor.close()
    return result, injector.summary()


def run_chaos(
    campaign: CampaignSpec | str,
    *,
    chaos_dir: str | Path,
    plan: FaultPlan | str | None = None,
    jobs: int = 2,
    retries: int = 2,
    timeout: float | None = 3.0,
    progress=None,
) -> ChaosReport:
    """Run the reference/chaos/resume legs and compare digests."""
    if isinstance(campaign, str):
        campaign = get_campaign(campaign)
    if plan is None:
        plan = BUILTIN_PLANS["smoke"]
    elif isinstance(plan, str):
        plan = load_plan(plan)
    base = Path(chaos_dir)
    # Every leg starts from nothing: state an earlier run left here would
    # serve its stages from the manifest, and no fault would fire.
    for leg_dir in ("reference", "chaos", "cache"):
        shutil.rmtree(base / leg_dir, ignore_errors=True)
    started = time.perf_counter()
    leg = dict(jobs=jobs, retries=retries, timeout=timeout, progress=progress)

    # Leg 1 — undisturbed serial reference, no cache: ground truth.
    reference = CampaignRunner(
        campaign, campaign_dir=base / "reference", executor=SerialExecutor()
    ).run(progress=progress)
    reference_digests = stage_digests(reference.manifest)

    # Leg 2 — the disturbed run: faults + mid-run interrupt.
    first, fired = _disturbed_leg(campaign, base, plan, **leg)
    # Between legs: damage data at rest, the way a bad disk would.
    _corrupt_at_rest(base / "cache", base / "chaos")
    # Leg 3 — resume to completion under the same faults, no interrupt.
    final, resumed = _disturbed_leg(campaign, base, plan.without_interrupt(), **leg)

    chaos_digests = stage_digests(final.manifest)
    mismatched = sorted(
        name
        for name in reference_digests
        if reference_digests[name] != chaos_digests.get(name)
    )
    report = ChaosReport(
        campaign=campaign.name,
        plan=plan,
        identical=not mismatched,
        complete=final.complete,
        interrupted=first is None,
        mismatched=mismatched,
        reference_digests=reference_digests,
        chaos_digests=chaos_digests,
        fired=dict(Counter(fired) + Counter(resumed)),
        resilience=final.manifest.get("telemetry", {}).get("resilience", {}),
        wall_seconds=time.perf_counter() - started,
    )
    (base / "chaos_report.json").write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return report
