"""Set-up probe: one fresh process, from its start to the first cycle.

``run.py`` launches this several times per run and times each launch
until the ``ready`` line arrives: interpreter start, imports, and the
set-up of the workload's first simulation (for ``campaign_smoke``, the
executor, cache and campaign runner up to the first stage)::

    python3 perfbench/setup_probe.py <workload> <seed> <work dir>
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import suite  # noqa: E402  (needs the program on the path)


def main(argv: list[str]) -> int:
    workload, seed, work_dir = argv[0], int(argv[1]), Path(argv[2])
    if workload in suite.ENGINE_WORKLOADS:
        suite.build_simulator(
            suite.ENGINE_WORKLOADS[workload], suite.TOPOLOGIES[0], seed
        )
    else:
        from repro.campaign.runner import CampaignRunner

        probe_dir = work_dir / "setup-probe"
        CampaignRunner(
            suite.campaign_spec(seed),
            campaign_dir=probe_dir / "campaign",
            executor=suite.runtime_executor.ParallelExecutor(
                jobs=suite.CAMPAIGN_JOBS
            ),
            cache=suite.ResultCache(probe_dir / "cache"),
            baseline_path=suite.BASELINE_PATH,
        )
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
