"""Resumable campaign execution with an on-disk manifest.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into an
**artifact store** under a campaign directory::

    <campaign_dir>/
        manifest.json            stage status, hashes, timings, digests
        artifacts/<stage>.json   merged comparable rows, sha256-addressed
        artifacts/shards/<stage>.<i>.json   per-shard checkpoints
        report.json / report.md  report card vs the committed baseline

Execution is checkpointed at shard granularity: after every shard the
rows are persisted and the manifest is atomically rewritten, so a
killed campaign resumes from its last checkpoint.  Completed stages
are *served from the manifest* — the runner verifies the recorded
artifact digest against the file on disk and never touches the
executor for them — and a partially-complete stage re-runs only its
missing shards, with the spec-level :class:`~repro.runtime.ResultCache`
absorbing any simulation the interrupted shard had already finished.
Artifact bytes contain no timestamps, so an interrupted-and-resumed
campaign produces byte-identical artifacts (and digests) to an
uninterrupted one.

Resilience: every manifest save first promotes the previous good file
to ``manifest.json.bak``, so a *torn* write (power loss, full disk,
injected fault) costs at most one shard checkpoint — ``load_manifest``
quarantines the torn file and falls back to the backup instead of
refusing to resume.  Failed shards are retried per stage
(``shard_retries``), a failing stage marks only its true dependents
``blocked`` while independent stages complete, and executor-level
retry/crash/timeout counters roll up into ``manifest["telemetry"]
["resilience"]``.  Chaos runs thread a
:class:`~repro.resilience.FaultInjector` through ``faults=``.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.report import ReportCard, build_report_card, load_baseline
from repro.campaign.spec import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignSpec,
    StageSpec,
    canonical_artifact_bytes,
    sha256_bytes,
    stage_hash,
)
from repro.campaign.stages import get_adapter
from repro.errors import CampaignError, CampaignInterrupted, ExecutionFailed
from repro.obs.fleet.spans import stage_trace_id, trace_id
from repro.obs.telemetry import TelemetryExecutor
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor, SerialExecutor

#: Filenames inside a campaign directory.
MANIFEST_NAME = "manifest.json"
MANIFEST_BACKUP_NAME = "manifest.json.bak"
QUARANTINE_DIR = "quarantine"
ARTIFACT_DIR = "artifacts"
SHARD_DIR = "shards"
REPORT_JSON_NAME = "report.json"
REPORT_MD_NAME = "report.md"

#: ``load_manifest`` sentinel: the file exists but does not parse.
_CORRUPT = object()

#: ``progress(stage_name, shard_index, shard_count, event)`` with event
#: one of ``"reused"``, ``"shard"``, ``"retry"``, ``"complete"``,
#: ``"failed"``.
CampaignProgress = Callable[[str, int, int, str], None]

#: ``stop_after(stage_name, shard_index) -> bool`` — test/interrupt
#: hook evaluated after every shard checkpoint.
StopHook = Callable[[str, int], bool]

#: ``heartbeat(stage_name, done, total, spec_label, cached)`` — called
#: once per completed simulation inside a shard (``repro campaign run
#: --progress``); see :func:`repro.obs.heartbeat_printer`.
CampaignHeartbeat = Callable[[str, int, int, str, bool], None]


def _engine_version() -> str:
    import repro

    return repro.__version__


@dataclass
class CampaignResult:
    """Outcome of one ``run_campaign`` invocation."""

    campaign: str
    campaign_dir: str
    manifest: dict
    report: ReportCard | None = None
    executed_stages: list[str] = field(default_factory=list)
    reused_stages: list[str] = field(default_factory=list)
    failed_stages: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(
            entry.get("status") == "complete"
            for entry in self.manifest["stages"].values()
        )


class CampaignRunner:
    """Executes (and resumes) one campaign inside one directory."""

    def __init__(
        self,
        campaign: CampaignSpec,
        *,
        campaign_dir: str | os.PathLike,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        baseline_path: str | os.PathLike | None = None,
        shard_retries: int = 0,
        faults=None,
        journal=None,
    ) -> None:
        if shard_retries < 0:
            raise CampaignError("shard_retries must be >= 0")
        self.campaign = campaign
        self.dir = Path(campaign_dir)
        self.executor = executor or SerialExecutor()
        self.cache = cache
        self.baseline_path = Path(baseline_path) if baseline_path else None
        self.shard_retries = shard_retries
        #: Optional :class:`~repro.resilience.FaultInjector` — the
        #: chaos seam for adapter-error and torn-manifest faults.
        self.faults = faults
        #: Optional :class:`~repro.obs.fleet.JournalWriter` for
        #: stage/shard lifecycle events; ``None`` costs one ``is not
        #: None`` check per event and is bit-neutral to artifacts.
        self.journal = journal
        self.engine = _engine_version()
        # Validate every stage kind eagerly: an unknown kind should fail
        # `campaign run` before any simulation, not mid-campaign.
        self._hashes = {
            stage.name: stage_hash(
                campaign,
                stage,
                adapter_version=get_adapter(stage.kind).version,
                engine_version=self.engine,
            )
            for stage in campaign.stages
        }

    # -- paths --------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.dir / MANIFEST_NAME

    @property
    def manifest_backup_path(self) -> Path:
        return self.dir / MANIFEST_BACKUP_NAME

    def artifact_path(self, stage_name: str) -> Path:
        return self.dir / ARTIFACT_DIR / f"{stage_name}.json"

    def shard_path(self, stage_name: str, shard: int) -> Path:
        return self.dir / ARTIFACT_DIR / SHARD_DIR / f"{stage_name}.{shard}.json"

    # -- manifest persistence ----------------------------------------

    def _read_manifest_file(self, path: Path):
        """The parsed manifest, ``None`` if missing, ``_CORRUPT`` if torn."""
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return _CORRUPT

    def _quarantine_manifest(self, path: Path) -> None:
        quarantine = self.dir / QUARANTINE_DIR
        quarantine.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, quarantine / path.name)
        except OSError:
            path.unlink(missing_ok=True)

    def _validate_manifest(self, manifest: dict, path: Path) -> dict:
        if manifest.get("campaign") != self.campaign.name:
            raise CampaignError(
                f"{path} belongs to campaign "
                f"{manifest.get('campaign')!r}, not {self.campaign.name!r}"
            )
        return manifest

    def load_manifest(self) -> dict | None:
        """The on-disk manifest, or ``None`` if this is a fresh campaign.

        A torn (unparseable) manifest is quarantined and the last-good
        backup takes over — the cost of a torn write is bounded by one
        shard checkpoint, never the campaign.  A wrong-campaign
        manifest still raises: that is a user error, not corruption.
        """
        primary = self._read_manifest_file(self.manifest_path)
        if isinstance(primary, dict):
            return self._validate_manifest(primary, self.manifest_path)
        if primary is _CORRUPT:
            self._quarantine_manifest(self.manifest_path)
        backup = self._read_manifest_file(self.manifest_backup_path)
        if isinstance(backup, dict):
            return self._validate_manifest(backup, self.manifest_backup_path)
        if backup is _CORRUPT:
            self._quarantine_manifest(self.manifest_backup_path)
        return None

    def _save_manifest(self, manifest: dict) -> None:
        manifest["updated_at"] = time.time()
        self.dir.mkdir(parents=True, exist_ok=True)
        data = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        # Promote the previous checkpoint to the backup slot first: if
        # the write below tears, the campaign falls back one shard.
        if self.manifest_path.exists():
            os.replace(self.manifest_path, self.manifest_backup_path)
        tmp = self.manifest_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(data, encoding="utf-8")
        os.replace(tmp, self.manifest_path)
        if self.faults is not None:
            self.faults.on_manifest_save(self.manifest_path)

    def _fresh_manifest(self) -> dict:
        return {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "campaign": self.campaign.name,
            "engine": self.engine,
            "seed": self.campaign.seed,
            "created_at": time.time(),
            "updated_at": time.time(),
            "stages": {},
        }

    def _fresh_stage_entry(self, stage: StageSpec) -> dict:
        return {
            "kind": stage.kind,
            "stage_hash": self._hashes[stage.name],
            "status": "pending",
            "shards": [None] * stage.shard_count,
            "artifact": f"{ARTIFACT_DIR}/{stage.name}.json",
            "artifact_sha256": None,
            "elapsed_seconds": 0.0,
            "rows": 0,
        }

    # -- artifact helpers --------------------------------------------

    def _write_artifact(self, path: Path, payload: dict) -> str:
        data = canonical_artifact_bytes(payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return sha256_bytes(data)

    def _verify_artifact(self, path: Path, expected_sha256: str | None) -> bool:
        if not expected_sha256:
            return False
        try:
            return sha256_bytes(path.read_bytes()) == expected_sha256
        except OSError:
            return False

    def _read_rows(self, path: Path) -> list[dict]:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["rows"]

    # -- execution ----------------------------------------------------

    def run(
        self,
        *,
        progress: CampaignProgress | None = None,
        stop_after: StopHook | None = None,
        require_manifest: bool = False,
        heartbeat: CampaignHeartbeat | None = None,
    ) -> CampaignResult:
        """Run the campaign to completion (or to the first stop/failure).

        Safe to invoke repeatedly: each invocation continues from the
        on-disk manifest.  ``require_manifest`` is the ``campaign
        resume`` contract — refuse to *start* a campaign, only continue
        one.  ``heartbeat`` gets one call per completed simulation
        (stage, done, total, spec label, cached) — pure logging, no
        effect on artifacts or the manifest rows.
        """
        invocation_started = time.perf_counter()
        manifest = self.load_manifest()
        if manifest is None:
            if require_manifest:
                raise CampaignError(
                    f"nothing to resume: no manifest at {self.manifest_path}"
                )
            manifest = self._fresh_manifest()
        manifest["engine"] = self.engine
        result = CampaignResult(
            campaign=self.campaign.name,
            campaign_dir=str(self.dir),
            manifest=manifest,
        )

        stages = manifest["stages"]
        done: set[str] = set()
        failed_or_blocked: set[str] = set()
        try:
            for stage in self.campaign.execution_order():
                entry = stages.get(stage.name)
                if entry is None or entry.get("stage_hash") != self._hashes[stage.name]:
                    entry = self._fresh_stage_entry(stage)
                    stages[stage.name] = entry
                if any(dep in failed_or_blocked for dep in stage.depends_on):
                    entry["status"] = "blocked"
                    failed_or_blocked.add(stage.name)
                    continue
                if entry["status"] == "complete" and self._verify_artifact(
                    self.artifact_path(stage.name), entry.get("artifact_sha256")
                ):
                    done.add(stage.name)
                    result.reused_stages.append(stage.name)
                    if progress is not None:
                        progress(
                            stage.name,
                            stage.shard_count,
                            stage.shard_count,
                            "reused",
                        )
                    continue
                if self.journal is not None:
                    self.journal.emit(
                        "campaign.stage_start",
                        trace=trace_id(self._hashes[stage.name]),
                        stage=stage.name,
                        kind=stage.kind,
                        shards=stage.shard_count,
                    )
                try:
                    self._run_stage(
                        stage, entry, manifest, progress, stop_after, heartbeat
                    )
                except CampaignInterrupted:
                    raise
                except Exception as error:  # adapter failure: record, go on
                    if self.journal is not None:
                        self.journal.emit(
                            "campaign.stage_finish",
                            trace=trace_id(self._hashes[stage.name]),
                            stage=stage.name,
                            status="failed",
                        )
                    entry["status"] = "failed"
                    entry["error"] = f"{type(error).__name__}: {error}"
                    if isinstance(error, ExecutionFailed) and error.failures:
                        # Persist which shard specs failed — `campaign
                        # status` surfaces them instead of a bare
                        # "stage failed".  Bounded: a pathological
                        # batch must not bloat the manifest.
                        entry["failed_specs"] = [
                            record.to_json() for record in error.failures[:16]
                        ]
                    failed_or_blocked.add(stage.name)
                    result.failed_stages.append(stage.name)
                    self._save_manifest(manifest)
                    if progress is not None:
                        progress(stage.name, 0, stage.shard_count, "failed")
                    continue
                if self.journal is not None:
                    self.journal.emit(
                        "campaign.stage_finish",
                        trace=trace_id(self._hashes[stage.name]),
                        stage=stage.name,
                        status="complete",
                        elapsed_s=round(entry.get("elapsed_seconds", 0.0), 6),
                    )
                done.add(stage.name)
                result.executed_stages.append(stage.name)
        finally:
            # Any stages not reached this run keep their prior status;
            # brand-new ones must still appear in the manifest.
            for stage in self.campaign.stages:
                if stage.name not in stages:
                    stages[stage.name] = self._fresh_stage_entry(stage)
            manifest["telemetry"] = self._telemetry(
                manifest, time.perf_counter() - invocation_started
            )
            self._save_manifest(manifest)
            result.report = self._write_report(manifest)
        return result

    def _telemetry(self, manifest: dict, wall_seconds: float) -> dict:
        """Executor/runtime counters rolled up from the shard entries.

        Purely observational: lives under its own manifest key, never
        participates in stage hashes, artifacts or the report card.
        """
        simulated = cache_hits = specs = 0
        retries = worker_deaths = timeouts = spec_failures = stage_retries = 0
        degraded = False
        dispatch: dict[str, int] = {}
        per_stage = {}
        for name, entry in manifest["stages"].items():
            stage_simulated = stage_hits = stage_specs = shard_retries = 0
            for shard in entry.get("shards") or []:
                if not shard:
                    continue
                stage_simulated += shard.get("simulated", 0)
                stage_hits += shard.get("cache_hits", 0)
                stage_specs += len(shard.get("spec_hashes", []))
                shard_retries += shard.get("retries", 0)
                worker_deaths += shard.get("worker_deaths", 0)
                timeouts += shard.get("timeouts", 0)
                spec_failures += shard.get("spec_failures", 0)
                degraded = degraded or shard.get("degraded", False)
                for key, value in (shard.get("dispatch") or {}).items():
                    if isinstance(value, dict):
                        dispatch[key] = dict(value)  # gauge: last shard wins
                    else:
                        dispatch[key] = dispatch.get(key, 0) + value
            simulated += stage_simulated
            cache_hits += stage_hits
            specs += stage_specs
            retries += shard_retries
            stage_retries += entry.get("retries", 0)
            per_stage[name] = {
                "status": entry.get("status"),
                "elapsed_seconds": round(entry.get("elapsed_seconds", 0.0), 6),
                "specs": stage_specs,
                "simulated": stage_simulated,
                "cache_hits": stage_hits,
                "retries": shard_retries + entry.get("retries", 0),
            }
        resilience = {
            "retries": retries,
            "stage_retries": stage_retries,
            "spec_failures": spec_failures,
            "worker_deaths": worker_deaths,
            "timeouts": timeouts,
            "degraded": degraded,
            "quarantined": self.cache.quarantined if self.cache is not None else 0,
        }
        if dispatch:
            resilience["dispatch"] = dispatch
        if self.faults is not None:
            resilience["faults_fired"] = self.faults.summary()
        return {
            "executor": self.executor.describe(),
            "jobs": getattr(self.executor, "jobs", 1),
            "wall_seconds": round(wall_seconds, 6),
            "specs": specs,
            "simulated": simulated,
            "cache_hits": cache_hits,
            "resilience": resilience,
            "stages": per_stage,
        }

    def _set_trace_context(self, trace: str) -> None:
        """Pin the shard trace on the broker-backed executor, if any.

        Walks the ``inner`` chain (telemetry wrappers) to the first
        executor exposing ``set_trace_context``; the serial executor
        has no broker and nothing to stamp, so it is skipped.
        """
        target = self.executor
        while target is not None:
            setter = getattr(target, "set_trace_context", None)
            if setter is not None:
                setter(trace)
                return
            target = getattr(target, "inner", None)

    def _run_stage(
        self,
        stage: StageSpec,
        entry: dict,
        manifest: dict,
        progress: CampaignProgress | None,
        stop_after: StopHook | None,
        heartbeat: CampaignHeartbeat | None = None,
    ) -> None:
        adapter = get_adapter(stage.kind)
        entry["status"] = "running"
        entry.pop("error", None)
        entry.pop("failed_specs", None)
        recorder = TelemetryExecutor(self.executor, heartbeat=heartbeat)
        recorder.stage = stage.name
        shard_rows: list[list[dict]] = []
        for index, params in enumerate(stage.shard_params):
            shard_entry = entry["shards"][index]
            path = self.shard_path(stage.name, index)
            if (
                shard_entry
                and shard_entry.get("status") == "complete"
                and self._verify_artifact(path, shard_entry.get("sha256"))
            ):
                shard_rows.append(self._read_rows(path))
                continue
            trace = stage_trace_id(self._hashes[stage.name], index)
            self._set_trace_context(trace)
            if self.journal is not None:
                self.journal.emit(
                    "campaign.shard_start",
                    trace=trace,
                    stage=stage.name,
                    shard=index,
                )
            started = time.perf_counter()
            attempt = 0
            while True:
                recorder.reset()
                try:
                    if self.faults is not None:
                        self.faults.fire_adapter_error(stage.name, index, attempt)
                    rows = adapter.run(
                        params,
                        seed=self.campaign.seed,
                        executor=recorder,
                        cache=self.cache,
                    )
                    break
                except CampaignInterrupted:
                    raise
                except Exception:
                    # Shard-level retry: spec-level retries already ran
                    # inside the executor, so this only re-covers
                    # adapter faults and permanently failed batches.
                    if attempt >= self.shard_retries:
                        if self.journal is not None:
                            self.journal.emit(
                                "campaign.shard_finish",
                                trace=trace,
                                stage=stage.name,
                                shard=index,
                                status="failed",
                            )
                        raise
                    attempt += 1
                    entry["retries"] = entry.get("retries", 0) + 1
                    if self.journal is not None:
                        self.journal.emit(
                            "campaign.shard_retry",
                            trace=trace,
                            stage=stage.name,
                            shard=index,
                            attempt=attempt,
                        )
                    if progress is not None:
                        progress(stage.name, index, stage.shard_count, "retry")
            digest = self._write_artifact(
                path,
                {
                    "schema": CAMPAIGN_SCHEMA_VERSION,
                    "campaign": self.campaign.name,
                    "stage": stage.name,
                    "stage_hash": self._hashes[stage.name],
                    "shard": index,
                    "params": params,
                    "rows": rows,
                },
            )
            counters = recorder.shard_record()
            entry["shards"][index] = {
                "status": "complete",
                "sha256": digest,
                "path": f"{ARTIFACT_DIR}/{SHARD_DIR}/{stage.name}.{index}.json",
                "elapsed_seconds": time.perf_counter() - started,
                "rows": len(rows),
                **counters,
            }
            shard_rows.append(rows)
            self._save_manifest(manifest)
            if self.journal is not None:
                self.journal.emit(
                    "campaign.shard_finish",
                    trace=trace,
                    stage=stage.name,
                    shard=index,
                    status="complete",
                    rows=len(rows),
                    simulated=counters["simulated"],
                    cache_hits=counters["cache_hits"],
                    elapsed_s=round(time.perf_counter() - started, 6),
                )
            if progress is not None:
                progress(stage.name, index + 1, stage.shard_count, "shard")
            if stop_after is not None and stop_after(stage.name, index):
                raise CampaignInterrupted(
                    f"campaign {self.campaign.name!r} stopped after "
                    f"{stage.name} shard {index}; manifest checkpointed at "
                    f"{self.manifest_path}"
                )
        merged = [row for rows in shard_rows for row in rows]
        digest = self._write_artifact(
            self.artifact_path(stage.name),
            {
                "schema": CAMPAIGN_SCHEMA_VERSION,
                "campaign": self.campaign.name,
                "stage": stage.name,
                "kind": stage.kind,
                "stage_hash": self._hashes[stage.name],
                "rows": merged,
            },
        )
        entry["status"] = "complete"
        entry["artifact_sha256"] = digest
        entry["rows"] = len(merged)
        entry["elapsed_seconds"] = sum(
            shard["elapsed_seconds"] for shard in entry["shards"] if shard
        )
        self._save_manifest(manifest)
        if progress is not None:
            progress(stage.name, stage.shard_count, stage.shard_count, "complete")

    # -- reporting ----------------------------------------------------

    def _stage_rows_from_disk(self, manifest: dict) -> dict[str, list[dict] | None]:
        rows: dict[str, list[dict] | None] = {}
        for stage in self.campaign.stages:
            entry = manifest["stages"].get(stage.name)
            path = self.artifact_path(stage.name)
            if (
                entry
                and entry.get("status") == "complete"
                and self._verify_artifact(path, entry.get("artifact_sha256"))
            ):
                rows[stage.name] = self._read_rows(path)
            else:
                rows[stage.name] = None
        return rows

    def _write_report(self, manifest: dict) -> ReportCard:
        baseline = load_baseline(self.baseline_path) if self.baseline_path else None
        report = build_report_card(
            self.campaign,
            manifest,
            self._stage_rows_from_disk(manifest),
            self._hashes,
            baseline=baseline,
            engine=self.engine,
        )
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / REPORT_JSON_NAME).write_text(
            json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        (self.dir / REPORT_MD_NAME).write_text(
            report.to_markdown() + "\n", encoding="utf-8"
        )
        return report

    def baseline_entries(self) -> dict[str, dict]:
        """``{stage: {stage_hash, rows}}`` for baseline (re)recording.

        Requires every stage to be complete — a partial campaign must
        not overwrite the committed reference.
        """
        manifest = self.load_manifest()
        if manifest is None:
            raise CampaignError(
                f"no campaign state at {self.dir}; run the campaign first"
            )
        rows_by_stage = self._stage_rows_from_disk(manifest)
        incomplete = sorted(
            name for name, rows in rows_by_stage.items() if rows is None
        )
        if incomplete:
            raise CampaignError(
                f"cannot record a baseline: stages {incomplete} are not "
                "complete (or their artifacts fail digest verification)"
            )
        return {
            name: {"stage_hash": self._hashes[name], "rows": rows}
            for name, rows in rows_by_stage.items()
        }

    def report(self) -> ReportCard:
        """Rebuild the report card from the on-disk state (no execution)."""
        manifest = self.load_manifest()
        if manifest is None:
            raise CampaignError(
                f"no campaign state at {self.dir}; run the campaign first"
            )
        return self._write_report(manifest)

    def status(self) -> dict | None:
        """The manifest, or ``None`` when the campaign never ran."""
        return self.load_manifest()


def run_campaign(
    campaign: CampaignSpec,
    *,
    campaign_dir: str | os.PathLike,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    baseline_path: str | os.PathLike | None = None,
    progress: CampaignProgress | None = None,
    stop_after: StopHook | None = None,
    require_manifest: bool = False,
    heartbeat: CampaignHeartbeat | None = None,
    shard_retries: int = 0,
    faults=None,
    journal=None,
) -> CampaignResult:
    """Run (or resume) ``campaign`` inside ``campaign_dir``."""
    runner = CampaignRunner(
        campaign,
        campaign_dir=campaign_dir,
        executor=executor,
        cache=cache,
        baseline_path=baseline_path,
        shard_retries=shard_retries,
        faults=faults,
        journal=journal,
    )
    return runner.run(
        progress=progress,
        stop_after=stop_after,
        require_manifest=require_manifest,
        heartbeat=heartbeat,
    )


def stage_digests(manifest: dict) -> dict[str, str | None]:
    """``{stage: artifact_sha256}`` — the resume-equivalence fingerprint.

    Two campaign runs that executed the same stage hashes must agree on
    every digest, whether or not either run was interrupted.
    """
    return {
        name: entry.get("artifact_sha256")
        for name, entry in manifest["stages"].items()
    }
