"""Declarative run specifications with stable content hashes.

A :class:`RunSpec` names *what* to simulate — topology, workload, QoS
policy, injection rate, :class:`SimulationConfig` and run mode — purely
with JSON-scalar values, so a spec can be

* canonically serialised (sorted keys, compact separators) and hashed
  (SHA-256) for the content-addressed result cache;
* pickled across process boundaries for the parallel executor;
* reconstructed bit-identically from its JSON form.

Workloads, traffic patterns and QoS policies are therefore addressed by
*registry name* rather than by callable: ``"full_column"`` +
``{"pattern": "tornado"}`` instead of a lambda.  :func:`execute_spec`
is the single entry point that turns a spec into a :class:`RunResult`
and is deterministic given the spec (same seed ⇒ same stats), which is
what makes serial and parallel execution interchangeable.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

from repro.errors import ConfigurationError, UnknownPolicyError
from repro.network.config import SimulationConfig
from repro.topologies.registry import EXTENDED_TOPOLOGY_NAMES, get_topology
from repro.traffic import patterns as _patterns
from repro.traffic import workloads as _workloads

#: Bumped when the hashed payload layout or the :class:`RunResult` stored
#: under it changes, not the simulated behaviour (2: results gained
#: ``deferrals`` and ``snapshot_sha256``); hashed, so old blobs never match.
SPEC_SCHEMA_VERSION = 2

#: Run modes understood by :func:`execute_spec`.
RUN_MODES = ("run", "window", "drain")

#: Keys accepted in :attr:`RunSpec.obs` (see the class docstring).
OBS_PARAMS = frozenset({"window", "timeline", "out_dir"})

#: Destination patterns addressable from ``workload_params["pattern"]``.
PATTERNS = {
    "uniform_random": _patterns.uniform_random,
    "tornado": _patterns.tornado,
    "nearest_neighbor": _patterns.nearest_neighbor,
    "bit_reversal": _patterns.bit_reversal,
}


def _pattern(params: dict):
    """The destination pattern ``params`` select: a hotspot ``target``,
    else the named ``pattern`` (uniform random by default)."""
    if "target" in params:
        return _patterns.hotspot(params["target"])
    name = params.get("pattern", "uniform_random")
    if name not in PATTERNS:
        raise ConfigurationError(
            f"unknown pattern {name!r}; expected one of {sorted(PATTERNS)}"
        )
    return PATTERNS[name]


@dataclass(frozen=True)
class WorkloadEntry:
    """Registry entry: the builder plus its declarative contract.

    ``rate`` is ``"required"``, ``"optional"``, or ``"forbidden"``;
    ``allowed_params``/``required_params`` bound the ``workload_params``
    keys.  Specs are validated against the contract at construction, so
    a spec that would silently simulate the wrong thing (a rate on a
    fixed-rate workload, a typo'd parameter key) is rejected instead of
    hashed and cached.
    """

    builder: object
    rate: str = "required"
    allowed_params: frozenset = frozenset()
    required_params: frozenset = frozenset()


WORKLOAD_BUILDERS = {
    "uniform": WorkloadEntry(
        lambda rate, p: _workloads.uniform_workload(rate, pattern=_pattern(p)),
        allowed_params=frozenset({"pattern", "target"}),
    ),
    "tornado": WorkloadEntry(
        lambda rate, p: _workloads.tornado_workload(rate),
    ),
    "full_column": WorkloadEntry(
        lambda rate, p: _workloads.full_column_workload(rate, pattern=_pattern(p)),
        allowed_params=frozenset({"pattern"}),
    ),
    "hotspot64": WorkloadEntry(
        lambda rate, p: _workloads.hotspot_all_injectors(
            0.05 if rate is None else rate, target=p.get("target", 0)
        ),
        rate="optional",
        allowed_params=frozenset({"target"}),
    ),
    "workload1": WorkloadEntry(
        lambda rate, p: _workloads.workload1(target=p.get("target", 0)),
        rate="forbidden",
        allowed_params=frozenset({"target"}),
    ),
    "workload2": WorkloadEntry(
        lambda rate, p: _workloads.workload2(target=p.get("target", 0)),
        rate="forbidden",
        allowed_params=frozenset({"target"}),
    ),
    "workload1_finite": WorkloadEntry(
        lambda rate, p: _workloads.workload1_finite(
            duration=p["duration"], target=p.get("target", 0)
        ),
        rate="forbidden",
        allowed_params=frozenset({"duration", "target"}),
        required_params=frozenset({"duration"}),
    ),
    "workload2_finite": WorkloadEntry(
        lambda rate, p: _workloads.workload2_finite(
            duration=p["duration"], target=p.get("target", 0)
        ),
        rate="forbidden",
        allowed_params=frozenset({"duration", "target"}),
        required_params=frozenset({"duration"}),
    ),
    "single_flow": WorkloadEntry(
        lambda rate, p: _workloads.single_flow_workload(
            0.9 if rate is None else rate,
            node=p.get("node", 0),
            dst=p.get("dst", 7),
            flits=p.get("flits", 1),
        ),
        rate="optional",
        allowed_params=frozenset({"node", "dst", "flits"}),
    ),
    # -- scenario workloads (repro.scenarios) -------------------------
    "bursty": WorkloadEntry(
        lambda rate, p: _scenario_workloads().bursty_workload(
            rate,
            pattern=_pattern(p),
            on_cycles=p.get("on_cycles", 64),
            off_cycles=p.get("off_cycles", 192),
        ),
        allowed_params=frozenset({"pattern", "target", "on_cycles", "off_cycles"}),
    ),
    "pareto_bursty": WorkloadEntry(
        lambda rate, p: _scenario_workloads().pareto_workload(
            rate,
            pattern=_pattern(p),
            alpha=p.get("alpha", 1.5),
            on_scale=p.get("on_scale", 8),
            off_scale=p.get("off_scale", 24),
        ),
        allowed_params=frozenset(
            {"pattern", "target", "alpha", "on_scale", "off_scale"}
        ),
    ),
    "phased": WorkloadEntry(
        lambda rate, p: _scenario_workloads().phased_workload(
            _scenario_workloads().parse_phases(p["phases"])
        ),
        rate="forbidden",
        allowed_params=frozenset({"phases"}),
        required_params=frozenset({"phases"}),
    ),
    "closed_loop": WorkloadEntry(
        lambda rate, p: _scenario_workloads().closed_loop_workload(
            server=p.get("server", 0),
            outstanding=p.get("outstanding", 4),
            think_cycles=p.get("think_cycles", 0),
            request_flits=p.get("request_flits", 1),
            reply_flits=p.get("reply_flits", 4),
            requests=p.get("requests"),
        ),
        rate="forbidden",
        allowed_params=frozenset(
            {
                "server",
                "outstanding",
                "think_cycles",
                "request_flits",
                "reply_flits",
                "requests",
            }
        ),
    ),
    "replay": WorkloadEntry(
        lambda rate, p: _scenario_workloads().replayed_workload(_read_trace(p)),
        rate="forbidden",
        allowed_params=frozenset({"path", "sha256", "source"}),
    ),
}

#: The subset of :data:`WORKLOAD_BUILDERS` added by the scenarios
#: subsystem, with one-line descriptions for ``repro scenario list``.
SCENARIO_WORKLOADS = {
    "bursty": "on/off (MMPP) bursts; rate = peak flits/cycle during bursts",
    "pareto_bursty": "self-similar bursts with Pareto on/off lengths",
    "phased": "multi-phase schedule (rate/pattern/weights per epoch)",
    "closed_loop": "request-reply clients with bounded outstanding requests",
    "replay": "re-inject a JSONL trace (path + sha256) or a source spec's arrivals",
}


def _scenario_workloads():
    # Imported lazily to keep the layering acyclic: repro.scenarios
    # imports this module for the pattern registry.
    from repro.scenarios import workloads

    return workloads


def _read_trace(params: dict):
    from repro.scenarios.tracefmt import read_trace

    if "source" in params:  # execute_spec captures the source run
        raise ConfigurationError("a replay of a source spec runs only in execute_spec")
    return read_trace(params["path"], expect_sha256=params["sha256"])


def _replay_source(spec: "RunSpec") -> "RunSpec | None":
    """The live spec whose arrivals a replay re-injects, named by its
    ``source`` param (that spec's canonical JSON); else ``None``."""
    if spec.workload != "replay":
        return None
    params = dict(spec.workload_params)
    if set(params) not in ({"path", "sha256"}, {"source"}):
        raise ConfigurationError("a replay takes 'path' + 'sha256', or a 'source' spec")
    if "source" not in params:
        return None
    try:
        source = RunSpec.from_json(json.loads(params["source"]))
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"replay source is not a RunSpec: {error}") from error
    if source.obs or source.workload == "replay":
        raise ConfigurationError("a replay's source must carry no obs and be no replay")
    return source


class _PolicyFactories(Mapping):
    """Live name → factory view over :mod:`repro.qos.registry`.

    Mapping-shaped so every historical ``POLICIES`` call site —
    ``name in POLICIES``, ``POLICIES[name]()``, ``sorted(POLICIES)`` —
    keeps working while the policy registry stays the single source of
    truth.  Lookups of unregistered names raise
    :class:`~repro.errors.UnknownPolicyError` (also a ``KeyError``, so
    mapping semantics hold).  Imports lazily: the qos package imports
    nothing from runtime, and keeping the indirection inside the
    methods avoids ordering surprises if it ever does.
    """

    def __getitem__(self, name: str):
        from repro.qos.registry import get_policy

        return get_policy(name).factory

    def __iter__(self):
        from repro.qos.registry import available_policies

        return iter(available_policies())

    def __len__(self) -> int:
        from repro.qos.registry import available_policies

        return len(available_policies())


class _PolicyNamesByClass(Mapping):
    """Live factory-class → name view over the policy registry.

    Serves legacy call sites passing policy classes (e.g.
    ``policy_factory=PvcPolicy``) so they can be routed through the
    runtime by name.
    """

    def __getitem__(self, factory):
        from repro.qos.registry import policy_name_of

        name = policy_name_of(factory)
        if name is None:
            raise KeyError(factory)
        return name

    def __iter__(self):
        from repro.qos.registry import policy_entries

        return (entry.factory for entry in policy_entries())

    def __len__(self) -> int:
        from repro.qos.registry import policy_entries

        return len(policy_entries())


#: Registered QoS policies by name (live registry view).
POLICIES = _PolicyFactories()

#: Reverse map so legacy call sites passing policy classes (e.g.
#: ``policy_factory=PvcPolicy``) can be routed through the runtime.
POLICY_NAMES_BY_CLASS = _PolicyNamesByClass()

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _freeze_params(value, label: str) -> tuple[tuple[str, object], ...]:
    """Normalise a params mapping to a sorted, hashable tuple of items."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = tuple(value)
    frozen = []
    for key, item in sorted(items):
        if not isinstance(key, str):
            raise ConfigurationError(f"{label} keys must be strings")
        if not isinstance(item, _SCALAR_TYPES):
            raise ConfigurationError(
                f"{label}[{key!r}] must be a JSON scalar, got {type(item).__name__}"
            )
        frozen.append((key, item))
    return tuple(frozen)


@dataclass(frozen=True)
class RunSpec:
    """One simulation, described declaratively.

    Attributes
    ----------
    topology:
        Registry name (:data:`EXTENDED_TOPOLOGY_NAMES`).
    topology_params:
        Extra constructor keywords (e.g. ``{"replica_policy":
        "per_flow"}`` for replicated meshes), JSON scalars only.
    workload:
        Name in :data:`WORKLOAD_BUILDERS`.
    workload_params:
        Builder keywords (e.g. ``{"pattern": "tornado"}``).
    rate:
        Per-injector rate in flits/cycle for rate-parameterised
        workloads; ``None`` for fixed-rate workloads (workload1/2).
    policy:
        QoS policy name in :data:`POLICIES`.
    config:
        Full :class:`SimulationConfig` (carries the seed).
    mode / cycles / warmup:
        ``"run"`` → ``run(cycles, warmup=warmup)``;
        ``"window"`` → ``run_window(warmup, cycles)`` (``cycles`` is the
        measured window length);
        ``"drain"`` → ``run_until_drained(max_cycles=cycles)``.
    obs:
        Observability config (:data:`OBS_PARAMS`): ``window`` (cycle
        width of the metrics windows), ``timeline`` (also collect the
        packet-lifecycle Chrome trace) and ``out_dir`` (where
        :func:`execute_spec` writes the artifacts).  Empty (the
        default) means probes stay off — and the key is then *omitted*
        from :meth:`to_json`, so existing content hashes, cache entries
        and campaign stage hashes are untouched.  Probes never change
        results (they are observational, enforced by the golden suite),
        but obs config does select different run *artifacts*, so when
        set it participates in the hash like any other field.
    """

    topology: str
    workload: str
    rate: float | None = None
    workload_params: tuple[tuple[str, object], ...] = ()
    topology_params: tuple[tuple[str, object], ...] = ()
    policy: str = "pvc"
    config: SimulationConfig = field(default_factory=SimulationConfig)
    mode: str = "run"
    cycles: int = 5000
    warmup: int = 0
    obs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workload_params",
            _freeze_params(self.workload_params, "workload_params"),
        )
        object.__setattr__(
            self, "topology_params",
            _freeze_params(self.topology_params, "topology_params"),
        )
        object.__setattr__(self, "obs", _freeze_params(self.obs, "obs"))
        obs = dict(self.obs)
        unknown = set(obs) - OBS_PARAMS
        if unknown:
            raise ConfigurationError(
                f"unknown obs params {sorted(unknown)}; "
                f"allowed: {sorted(OBS_PARAMS)}"
            )
        if "window" in obs and (
            not isinstance(obs["window"], int)
            or isinstance(obs["window"], bool)
            or obs["window"] <= 0
        ):
            raise ConfigurationError("obs 'window' must be a positive integer")
        if "timeline" in obs and not isinstance(obs["timeline"], bool):
            raise ConfigurationError("obs 'timeline' must be a boolean")
        if "out_dir" in obs and not isinstance(obs["out_dir"], str):
            raise ConfigurationError("obs 'out_dir' must be a string path")
        if self.topology not in EXTENDED_TOPOLOGY_NAMES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {EXTENDED_TOPOLOGY_NAMES}"
            )
        entry = WORKLOAD_BUILDERS.get(self.workload)
        if entry is None:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {sorted(WORKLOAD_BUILDERS)}"
            )
        if entry.rate == "required" and self.rate is None:
            raise ConfigurationError(f"workload {self.workload!r} requires a rate")
        if entry.rate == "forbidden" and self.rate is not None:
            raise ConfigurationError(
                f"workload {self.workload!r} has fixed per-flow rates; "
                "rate must be None"
            )
        given = {key for key, _ in self.workload_params}
        unknown = given - entry.allowed_params
        if unknown:
            raise ConfigurationError(
                f"workload {self.workload!r} does not accept params "
                f"{sorted(unknown)}; allowed: {sorted(entry.allowed_params)}"
            )
        missing = entry.required_params - given
        if missing:
            raise ConfigurationError(
                f"workload {self.workload!r} requires params {sorted(missing)}"
            )
        params = dict(self.workload_params)
        if {"pattern", "target"} <= set(params):
            raise ConfigurationError(
                "give either 'pattern' or a hotspot 'target', not both"
            )
        # Validate the name eagerly, not in a worker; hotspot() bounds-checks
        # a target, so a typo'd node cannot corrupt a worker's routes.
        _pattern(params)
        if self.workload == "phased":
            _scenario_workloads().parse_phases(params["phases"])
        _replay_source(self)
        if self.policy not in POLICIES:
            raise UnknownPolicyError(self.policy, tuple(POLICIES))
        if self.mode not in RUN_MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; expected one of {RUN_MODES}"
            )
        if self.cycles <= 0:
            raise ConfigurationError("cycles must be positive")
        if self.warmup < 0:
            raise ConfigurationError("warmup must be non-negative")

    # -- serialisation ------------------------------------------------

    def to_json(self) -> dict:
        """Plain-data form; key order is irrelevant (hashing sorts).

        ``obs`` appears only when set: a spec without observability
        serialises (and therefore hashes) exactly as it did before the
        field existed, keeping every pre-obs cache entry and campaign
        stage hash valid.
        """
        data = {
            "schema": SPEC_SCHEMA_VERSION,
            "topology": self.topology,
            "topology_params": dict(self.topology_params),
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "rate": self.rate,
            "policy": self.policy,
            "config": asdict(self.config),
            "mode": self.mode,
            "cycles": self.cycles,
            "warmup": self.warmup,
        }
        if self.obs:
            data["obs"] = dict(self.obs)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_json` (schema-checked)."""
        if data.get("schema") != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"spec schema {data.get('schema')!r} != {SPEC_SCHEMA_VERSION}"
            )
        return cls(
            topology=data["topology"],
            topology_params=_freeze_params(data["topology_params"], "topology_params"),
            workload=data["workload"],
            workload_params=_freeze_params(data["workload_params"], "workload_params"),
            rate=data["rate"],
            policy=data["policy"],
            config=SimulationConfig(**data["config"]),
            mode=data["mode"],
            cycles=data["cycles"],
            warmup=data["warmup"],
            obs=_freeze_params(data.get("obs", {}), "obs"),
        )

    def canonical_json(self) -> str:
        """Deterministic serialisation: sorted keys, compact separators."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON — the cache key."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @cached_property
    def base_hash(self) -> str:
        """Content hash with the ``obs`` config stripped.

        The identity of the *simulated run* — obs config selects what
        gets recorded, never what happens.  Obs artifact files are
        named by this hash, so ``repro obs timeline`` can regenerate a
        recorded run's trace (with different obs params) into the same
        file stem, and the names match the probe-free run's cache key.
        """
        payload = self.to_json()
        payload.pop("obs", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for progress displays."""
        rate = "" if self.rate is None else f"@{self.rate:g}"
        return f"{self.topology}/{self.workload}{rate}/{self.mode}"


@dataclass(frozen=True)
class RunResult:
    """The scalar outcome of one simulation (everything figures need).

    Equality is exact — serial and parallel execution of the same spec
    produce ``RunResult`` objects that compare equal, and the JSON
    round-trip through the cache preserves every field bit-for-bit
    (Python's float repr round-trips).  ``deferrals`` is the policy's
    ``deferral_count()`` (0 without one); ``snapshot_sha256`` digests the
    run's full ``NetworkStats.snapshot()``.
    """

    spec_hash: str
    mode: str
    mean_latency: float
    delivered_flits: int
    delivered_packets: int
    created_packets: int
    accepted_ratio: float
    preemption_events: int
    preempted_packet_fraction: float
    wasted_hop_fraction: float
    replays: int
    completion_cycle: int = 0
    window_flits_per_flow: tuple[int, ...] = ()
    deferrals: int = 0
    snapshot_sha256: str = ""

    def to_json(self) -> dict:
        data = asdict(self)
        data["window_flits_per_flow"] = list(self.window_flits_per_flow)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunResult":
        names = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        kwargs["window_flits_per_flow"] = tuple(kwargs.get("window_flits_per_flow", ()))
        return cls(**kwargs)


def build_flows(spec: RunSpec, trace=None):
    """Materialise the spec's workload into :class:`FlowSpec` objects;
    a replay of a source spec re-injects ``trace``, its source's capture."""
    if trace is not None:
        return _scenario_workloads().replayed_workload(trace)
    entry = WORKLOAD_BUILDERS[spec.workload]
    return entry.builder(spec.rate, dict(spec.workload_params))


#: What :func:`execute_spec` imports on first use: the engine, the policy
#: registry, the scenario builders, the replay capture and the obs collectors.
#: A parallel executor imports them before it forks, so no agent compiles them.
EXECUTE_SPEC_IMPORTS = (
    "repro.network.engine",
    "repro.qos.registry",
    "repro.scenarios.workloads",
    "repro.network.trace",
    "repro.obs.collect",
)


def _simulate(spec: RunSpec, flows, subscriber=None):
    """Run ``flows`` as ``spec`` says, ``subscriber`` (a probe subscriber)
    attached: ``(simulator, stats, completion cycle)``."""
    from repro.network.engine import ColumnSimulator

    topology = get_topology(spec.topology, **dict(spec.topology_params))
    simulator = ColumnSimulator(
        topology.build(spec.config), flows, POLICIES[spec.policy](), spec.config
    )
    if subscriber is not None:
        subscriber.attach(simulator)
    completion = 0
    if spec.mode == "run":
        stats = simulator.run(spec.cycles, warmup=spec.warmup)
    elif spec.mode == "window":
        stats = simulator.run_window(spec.warmup, spec.cycles)
    else:  # drain
        completion = simulator.run_until_drained(max_cycles=spec.cycles)
        stats = simulator.stats
    return simulator, stats, completion


def capture_run(spec: RunSpec):
    """Run ``spec`` with an injection capture; its arrivals as a trace."""
    from repro.network.trace import InjectionCapture
    from repro.scenarios.tracefmt import capture_to_trace, snapshot_digest

    capture = InjectionCapture()
    simulator, stats, _ = _simulate(spec, build_flows(spec), capture)
    return capture_to_trace(capture, simulator.flows, meta={
        "source": spec.to_json(),
        "snapshot_sha256": snapshot_digest(stats.snapshot()),
    })


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion (the unit of work for executors).

    Module-level (hence picklable) so :class:`ProcessPoolExecutor`
    workers can receive it directly.

    A replay of a source spec re-injects its source run's captured arrivals.

    When the spec carries obs config, an
    :class:`~repro.obs.collect.ObsSession` is attached before the run
    and its artifacts are written to ``obs["out_dir"]`` afterwards,
    named by the spec's :attr:`~RunSpec.base_hash` — the result itself
    is bit-identical either way (probes are observational).
    """
    from repro.scenarios.tracefmt import snapshot_digest

    source = _replay_source(spec)
    flows = build_flows(spec, None if source is None else capture_run(source))
    obs_session = None
    obs_params = dict(spec.obs)
    if obs_params:
        from repro.obs.collect import DEFAULT_WINDOW, ObsSession

        obs_session = ObsSession(
            window=obs_params.get("window", DEFAULT_WINDOW),
            timeline=obs_params.get("timeline", False),
        )
    simulator, stats, completion = _simulate(spec, flows, obs_session)
    digest = snapshot_digest(stats.snapshot())
    if obs_session is not None:
        obs_session.finalize(simulator.cycle)
        out_dir = obs_params.get("out_dir")
        if out_dir:
            obs_session.write(
                out_dir,
                stem=f"{spec.base_hash[:12]}.",
                spec_json=spec.to_json(),
                label=spec.label(),
                snapshot_sha256=digest,
                spec_hash=spec.base_hash,
            )
    return RunResult(
        spec_hash=spec.content_hash,
        mode=spec.mode,
        mean_latency=stats.mean_latency,
        delivered_flits=stats.delivered_flits,
        delivered_packets=stats.delivered_packets,
        created_packets=stats.created_packets,
        accepted_ratio=stats.offered_accepted_ratio,
        preemption_events=stats.preemption_events,
        preempted_packet_fraction=stats.preempted_packet_fraction,
        wasted_hop_fraction=stats.wasted_hop_fraction,
        replays=stats.replays,
        completion_cycle=completion,
        window_flits_per_flow=tuple(stats.window_flits_per_flow),
        deferrals=getattr(simulator.policy, "deferral_count", lambda: 0)(),
        snapshot_sha256=digest,
    )
