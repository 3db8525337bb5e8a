"""Traffic scenarios: bursty processes, trace replay, closed-loop clients.

Three families beyond the paper's open-loop Bernoulli workloads:

* **Injection processes** (:mod:`repro.scenarios.injection`) — on/off
  (MMPP-style) bursts, self-similar Pareto bursts, and multi-phase
  schedules that change rate/pattern/priority at epoch boundaries.
  Each exposes the ``next_emission(cycle, rng)`` contract the
  activity-tracked engine arms its injectors with, so idle-cycle
  skipping keeps working.
* **Record and replay** (:mod:`repro.scenarios.tracefmt`) — a versioned
  JSONL trace of every packet creation; re-injecting a trace reproduces
  the source run bit-exactly.
* **Closed-loop clients** (:func:`closed_loop_workload`) — bounded
  outstanding requests with replies generated at the destination, for
  saturation studies under backpressure.

See ``docs/scenarios.md`` for the contracts and the file format.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".injection": (
            "BernoulliProcess",
            "InjectionProcess",
            "OnOffProcess",
            "ParetoBurstProcess",
            "Phase",
            "PhasedProcess",
        ),
        ".tracefmt": (
            "TRACE_FORMAT",
            "TRACE_VERSION",
            "ScenarioTrace",
            "TraceFlow",
            "capture_to_trace",
            "file_sha256",
            "read_trace",
            "snapshot_digest",
            "write_trace",
        ),
        ".workloads": (
            "bursty_workload",
            "closed_loop_workload",
            "pareto_workload",
            "parse_phases",
            "phased_workload",
            "replayed_workload",
        ),
    },
)
