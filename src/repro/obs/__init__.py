"""Observability: probes, windowed metrics, timelines, run telemetry.

The layer has four parts, all off by default and free when off:

* :mod:`repro.obs.probes` — the :class:`ProbeBus` the engines emit
  into, guarded by one ``is not None`` check per hook site;
* :mod:`repro.obs.collect` — collectors over the bus
  (:class:`WindowedMetrics`, :class:`LifecycleCollector`,
  :class:`EngineActivityCollector`) and the :class:`ObsSession`
  bundle the runtime attaches when a spec carries obs config;
* :mod:`repro.obs.metricsfmt` / :mod:`repro.obs.chrometrace` — the
  versioned JSONL metrics format and the Perfetto-loadable Chrome
  trace exporter;
* :mod:`repro.obs.telemetry` — :class:`TelemetryExecutor` and the
  campaign ``--progress`` heartbeat;
* :mod:`repro.obs.fleet` — dispatch-layer observability: structured
  event journals, content-hash-derived trace correlation, fleet
  Chrome traces and the ``repro fleet`` / ``repro campaign watch``
  dashboards.

See ``docs/observability.md`` for the probe catalogue and schemas,
and ``docs/fleet.md`` for the journal format and span derivation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".chrometrace": (
            "build_fleet_trace_events",
            "build_trace_events",
            "validate_chrome_trace",
            "write_chrome_trace",
        ),
        ".fleet.fleetcollect": (
            "FleetTimeline",
            "check_timeline",
            "export_fleet_trace",
            "merge_journals",
        ),
        ".fleet.journal": (
            "JournalDoc",
            "JournalWriter",
            "journal_digest",
            "read_journal",
            "strip_wall",
        ),
        ".collect": (
            "DEFAULT_WINDOW",
            "EngineActivityCollector",
            "LifecycleCollector",
            "ObsSession",
            "WindowedMetrics",
        ),
        ".metricsfmt": (
            "DEFAULT_LATENCY_BUCKETS",
            "METRICS_FORMAT",
            "METRICS_VERSION",
            "MetricsDoc",
            "read_metrics",
            "read_run",
            "write_metrics",
            "write_run",
        ),
        ".probes": ("ENGINE_EVENTS", "PACKET_EVENTS", "PROBE_EVENTS", "ProbeBus"),
        ".report": ("discover_metrics", "render_metrics_report", "render_report"),
        ".telemetry": (
            "TELEMETRY_FORMAT",
            "TELEMETRY_VERSION",
            "TelemetryExecutor",
            "heartbeat_printer",
            "write_runtime_telemetry",
        ),
    },
)
