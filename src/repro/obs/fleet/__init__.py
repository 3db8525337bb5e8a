"""``repro.obs.fleet`` — journals, traces and dashboards for the fleet.

The dispatch layer (PR 8) made campaigns multi-host; this package makes
the fleet observable without touching a single result byte:

* :mod:`~repro.obs.fleet.journal` — a versioned append-only JSONL
  event journal, one schema-validated record per broker / worker /
  campaign lifecycle event, deterministic after wall-clock stripping;
* :mod:`~repro.obs.fleet.spans` — content-hash-derived trace and span
  ids, propagated in-band through the dispatch protocol;
* :mod:`~repro.obs.fleet.fleetcollect` — merge per-actor journals into
  one causally-ordered timeline, check it for orphan spans, export it
  as a Chrome/Perfetto trace;
* :mod:`~repro.obs.fleet.monitor` — plain-text live dashboards behind
  ``repro fleet status`` and ``repro campaign watch``.

Like the PR 6 probe bus, journaling is zero-overhead when off: every
hook site is a ``journal is not None`` guard on a ``None`` default,
and enabling it is bit-neutral to results and stage digests.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".fleetcollect": (
            "FleetTimeline",
            "check_timeline",
            "export_fleet_trace",
            "journal_paths",
            "merge_journals",
        ),
        ".journal": (
            "JOURNAL_EVENTS",
            "JOURNAL_FORMAT",
            "JOURNAL_VERSION",
            "JournalDoc",
            "JournalWriter",
            "journal_digest",
            "read_journal",
            "strip_wall",
        ),
        ".monitor": ("render_campaign_dashboard", "render_fleet_dashboard", "watch"),
        ".spans": (
            "batch_trace_id",
            "lease_span_id",
            "span_id",
            "stage_trace_id",
            "trace_id",
        ),
    },
)
