"""Small shared helpers: deterministic RNG, stats, and ASCII tables."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".rng": ("DeterministicRng",),
        ".stats": ("RunningStats", "mean", "population_std"),
        ".tables": ("format_table",),
    },
)
