"""Parameter-dict plumbing shared by the campaign stage adapters.

Campaign stages carry their budgets as plain JSON mappings (hashed
canonically by :mod:`repro.campaign.spec`), and every experiment module
exposes a ``stage_rows`` adapter that consumes such a mapping.  The
helper here gives all adapters the same contract: defaults are
declarative, unknown keys are rejected eagerly (a typo'd budget key
fails the stage instead of silently running the default), and list
values are normalised to tuples, the form every module's
``STAGE_DEFAULTS`` spells them in.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import ConfigurationError


def resolve_stage_params(
    params: Mapping | None, defaults: Mapping, label: str
) -> dict:
    """Merge ``params`` over ``defaults``; reject unknown keys.

    Lists become tuples (stage params arrive from JSON, the defaults
    are tuples); scalars pass through untouched.
    """
    merged = {key: _normalise(value) for key, value in defaults.items()}
    unknown = []
    for key, value in (params or {}).items():
        if key not in merged:
            unknown.append(key)
            continue
        merged[key] = _normalise(value)
    if unknown:
        raise ConfigurationError(
            f"{label}: unknown stage params {sorted(unknown)}; "
            f"allowed: {sorted(merged)}"
        )
    return merged


def _normalise(value):
    if isinstance(value, list):
        return tuple(_normalise(item) for item in value)
    return value
