"""Shared fixtures: fast simulator builders and canonical configs.

Every test session gets its own result cache: ``REPRO_CACHE_DIR``
points at a session temp dir, so no test reads or writes the user's
``~/.cache/repro`` (a warm home cache would let a CLI test pass without
simulating).

Also registers hypothesis profiles.  CI exports
``HYPOTHESIS_PROFILE=ci`` to get a pinned, derandomized profile (fixed
seed derivation, no deadline) so property tests cannot flake on slow
shared runners; locally the default profile keeps random exploration.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

from helpers import build_simulator  # noqa: E402
from repro.network.config import SimulationConfig  # noqa: E402
from repro.topologies.registry import TOPOLOGY_NAMES  # noqa: E402

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def _session_result_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("result-cache")))
        yield


@pytest.fixture
def fast_config() -> SimulationConfig:
    """Short-frame config used by most engine tests."""
    return SimulationConfig(frame_cycles=2000, seed=7)


@pytest.fixture(params=TOPOLOGY_NAMES)
def topology_name(request) -> str:
    """Parametrises a test across all five shared-region topologies."""
    return request.param


@pytest.fixture
def make_simulator():
    """Fixture wrapper around :func:`build_simulator`."""
    return build_simulator
