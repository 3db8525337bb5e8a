"""Policy registry: the single source of truth for QoS policy names.

Registration contract (round-trip, duplicate rejection, capability
cross-checking), the structured unknown-name error, and every view that
must *derive* from the registry rather than hardcode the name list —
runtime spec mappings, CLI choices, experiment policy orders — plus the
eager validation that rejects bad names at spec-build time instead of
inside a worker.
"""

import pytest

from repro.campaign.spec import CampaignSpec, StageSpec
from repro.errors import CampaignError, ConfigurationError, UnknownPolicyError
from repro.network.config import SimulationConfig
from repro.qos import (
    GsfPolicy,
    NoQosPolicy,
    PerFlowQueuedPolicy,
    PolicyCapabilities,
    PvcPolicy,
    QosPolicy,
    available_policies,
    create_policy,
    get_policy,
    policy_entries,
    register_policy,
)
from repro.qos import registry as registry_module
from repro.runtime.spec import POLICIES, POLICY_NAMES_BY_CLASS, RunSpec

BUILTINS = ("pvc", "perflow", "noqos", "gsf")


def test_builtin_policies_registered_in_order():
    assert available_policies() == BUILTINS


def test_get_policy_entry_round_trip():
    entry = get_policy("gsf")
    assert entry.name == "gsf"
    assert entry.factory is GsfPolicy
    assert entry.capabilities == GsfPolicy.capabilities
    assert entry.summary  # every built-in carries a one-liner


def test_create_policy_returns_fresh_instances():
    first, second = create_policy("pvc"), create_policy("pvc")
    assert isinstance(first, PvcPolicy)
    assert first is not second


def test_register_policy_round_trip_and_removal():
    class ProbePolicy(QosPolicy):
        capabilities = PolicyCapabilities(preemption=True)

    entry = register_policy(
        "probe_policy", ProbePolicy,
        capabilities=PolicyCapabilities(preemption=True),
        summary="test-only",
    )
    try:
        assert "probe_policy" in available_policies()
        assert get_policy("probe_policy") is entry
        assert isinstance(create_policy("probe_policy"), ProbePolicy)
        # The live runtime views pick the new policy up with no edits.
        assert "probe_policy" in POLICIES
        assert POLICIES["probe_policy"] is ProbePolicy
        assert POLICY_NAMES_BY_CLASS[ProbePolicy] == "probe_policy"
    finally:
        registry_module._REGISTRY.pop("probe_policy")
    assert "probe_policy" not in available_policies()


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        register_policy(
            "pvc", PvcPolicy, capabilities=PvcPolicy.capabilities
        )


def test_registration_validates_name_factory_and_capabilities():
    class ProbePolicy(QosPolicy):
        capabilities = PolicyCapabilities()

    with pytest.raises(ConfigurationError, match="identifier"):
        register_policy("not a name", ProbePolicy,
                        capabilities=PolicyCapabilities())
    with pytest.raises(ConfigurationError, match="QosPolicy subclass"):
        register_policy("probe", object,  # type: ignore[arg-type]
                        capabilities=PolicyCapabilities())
    with pytest.raises(ConfigurationError, match="contradict"):
        register_policy("probe", ProbePolicy,
                        capabilities=PolicyCapabilities(preemption=True))

    class Undeclared(QosPolicy):
        pass  # inherits capabilities, declares nothing itself

    with pytest.raises(ConfigurationError, match="declare"):
        register_policy("probe", Undeclared,
                        capabilities=PolicyCapabilities())


def test_unknown_policy_error_is_structured():
    with pytest.raises(UnknownPolicyError) as excinfo:
        get_policy("bogus")
    error = excinfo.value
    assert error.name == "bogus"
    assert error.available == BUILTINS
    for name in BUILTINS:
        assert name in str(error)
    # Dual inheritance: callers catching either hierarchy see it.
    assert isinstance(error, ConfigurationError)
    assert isinstance(error, KeyError)


def test_every_registered_policy_declares_capabilities():
    entries = policy_entries()
    assert [entry.name for entry in entries] == list(BUILTINS)
    for entry in entries:
        assert isinstance(entry.capabilities, PolicyCapabilities)
        # The entry repeats the class's own declaration, never invents one.
        assert entry.capabilities == entry.factory.__dict__["capabilities"]


def test_expected_builtin_capabilities():
    assert get_policy("pvc").capabilities == PolicyCapabilities(
        preemption=True, compliance_cached=True
    )
    assert get_policy("perflow").capabilities == PolicyCapabilities(
        overflow_vcs=True
    )
    assert get_policy("noqos").capabilities == PolicyCapabilities()
    assert get_policy("gsf").capabilities == PolicyCapabilities(
        throttles_injection=True
    )


def test_runtime_views_derive_from_registry():
    assert tuple(POLICIES) == available_policies()
    assert set(POLICIES.values()) == {
        PvcPolicy, PerFlowQueuedPolicy, NoQosPolicy, GsfPolicy
    }
    assert POLICY_NAMES_BY_CLASS[GsfPolicy] == "gsf"
    assert POLICY_NAMES_BY_CLASS[PvcPolicy] == "pvc"
    with pytest.raises(KeyError):
        POLICY_NAMES_BY_CLASS[QosPolicy]


def test_cli_choices_and_experiment_orders_derive_from_registry():
    from repro.analysis.experiments import burst_fairness, pvc_vs_gsf
    from repro.cli import _policy_choices

    assert tuple(_policy_choices()) == available_policies()
    assert burst_fairness._POLICIES == available_policies()
    assert set(pvc_vs_gsf._POLICY_PAIR) <= set(available_policies())


def test_run_spec_rejects_unknown_policy_eagerly():
    with pytest.raises(UnknownPolicyError, match="registered policies"):
        RunSpec(topology="mecs", workload="uniform", rate=0.1,
                policy="bogus", config=SimulationConfig(seed=1))


@pytest.mark.parametrize("params", [
    {"policy": "bogus"},
    {"policies": ["pvc", "bogus"]},
])
def test_stage_spec_rejects_unknown_policy_eagerly(params):
    with pytest.raises(CampaignError, match="bogus"):
        StageSpec("s", "table2", params=params)


def test_stage_spec_checks_shard_overlays():
    with pytest.raises(CampaignError, match="registered policies"):
        StageSpec("s", "table2", params={"policy": "pvc"},
                  shards=({"policy": "nope"},))


def test_stage_spec_accepts_registered_policy_params():
    stage = StageSpec("s", "table2",
                      params={"policies": ["pvc", "gsf"]},
                      shards=({"policy": "noqos"},))
    campaign = CampaignSpec(name="c", description="d", stages=(stage,))
    assert campaign.stage("s").shard_params[0]["policy"] == "noqos"
