"""The discrete-event scale path: event-driven scheduling, pooled namespaces,
pinned replay fingerprints.

The scale-out refactor (PR 6) must not disturb a single byte of the existing
lockstep traces — the golden fingerprints below were recorded before the
scheduler refactor and pin that guarantee.  The new event-driven mode has the
same determinism contract (same spec, same trace bytes) and runs under the
same four invariant checkers.
"""

from __future__ import annotations

import pytest

from repro.scenarios import FAULT_MIXES, ScenarioSpec, run_scenario
from repro.scenarios.runner import ScenarioRunner

#: Trace fingerprints of the seed-101 lockstep sweep (3 agents x 10 ops),
#: recorded at PR 4.  A change here means existing replay commands no longer
#: reproduce their traces — that is a breaking change, not a refactor.
GOLDEN_LOCKSTEP = {
    "fault-free": "a18a14e6ca22872bd2c5a13d35db8c420fb829d9b5ec714c42948071b37bc0d1",
    "crash-hang": "fda090321762f2602bda5a7d7a5a17027c64096861b364090f34ddbe10fedae6",
    "corrupt-byzantine": "17fce7b259e95635df43352455bf11c56be2d8ff112e0176f45cd422c3b387b8",
    "degraded-outage": "86299db26465e31ba786ee51b536ed18e98ada47c901eecb49a79a35430e971a",
    # Recorded at PR 8 together with the weighted-quorum mix itself.
    "weighted-byzantine": "acc0ae4d0ad0f353da3874040c787b7d0623f52d4f8e1c959fbc9acbc66d8de3",
    # Recorded at PR 9 together with the transactional mixes themselves.
    "txn": "8e4724dc4705bc5d476e8777445db5309318a1714efa06ece41ccbf4e9c9bf63",
    "txn-crash-restart": "b86da0ec3e0dc4be904bb5e86e2e2a3a143f39f1ae83672039b2591d87537cee",
    "txn-partition": "cc7b0d05fd604cb3ad9f997fa9313f5223f248da0b53353dcde4dd6cb7be7e99",
}


@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_lockstep_fingerprints_are_pinned(mix: str) -> None:
    result = run_scenario(101, mix=mix, agents=3, ops_per_agent=10)
    assert result.fingerprint == GOLDEN_LOCKSTEP[mix], (
        f"lockstep replay fingerprint changed for {mix}: byte-identical "
        f"replay of pre-refactor traces is broken")


def _scale_spec(**overrides) -> ScenarioSpec:
    defaults = dict(seed=23, agents=20, files=200, ops_per_agent=4,
                    directories=8, partitions=2)
    defaults.update(overrides)
    return ScenarioSpec.generate_scale(**defaults)


def test_event_driven_replay_is_byte_identical() -> None:
    spec = _scale_spec()
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    assert first.fingerprint == second.fingerprint
    assert first.trace.to_jsonl() == second.trace.to_jsonl()


def test_pooled_scale_run_upholds_all_invariants() -> None:
    result = ScenarioRunner(_scale_spec()).run()
    assert result.ok, "\n" + result.report()
    # The pool really was primed (one setup event, no per-file write traffic)
    # and the workload ran against it.
    setup = [e for e in result.trace.by_kind("setup_done")]
    assert len(setup) == 1 and setup[0].fields["files"] == 200
    assert result.stats["events"] > 0 and result.stats["quorum_calls"] > 0


def test_replica_fault_on_partitioned_coordination_runs_clean() -> None:
    # ``replica:i`` faults apply to replica i of every coordination
    # partition; the partitioned facade itself has no replicas to crash.
    spec = ScenarioSpec.generate_scale(seed=1, agents=20, files=200,
                                       ops_per_agent=10, mix="crash-hang")
    result = ScenarioRunner(spec).run()
    assert result.ok, "\n" + result.report()
    assert any(e.fields["target"].startswith("replica:")
               for e in result.trace.by_kind("fault_start"))


def test_scale_spec_shape() -> None:
    spec = _scale_spec(agents=30, partitions=4)
    assert len(spec.agents) == 30
    assert spec.scheduling == "event-driven"
    assert spec.pooled and spec.partitions == 4
    assert spec.dispatch is not None and spec.dispatch.coalesce_instant
    # Generated agent names extend past the fixed roster without collisions.
    names = [a.name for a in spec.agents]
    assert len(set(names)) == 30
    config = spec.config()
    assert config.coordination_partitions == 4
    assert config.encrypt_data is False
    assert config.gc.enabled is False


def test_event_driven_mode_differs_from_lockstep_but_both_hold() -> None:
    base = dict(seed=31, mix="fault-free", agents=4, ops_per_agent=6)
    lockstep = run_scenario(**base)
    spec = ScenarioSpec.generate(**base)
    event_driven = ScenarioRunner(
        spec.__class__(**{**spec.__dict__, "scheduling": "event-driven"})).run()
    assert lockstep.ok and event_driven.ok
    # Different interleavings, same guarantees.
    assert lockstep.fingerprint != event_driven.fingerprint


def test_scale_spec_rejects_bad_sizing() -> None:
    with pytest.raises(ValueError):
        ScenarioSpec.generate_scale(seed=1, agents=0)
    with pytest.raises(ValueError):
        ScenarioSpec.generate_scale(seed=1, files=0)
    with pytest.raises(ValueError):
        ScenarioSpec.generate_scale(seed=1, directories=0)
