"""Interleaving exploration wired through the fuzzer.

Three layers under test: the focused schedule sweep (``repro fuzz
--schedules N``) with its shrink → repro-file → replay pipeline, the
executor's phase-A schedule differential (``schedule_divergence``
classification + recorded trace), and the ``interleave`` actor /
scenario-shrinker integration.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.failures import FailureScenario
from repro.fuzz import (
    CLASSIFICATIONS,
    FuzzScenario,
    FuzzShape,
    InterleavingSpec,
    compose_scenario,
    execute_scenario,
    replay_interleaving,
    run_schedule,
    scenario_from_dict,
    scenario_to_dict,
    shrink,
    sweep,
)
from repro.fuzz.actors import InterleavingActor, ActorContext
from repro.fuzz.executor import classify
from repro.fuzz.interleave import DEADLOCK, finding_to_dict

RACE = InterleavingSpec(workload="race-demo")


class TestSpec:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            InterleavingSpec(workload="nope")

    def test_dict_round_trip(self):
        spec = InterleavingSpec(workload="fti", nodes=2, app_per_node=2)
        assert InterleavingSpec.from_dict(spec.to_dict()) == spec


@pytest.fixture(scope="module")
def race_sweep():
    return sweep(RACE, n_schedules=24)


class TestRaceDemoSweep:
    def test_finds_the_deadlock_schedules(self, race_sweep):
        assert race_sweep.n_schedules == 24
        assert race_sweep.findings, "no deadlocking schedule in 24 seeds"
        for finding in race_sweep.findings:
            assert finding.kind == DEADLOCK
            assert finding.blocked == (0,)
            assert finding.trace, "finding lost its schedule trace"

    def test_sweep_is_deterministic(self, race_sweep):
        again = sweep(RACE, n_schedules=24)
        assert again.findings == race_sweep.findings
        assert again.permuted_batches == race_sweep.permuted_batches

    def test_shrunk_trace_is_minimal_and_still_deadlocks(self, race_sweep):
        finding = race_sweep.findings[0]
        # One permuted batch suffices for the race; the shrinker must
        # find that minimal schedule.
        assert len(finding.trace) == 1
        from repro.simmpi import ScheduleTrace

        outcome = run_schedule(RACE, ScheduleTrace.from_entries(finding.trace))
        assert outcome.status == "deadlock"
        assert outcome.blocked == (0,)

    def test_repro_file_replays_exactly(self, race_sweep, tmp_path):
        finding = race_sweep.findings[0]
        data = finding_to_dict(RACE, finding)
        path = tmp_path / "schedule_repro.json"
        path.write_text(json.dumps(data))
        observed, expected = replay_interleaving(
            json.loads(path.read_text())
        )
        assert observed == expected == DEADLOCK

    def test_replay_mismatch_exits_nonzero_via_cli(self, race_sweep, tmp_path):
        from repro.cli import main

        finding = race_sweep.findings[0]
        data = finding_to_dict(RACE, finding)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(data))
        assert main(["fuzz", "--replay", str(good)]) == 0
        data["classification"] = "schedule_mismatch"
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(data))
        assert main(["fuzz", "--replay", str(stale)]) == 1

    def test_bench_record_shape(self, race_sweep):
        record = race_sweep.to_record()
        assert record["section"] == "interleaving"
        assert record["schedules"] == 24
        assert record["seed_range"] == [0, 23]
        assert record["findings"].get(DEADLOCK) == len(race_sweep.findings)


class TestFTISweep:
    def test_fti_control_traffic_is_schedule_invariant(self):
        """The fig5 world has no wildcard arbitration races: every
        explored schedule must match canonical bit for bit (this is the
        property the nightly sweep hunts violations of)."""
        report = sweep(InterleavingSpec(), n_schedules=4, shrink=False)
        assert report.permuted_batches > 0
        assert report.findings == []

    @pytest.mark.parametrize(
        "nodes,app_per_node", [(5, 1), (7, 2)], ids=["5x1", "7x2"]
    )
    def test_non_square_app_counts_build(self, nodes, app_per_node):
        """Five and fourteen app ranks have no square grid: the world is
        built by fig5_workload's most-square factorization."""
        spec = InterleavingSpec(nodes=nodes, app_per_node=app_per_node)
        outcome = run_schedule(spec)
        assert outcome.status == "done"
        assert all(outcome.signature[1]), "a rank did not finish"

    def test_default_canonical_outcome_is_pinned(self):
        """The default 4x2 world's canonical run, pinned: finished flags,
        clocks and trace matrices."""
        status, finished, clocks, bytes_matrix, count_matrix = (
            run_schedule(InterleavingSpec()).signature
        )
        assert status == "done"
        digest = hashlib.sha256(bytes(finished))
        digest.update(np.asarray(clocks, dtype=np.float64).tobytes())
        digest.update(bytes_matrix)
        digest.update(count_matrix)
        assert digest.hexdigest() == (
            "9b0dd570d707ad52ad6a42b5b545ab1ce2f6303dd6c5db89c93342934f36f95f"
        )


class TestExecutorScheduleDifferential:
    def test_classification_order(self):
        assert CLASSIFICATIONS.index("schedule_divergence") == 2
        assert classify(True, [], schedule_ok=False) == "schedule_divergence"
        # A phase-B deadlock outranks the schedule finding.
        assert classify(True, [], schedule_ok=True) == "agree"

    def test_seeded_scenario_agrees_and_records_trace(self):
        scenario = FuzzScenario(
            shape=FuzzShape(),
            schedule=FailureScenario(),
            schedule_seed=11,
        )
        result = execute_scenario(scenario)
        assert result.classification == "agree"
        assert result.schedule_ok
        assert result.schedule_trace, "no permutations recorded"
        # Replaying the recorded trace verbatim also agrees.
        replayed = execute_scenario(
            FuzzScenario(
                shape=FuzzShape(),
                schedule=FailureScenario(),
                schedule_trace=result.schedule_trace,
            )
        )
        assert replayed.classification == "agree"
        assert replayed.schedule_trace == result.schedule_trace

    def test_canonical_scenario_has_no_trace(self):
        scenario = FuzzScenario(
            shape=FuzzShape(), schedule=FailureScenario()
        )
        result = execute_scenario(scenario)
        assert result.schedule_trace is None
        assert result.schedule_ok


class TestActorWiring:
    def test_interleave_actor_contributes_a_seed(self):
        ctx = ActorContext(FuzzShape())
        fragment = InterleavingActor().generate(
            ctx, np.random.default_rng(0)
        )
        assert fragment.schedule_seed is not None
        assert fragment.schedule.n_failures == 0

    def test_compose_carries_the_schedule_seed(self):
        scenario = compose_scenario(
            FuzzShape(),
            ("interleave", "soft"),
            np.random.default_rng(1),
            seed=1,
        )
        assert scenario.schedule_seed is not None
        assert "schedule-seed" in scenario.describe()
        assert "interleave" in scenario.actor_names


class TestShrinkAndReproFiles:
    def test_shrink_reverts_unneeded_schedule(self):
        """When the interleaving is not implicated in the class, the
        shrinker drops it back to the canonical schedule."""
        scenario = FuzzScenario(
            shape=FuzzShape(),
            schedule=FailureScenario(),
            schedule_seed=11,
        )
        outcome = shrink(scenario, target="agree", max_executions=16)
        assert outcome.scenario.schedule_seed is None
        assert outcome.scenario.schedule_trace is None
        assert outcome.final_cost < outcome.original_cost

    def test_v2_round_trip_preserves_schedule_fields(self):
        scenario = FuzzScenario(
            shape=FuzzShape(),
            schedule=FailureScenario(),
            schedule_seed=7,
            schedule_trace=((0, (1, 0)), (4, (2, 0, 1))),
        )
        data = scenario_to_dict(scenario, "agree")
        assert data["version"] == 2
        restored, classification = scenario_from_dict(data)
        assert restored == scenario
        assert classification == "agree"

    def test_v1_files_still_load(self):
        scenario = FuzzScenario(
            shape=FuzzShape(), schedule=FailureScenario()
        )
        data = scenario_to_dict(scenario, "agree")
        data["version"] = 1
        del data["schedule_seed"]
        del data["schedule_trace"]
        restored, _ = scenario_from_dict(data)
        assert restored.schedule_seed is None
        assert restored.schedule_trace is None
