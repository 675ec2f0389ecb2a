"""Executor: classification semantics + the kernel-safety assertions."""

import pytest

from repro.failures import FailureEvent, FailureScenario, ScheduledFailure
from repro.fuzz import (
    ACTOR_NAMES,
    CLASSIFICATIONS,
    CorruptionSpec,
    FuzzScenario,
    FuzzShape,
    PerturbationSpec,
    compose_scenario,
    execute_scenario,
)
from repro.util.rng import resolve_rng

SHAPE = FuzzShape()


def scenario(**kwargs):
    kwargs.setdefault("shape", SHAPE)
    kwargs.setdefault("schedule", FailureScenario())
    return FuzzScenario(**kwargs)


class TestKernelSafety:
    def test_kernel_fast_path_off_under_injection(self):
        """Acceptance criterion: kernel_runs == 0 while injection is
        active, and the engine says why. The executor raises if the fast
        path ever ran; here we also assert the recorded deopt reasons."""
        result = execute_scenario(
            scenario(schedule=FailureScenario.node_failure(6, 1))
        )
        deopts = dict(result.kernel_deopts)
        assert deopts, "injection must record a kernel deopt reason"
        assert "failure-injection" in deopts
        assert result.engine_ok

    @pytest.mark.parametrize("index, name", enumerate(ACTOR_NAMES))
    def test_every_actor_executes_and_kills_deopt(self, index, name):
        """One single-actor scenario per adversary, end to end: a known
        class comes back, and node kills (short of total wipeout, which
        may strike before any kernel-eligible loop) force the deopt."""
        composed = compose_scenario(
            SHAPE, (name,), resolve_rng(1000 + index), seed=index
        )
        result = execute_scenario(composed)
        assert result.classification in CLASSIFICATIONS
        killed = composed.schedule.killed_nodes()
        if killed and len(killed) < SHAPE.nnodes:
            assert "failure-injection" in dict(result.kernel_deopts)

    def test_clean_scenario_keeps_kernels_on(self):
        """No injected failures: the synthetic differential run is free to
        use the kernel fast path (no deopt recorded)."""
        result = execute_scenario(scenario())
        assert result.classification == "agree"
        assert dict(result.kernel_deopts) == {}

    def test_perturbed_network_engine_equivalence(self):
        """Perturbation without failures exercises the PerturbedNetwork
        bit-identity through both engine fast paths: any pricing drift
        between fast and scalar engines flags engine_divergence."""
        result = execute_scenario(
            scenario(
                perturbation=PerturbationSpec(
                    rank_factors=((2, 3.0),),
                    bad_nodes=(1,),
                    link_factor=2.5,
                    jitter_amp=0.2,
                )
            )
        )
        assert result.engine_ok
        assert result.classification == "agree"


class TestClassification:
    def test_single_node_failure_agrees(self):
        """One node loss is survivable and the protocol indeed recovers
        bitwise: model and observation agree."""
        result = execute_scenario(
            scenario(schedule=FailureScenario.node_failure(6, 1))
        )
        assert result.classification == "agree"
        (record,) = result.events
        assert not record.predicted_catastrophic
        assert record.observed == "recovered"
        assert record.observed_restart_fraction == pytest.approx(0.5)
        assert record.predicted_restart_fraction == pytest.approx(0.5)

    def test_soft_error_agrees(self):
        soft = ScheduledFailure(5, FailureEvent(kind="soft", process=3))
        result = execute_scenario(scenario(schedule=FailureScenario((soft,))))
        assert result.classification == "agree"
        assert result.events[0].observed == "recovered"

    def test_boundary_burst_is_catastrophic_and_agreed(self):
        """A 3-node run breaks an L2 stripe (tolerance 2): the model says
        catastrophic, the decode indeed fails — agreement on the bad
        side."""
        result = execute_scenario(
            scenario(schedule=FailureScenario.multi_node_failure(6, (0, 1, 2)))
        )
        assert result.classification == "agree"
        (record,) = result.events
        assert record.predicted_catastrophic
        assert record.observed == "lost"

    def test_corruption_falsifies_the_model(self):
        """Parity corruption + a survivable node kill: the model predicts
        recovery, the decoder hands back garbage — model_optimistic."""
        result = execute_scenario(
            scenario(
                schedule=FailureScenario.node_failure(6, 1),
                corruption=CorruptionSpec(target="parity", n_shards=4),
            )
        )
        assert result.classification == "model_optimistic"
        (record,) = result.events
        assert not record.predicted_catastrophic
        assert record.observed == "corrupt"

    def test_cumulative_damage_can_beat_the_per_event_model(self):
        """Three sequential single-node kills inside one L1 cluster: each
        is survivable in isolation (the model's per-event view — and with
        m = k parity even the second decode still has exactly k shards),
        but the third kill leaves fewer shards than the code needs."""
        schedule = FailureScenario.node_failure(5, 0).merge(
            FailureScenario.node_failure(6, 1),
            FailureScenario.node_failure(7, 2),
        )
        result = execute_scenario(scenario(schedule=schedule))
        assert result.classification == "model_optimistic"
        first, second, third = result.events
        assert first.observed == "recovered"
        assert second.observed == "recovered"
        assert not third.predicted_catastrophic
        assert third.observed == "lost"

    def test_empty_scenario_agrees(self):
        result = execute_scenario(scenario())
        assert result.classification == "agree"
        assert result.events == ()

    def test_total_wipeout_does_not_trip_the_deopt_assert(self):
        """Killing every node may strike before any rank reaches a
        kernel-eligible loop, so no deopt reason is recorded — the
        executor must classify the outcome instead of raising (found by
        the seed-42 campaign)."""
        result = execute_scenario(
            scenario(
                schedule=FailureScenario.multi_node_failure(
                    5, range(SHAPE.nnodes)
                )
            )
        )
        assert result.classification == "agree"
        (record,) = result.events
        assert record.predicted_catastrophic
        assert record.observed == "lost"
        assert record.predicted_restart_fraction == pytest.approx(1.0)
