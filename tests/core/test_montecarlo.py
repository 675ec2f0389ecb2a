"""Monte-Carlo validation tests: sampled vs. analytic scores.

The batched engine (``montecarlo_scores``) and the per-event reference
path (``montecarlo_scores_scalar``) consume the RNG stream differently, so
equivalence is asserted *statistically*: same seed, same sample count,
score summaries within tight sampling tolerance.
"""

import pytest

from repro.clustering import (
    distributed_clustering,
    hierarchical_clustering,
    naive_clustering,
    size_guided_clustering,
)
from repro.core import (
    montecarlo_scores,
    montecarlo_scores_scalar,
    paper_scenario,
    validate_against_analytic,
)


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(iterations=5)


class TestMonteCarloScores:
    def test_naive_restart_fraction(self, scenario):
        mc = montecarlo_scores(
            scenario, naive_clustering(1024, 32), n_samples=500, rng=1
        )
        # Node-aligned 32-clusters: every failure restarts exactly 1 cluster.
        assert mc.restart_fraction_mean == pytest.approx(0.03125)
        assert mc.restart_fraction_p95 == pytest.approx(0.03125)

    def test_distributed_restart_heavier_under_node_failures(self, scenario):
        mc = montecarlo_scores(
            scenario, distributed_clustering(scenario.placement, 16),
            n_samples=500, rng=2,
        )
        # Mixture: ~95 % node failures at 25 %, ~5 % soft errors at 1.56 %.
        assert 0.2 < mc.restart_fraction_mean < 0.26
        assert mc.restart_fraction_p95 == pytest.approx(0.25)

    def test_size_guided_catastrophic_rate(self, scenario):
        mc = montecarlo_scores(
            scenario, size_guided_clustering(1024, 8), n_samples=1500, rng=3
        )
        assert mc.catastrophic_rate == pytest.approx(0.95, abs=0.03)

    def test_soft_share_matches_taxonomy(self, scenario):
        mc = montecarlo_scores(
            scenario, naive_clustering(1024, 32), n_samples=2000, rng=4
        )
        assert mc.soft_error_share == pytest.approx(0.05, abs=0.02)

    def test_summary_text(self, scenario):
        mc = montecarlo_scores(
            scenario, naive_clustering(1024, 32), n_samples=50, rng=0
        )
        assert "naive-32" in mc.summary()

    def test_sample_validation(self, scenario):
        with pytest.raises(ValueError):
            montecarlo_scores(
                scenario, naive_clustering(1024, 32), n_samples=0
            )


class TestBatchedScalarEquivalence:
    """Seed-for-seed cross-check of the batched engine vs the reference."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: naive_clustering(1024, 32),
            lambda s: size_guided_clustering(1024, 8),
            lambda s: distributed_clustering(s.placement, 16),
            lambda s: hierarchical_clustering(
                s.node_comm_graph(), s.placement, cost=s.partition_cost
            ),
        ],
    )
    def test_statistics_agree_at_fixed_seed(self, scenario, make):
        clustering = make(scenario)
        batched = montecarlo_scores(
            scenario, clustering, n_samples=1500, rng=21
        )
        scalar = montecarlo_scores_scalar(
            scenario, clustering, n_samples=1500, rng=21
        )
        assert batched.name == scalar.name
        assert batched.n_samples == scalar.n_samples == 1500
        assert batched.restart_fraction_mean == pytest.approx(
            scalar.restart_fraction_mean, abs=0.01
        )
        assert batched.restart_fraction_p95 == pytest.approx(
            scalar.restart_fraction_p95, abs=0.01
        )
        assert batched.catastrophic_rate == pytest.approx(
            scalar.catastrophic_rate, abs=0.03
        )
        assert batched.soft_error_share == pytest.approx(
            scalar.soft_error_share, abs=0.02
        )

    def test_scalar_path_validates_input(self, scenario):
        with pytest.raises(ValueError):
            montecarlo_scores_scalar(
                scenario, naive_clustering(1024, 32), n_samples=0
            )

    def test_both_paths_deterministic_under_seed(self, scenario):
        clustering = distributed_clustering(scenario.placement, 16)
        for scores in (montecarlo_scores, montecarlo_scores_scalar):
            a = scores(scenario, clustering, n_samples=300, rng=5)
            b = scores(scenario, clustering, n_samples=300, rng=5)
            assert a == b


class TestValidateAgainstAnalytic:
    @pytest.mark.parametrize(
        "make",
        [
            lambda p: naive_clustering(1024, 32),
            lambda p: size_guided_clustering(1024, 8),
            lambda p: distributed_clustering(p, 16),
        ],
    )
    def test_agreement(self, scenario, make):
        out = validate_against_analytic(
            scenario, make(scenario.placement), n_samples=800, rng=7
        )
        assert out["restart_deviation"] <= 0.02
        # Catastrophic rates agree within the sampling resolution.
        assert abs(out["mc_catastrophic"] - out["analytic_catastrophic"]) < 0.05

    def test_detects_disagreement(self, scenario):
        with pytest.raises(AssertionError):
            validate_against_analytic(
                scenario,
                naive_clustering(1024, 32),
                n_samples=200,
                rng=1,
                restart_tolerance=-1.0,  # force failure
            )
