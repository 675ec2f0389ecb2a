"""Fig. 4 — distributed vs. non-distributed clustering.

4a (128 nodes × 8 processes, catastrophic failure model of FTI [3]):
non-distributed clustering is orders of magnitude less reliable; for
non-distributed clusters of 4 or 8 a single node failure can already be
unrecoverable. 4b/4c (64 × 16): combining distributed clustering with
topology-aware placement logs nearly everything — "the size of the
clusters lose all their influence in the performance trade-off" — and
"one single node failure forces 16 nodes to restart"; at 32-process
clusters the recovery cost grows from 3 % to 50 %.
"""

import pytest

from repro.core import experiment_fig4a, experiment_fig4bc


@pytest.fixture(scope="module")
def reliability():
    return experiment_fig4a(sizes=(4, 8, 16))


@pytest.fixture(scope="module")
def study(scenario):
    return experiment_fig4bc(scenario, sizes=(4, 8, 16, 32))


class TestFig4a:
    def test_small_nondistributed_die_on_single_node(self, reliability):
        """'For non-distributed clusters of 4 or 8 processes, one single
        node failure could lead to an unrecoverable failure.'"""
        for size, p in zip(reliability.sizes, reliability.reliability_non_distributed):
            if size in (4, 8):
                assert p == pytest.approx(0.95, abs=0.01)

    def test_distributed_orders_of_magnitude_better(self, reliability):
        for non, dist in zip(
            reliability.reliability_non_distributed,
            reliability.reliability_distributed,
        ):
            assert non / max(dist, 1e-300) > 1e3

    def test_distributed_reliability_improves_with_size(self, reliability):
        ps = reliability.reliability_distributed
        assert ps[0] > ps[1] > ps[2]


class TestFig4b:
    def test_distributed_logs_nearly_everything(self, study):
        for frac in study.logging_distributed:
            assert frac > 0.9  # paper plots ~100 %

    def test_size_loses_influence_under_distribution(self, study):
        """Distributed curve is flat; non-distributed falls with size."""
        spread_dist = max(study.logging_distributed) - min(study.logging_distributed)
        spread_non = max(study.logging_non_distributed) - min(
            study.logging_non_distributed
        )
        assert spread_dist < 0.05
        assert spread_non > 0.15

    def test_non_distributed_decreases_with_size(self, study):
        non = study.logging_non_distributed
        assert non == sorted(non, reverse=True)


class TestFig4c:
    def test_headline_3_vs_50_percent(self, study):
        i = study.sizes.index(32)
        assert study.restart_non_distributed[i] == pytest.approx(0.031, abs=0.002)
        assert study.restart_distributed[i] == pytest.approx(0.50)

    def test_one_node_failure_forces_16_nodes(self, study):
        """At size 16: the restarted set spans a full 16-node band = 25 %."""
        i = study.sizes.index(16)
        assert study.restart_distributed[i] == pytest.approx(0.25)

    def test_distribution_always_worse(self, study):
        for non, dist in zip(study.restart_non_distributed, study.restart_distributed):
            assert dist >= non

    def test_distributed_restart_grows_with_size(self, study):
        assert study.restart_distributed == sorted(study.restart_distributed)
