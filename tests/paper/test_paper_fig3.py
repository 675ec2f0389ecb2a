"""Fig. 3 — the cluster-size study over the 1024-process tsunami trace.

3a: consecutive-rank clusters; logging falls with cluster size while
recovery cost rises, with a sweet spot at 32 processes (< 4 % logged,
~3 % restarted). 3b: encoding time per GB grows linearly with the
encoding cluster size (log-scale axis in the paper): ~one order of
magnitude from 4 to 32 processes.
"""

import pytest

from repro.core import experiment_fig3

SIZES = (2, 4, 8, 16, 32, 64, 128, 256)


@pytest.fixture(scope="module")
def study(scenario):
    return experiment_fig3(scenario, sizes=SIZES)


class TestFig3a:
    def test_logging_monotonically_decreases(self, study):
        assert study.logged_fraction == sorted(study.logged_fraction, reverse=True)

    def test_recovery_monotonically_increases(self, study):
        assert study.restart_fraction == sorted(study.restart_fraction)

    def test_sweet_spot_at_32(self, study):
        """'there is a sweet spot for clusters of 32 processes' (§III-A)."""
        assert study.sweet_spot_3a() == 32

    def test_paper_values_at_32(self, study):
        """'less than 4% of the messages are logged and only 3% of the
        processes needs to restart' at 32."""
        i = study.sizes.index(32)
        assert study.logged_fraction[i] <= 0.04 + 1e-9
        assert study.restart_fraction[i] == pytest.approx(0.031, abs=0.002)

    def test_small_clusters_log_too_much(self, study):
        """Fig. 3a's left side: clusters of 4 log ~25 %."""
        i = study.sizes.index(4)
        assert study.logged_fraction[i] == pytest.approx(0.25, abs=0.03)


class TestFig3b:
    @pytest.fixture(scope="class")
    def s_per_gb(self, study):
        return dict(zip(study.sizes, study.encoding_s_per_gb))

    def test_order_of_magnitude_from_4_to_32(self, s_per_gb):
        """'from 4 to 32 processes, the encoding time increases by almost
        one order of magnitude' (§III-B): linear in the size, so 8x."""
        assert s_per_gb[32] / s_per_gb[4] == pytest.approx(8.0)

    def test_three_minutes_vs_half_minute(self, s_per_gb):
        """'encoding 1GB ... more than three minutes [at 32] while it could
        take less than half-minute with clusters of 4'."""
        assert s_per_gb[32] > 180.0
        assert s_per_gb[4] < 30.0

    def test_size_8_meets_baseline(self, s_per_gb):
        """'Clusters of size 8 ... encoding at a 1GB/50s rate' ≤ 60 s budget."""
        assert s_per_gb[8] <= 60.0
        assert s_per_gb[16] > 60.0  # 'clusters of size 16 would take almost 2 min'
