"""Table II — the detailed comparison of all four clustering strategies,
and the §VII headline drawn from it.

Regenerates every row (logging, recovery, encoding, reliability) and
checks each against the paper's values — exact where the quantity is
structural (encoding times, recovery fractions), order-of-magnitude for
the model-derived reliability column, and the documented metric variance
for the size-guided recovery entry (see "known deviations" under the
contract table of docs/architecture.md).
"""

import pytest


class TestTable2:
    """Paper values: (logging, recovery, encode s/GB, P[cat]) per strategy."""

    def test_naive_32(self, table2_report):
        s = table2_report.score_named("naive-32")
        assert s.logging_fraction == pytest.approx(0.035, abs=0.006)  # 3.5 %
        assert s.recovery_fraction == pytest.approx(0.031, abs=0.001)  # 3.1 %
        assert s.encoding_s_per_gb == pytest.approx(204.0)  # 204 s
        assert 3e-5 < s.prob_catastrophic < 3e-4  # 1e-4

    def test_size_guided_8(self, table2_report):
        s = table2_report.score_named("size-guided-8")
        assert s.logging_fraction == pytest.approx(0.129, abs=0.005)  # 12.9 %
        # Paper: 0.7 % (single-process metric); our node-failure metric
        # gives 1.6 % — same order, same ranking (a known deviation).
        assert s.recovery_fraction < 0.02
        assert s.encoding_s_per_gb == pytest.approx(51.0)  # 51 s
        assert s.prob_catastrophic == pytest.approx(0.95, abs=0.01)  # 0.95

    def test_distributed_16(self, table2_report):
        s = table2_report.score_named("distributed-16")
        assert s.logging_fraction > 0.9  # 100 % (a known deviation: 96 %)
        assert s.recovery_fraction == pytest.approx(0.25)  # 25 %
        assert s.encoding_s_per_gb == pytest.approx(102.0)  # 102 s
        assert s.prob_catastrophic < 1e-13  # 1e-15

    def test_hierarchical_64_4(self, table2_report):
        s = table2_report.score_named("hierarchical-64-4")
        assert s.logging_fraction == pytest.approx(0.019, abs=0.003)  # 1.9 %
        assert s.recovery_fraction == pytest.approx(0.0625)  # 6.25 %
        assert s.encoding_s_per_gb == pytest.approx(25.5)  # 25 s
        assert 3e-7 < s.prob_catastrophic < 1e-5  # 1e-6

    def test_rankings_preserved(self, table2_report):
        """Cross-strategy orderings on every dimension match the paper."""
        get = table2_report.score_named
        naive, sg = get("naive-32"), get("size-guided-8")
        dist, hier = get("distributed-16"), get("hierarchical-64-4")
        # Logging: hier < naive < sg < dist.
        assert (
            hier.logging_fraction
            < naive.logging_fraction
            < sg.logging_fraction
            < dist.logging_fraction
        )
        # Recovery: sg < naive < hier < dist.
        assert (
            sg.recovery_fraction
            < naive.recovery_fraction
            < hier.recovery_fraction
            < dist.recovery_fraction
        )
        # Encoding: hier < sg < dist < naive.
        assert (
            hier.encoding_s_per_gb
            < sg.encoding_s_per_gb
            < dist.encoding_s_per_gb
            < naive.encoding_s_per_gb
        )
        # Reliability: dist < hier < naive < sg.
        assert (
            dist.prob_catastrophic
            < hier.prob_catastrophic
            < naive.prob_catastrophic
            < sg.prob_catastrophic
        )


class TestHeadline:
    def test_only_hierarchical_meets_every_requirement(self, table2_report):
        """'the hierarchical clustering ... is the only technique that
        reaches all the requirements' (§VII); on the Fig. 5c radar, the
        only polygon inside the baseline."""
        assert table2_report.satisfying() == ["hierarchical-64-4"]
