"""Monte-Carlo validation of the analytic four-dimensional scores.

The Table II pipeline computes the recovery and reliability columns from
closed-form models. This module re-derives both *empirically*: sample
failure events from the same taxonomy, apply each to the clustering, and
measure the restart fraction and catastrophic rate directly. The analytic
and sampled values must agree within sampling error — a cross-validation
that guards the whole evaluation against model-implementation drift.

Performance notes
-----------------
:func:`montecarlo_scores` is fully batched: the estimator draws every
event kind, victim process, cascade length and run start in one set of
NumPy calls (:meth:`MonteCarloEstimator.sample_events
<repro.failures.catastrophic.MonteCarloEstimator.sample_events>`), and
scoring is pure array indexing into the precomputed per-(clustering,
placement) lookup tables of :mod:`repro.core.tables` — restart fraction
and catastrophic verdict of every possible contiguous node run are
computed once and reused across samples, seeds and strategies. The
original per-event loop lives on only as the test-only reference in
``tests/core/test_montecarlo.py``, which the batched path must agree with
statistically. The batched rate is the ledger's
``core.montecarlo.samples_per_s`` layer metric (``benchmarks/ledger/``,
workload ``paper-exhibits``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.base import Clustering
from repro.core.scenario import Scenario
from repro.core.tables import restart_tables
from repro.failures.catastrophic import (
    CatastrophicModel,
    MonteCarloEstimator,
    rs_half_tolerance,
)
from repro.util.rng import resolve_rng


@dataclass(frozen=True)
class MonteCarloScores:
    """Empirical counterparts of two FourDimScore columns."""

    name: str
    n_samples: int
    restart_fraction_mean: float
    restart_fraction_p95: float
    catastrophic_rate: float
    soft_error_share: float

    def summary(self) -> str:
        """One-line report for benches and examples."""
        return (
            f"{self.name}: restart mean {100 * self.restart_fraction_mean:.2f}% "
            f"(p95 {100 * self.restart_fraction_p95:.2f}%), "
            f"catastrophic rate {self.catastrophic_rate:.3g} "
            f"over {self.n_samples} sampled failures"
        )


def analytic_restart_mixture(scenario: Scenario, clustering: Clustering) -> float:
    """Analytic expected restart fraction under the full event mixture.

    Soft errors restart one cluster (size-weighted mean of the process's
    own cluster), node events ~ the single-node expectation (multi-node
    cascades are vanishingly rare) — the closed form the sampled
    ``restart_fraction_mean`` must converge to.
    """
    from repro.models.recovery_cost import expected_restart_fraction

    p_soft = scenario.taxonomy.p_soft
    mean_cluster = float(
        (clustering.l1_sizes() ** 2).sum() / clustering.n**2
    )
    analytic_node = expected_restart_fraction(clustering, scenario.placement)
    return p_soft * mean_cluster + (1 - p_soft) * analytic_node


def montecarlo_scores(
    scenario: Scenario,
    clustering: Clustering,
    *,
    n_samples: int = 2000,
    rng=None,
    tolerance=rs_half_tolerance,
) -> MonteCarloScores:
    """Sample failures and measure restart fraction + catastrophic rate.

    Soft errors roll back the process's own L1 cluster; node events roll
    back the union of the affected clusters (exactly the protocol's
    restart-set rule, :func:`repro.models.restart_set_for_nodes`). The
    whole batch is drawn and scored with a handful of array operations —
    see the module's performance notes. ``tolerance`` must match the
    erasure configuration of the analytic model being validated (e.g.
    ``xor_tolerance`` when the evaluator scores XOR parity).

    This is the engine behind the query API's ``metric="montecarlo"``
    (bit-identical under an integer seed); unlike a wire query it also
    accepts live ``numpy`` generators as ``rng`` and tolerance callables.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = resolve_rng(rng)
    model = CatastrophicModel(
        scenario.placement, taxonomy=scenario.taxonomy, tolerance=tolerance
    )
    sampler = MonteCarloEstimator(model, rng=gen)

    batch = sampler.sample_events(n_samples)
    tables = restart_tables(clustering, scenario.placement)
    restart_fractions = tables.batch_restart_fractions(batch)
    catastrophic = int(model.events_are_catastrophic(clustering, batch).sum())
    n = restart_fractions.size
    return MonteCarloScores(
        name=clustering.name,
        n_samples=n,
        restart_fraction_mean=float(restart_fractions.mean()),
        restart_fraction_p95=float(np.quantile(restart_fractions, 0.95)),
        catastrophic_rate=catastrophic / n,
        soft_error_share=int(batch.is_soft.sum()) / n,
    )


def validate_against_analytic(
    scenario: Scenario,
    clustering: Clustering,
    *,
    n_samples: int = 2000,
    rng=None,
    restart_tolerance: float = 0.02,
    tolerance=rs_half_tolerance,
) -> dict[str, float]:
    """Run the Monte Carlo and compare with the analytic models.

    Returns the absolute deviations; raises ``AssertionError`` when the
    sampled restart fraction strays beyond ``restart_tolerance`` of the
    analytic node-failure expectation (adjusted for the soft-error mix).
    """
    mc = montecarlo_scores(
        scenario, clustering, n_samples=n_samples, rng=rng, tolerance=tolerance
    )
    model = CatastrophicModel(
        scenario.placement, taxonomy=scenario.taxonomy, tolerance=tolerance
    )
    analytic_cat = model.probability(clustering)
    analytic_mixture = analytic_restart_mixture(scenario, clustering)

    deviation = abs(mc.restart_fraction_mean - analytic_mixture)
    if deviation > restart_tolerance:
        raise AssertionError(
            f"Monte-Carlo restart {mc.restart_fraction_mean:.4f} deviates "
            f"{deviation:.4f} from analytic {analytic_mixture:.4f}"
        )
    return {
        "restart_deviation": deviation,
        "analytic_restart": analytic_mixture,
        "mc_restart": mc.restart_fraction_mean,
        "analytic_catastrophic": analytic_cat,
        "mc_catastrophic": mc.catastrophic_rate,
    }
