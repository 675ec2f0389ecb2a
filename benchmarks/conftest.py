"""Shared fixtures for the benchmark harness.

Every ``bench_*`` module reproduces one table or figure from the paper's
evaluation section: it regenerates the same rows/series, prints them (run
with ``-s`` to see the rendered exhibits), and asserts the paper's *shape*
claims — orderings, crossovers and rough factors — hold. Absolute numbers
are not expected to match: the substrate is a simulator, not TSUBAME2.

Performance notes
-----------------
The sampling-heavy benches (``bench_montecarlo_validation``,
``bench_campaign``) run on the batched evaluation engine: failure events
are drawn as whole NumPy batches and scored by indexing the precomputed
per-(clustering, placement) lookup tables of :mod:`repro.core.tables`,
which the session-scoped fixtures below implicitly share across benches
(tables are memoized on the clustering/placement objects). These benches
assert shapes, not speed: perf numbers are recorded only by the ledger
(``BENCHMARK.json`` + ``benchmarks/ledger/``), whose ``paper-exhibits``
workload carries the batched rate as ``core.montecarlo.samples_per_s``.
"""

from __future__ import annotations

import pytest

from repro.core import ClusteringEvaluator, paper_scenario


@pytest.fixture(scope="session")
def scenario():
    """The §V evaluation scenario (synthetic matrix, 100 iterations)."""
    return paper_scenario(iterations=100)


@pytest.fixture(scope="session")
def evaluator(scenario):
    return ClusteringEvaluator(scenario)


@pytest.fixture(scope="session")
def table2_report(evaluator):
    """Session-cached Table II evaluation (used by several benches)."""
    return evaluator.evaluate_all()


#: Shared parameters of the heavy Fig. 5 traced execution.
FIG5_RUN_KW = dict(nodes=64, app_per_node=16, iterations=50, checkpoint_every=25)


@pytest.fixture(scope="session")
def fig5_study():
    """One shared 1088-rank traced execution for the Fig. 5a/5b shape tests."""
    from repro.core import experiment_fig5ab

    return experiment_fig5ab(**FIG5_RUN_KW)
