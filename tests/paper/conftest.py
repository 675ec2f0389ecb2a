"""The paper-claims contract: one asserting test per claim of the paper.

Each ``test_paper_*.py`` module regenerates one table or figure of the
evaluation (§III–§V, §VII) through the same driver the ``repro``
subcommand prints, and asserts the paper's *shape* claims — orderings,
crossovers and rough factors. Absolute numbers are not expected to match:
the substrate is a simulator, not TSUBAME2. The exhibit → claim → test id
→ subcommand index and the known deviations are the "paper-claims
contract" table of ``docs/architecture.md``, which ``tests/test_docs.py``
keeps in step with these modules. ``test_extensions.py`` holds ablations
and studies that go beyond the paper's exhibits.

The fixtures below are the §V scenario at the paper's trace length,
shared by the whole package (the evaluation tables are memoized on the
clustering/placement objects, so sharing them is what keeps this fast).
"""

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
    """The Table II evaluation, computed once for every module using it."""
    return evaluator.evaluate_all()
