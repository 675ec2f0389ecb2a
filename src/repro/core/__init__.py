"""High-level public API: scenarios, the four-dimensional evaluator, and
experiment drivers reproducing every figure and table of the paper."""

from repro.core.evaluator import ClusteringEvaluator, EvaluationReport
from repro.core.experiments import (
    ClusterSizeStudy,
    DistributionStudy,
    TraceStudy,
    experiment_fig3,
    experiment_fig4a,
    experiment_fig4bc,
    experiment_fig5ab,
    experiment_fig5c,
    experiment_montecarlo,
    experiment_table1,
    experiment_table2,
)
from repro.core.montecarlo import (
    MonteCarloScores,
    analytic_restart_mixture,
    montecarlo_scores,
    validate_against_analytic,
)
from repro.core.query import (
    ClusteringSpec,
    MachineSpec,
    QueryResult,
    QueryTables,
    ReliabilityQuery,
    query_for,
    resolve_query,
    run_query,
    run_query_batch,
)
from repro.core.tables import (
    CatastrophicTables,
    RestartTables,
    catastrophic_tables,
    restart_tables,
)
from repro.core.plotting import ascii_bars, ascii_heatmap, radar_table
from repro.core.scenario import (
    PAPER_PARTITION_COST,
    Scenario,
    paper_scenario,
    reliability_scenario,
)

#: Backwards-friendly alias used in the README quickstart.
default_tsunami_scenario = paper_scenario

__all__ = [
    "CatastrophicTables",
    "ClusterSizeStudy",
    "ClusteringEvaluator",
    "ClusteringSpec",
    "DistributionStudy",
    "EvaluationReport",
    "MachineSpec",
    "MonteCarloScores",
    "PAPER_PARTITION_COST",
    "QueryResult",
    "QueryTables",
    "ReliabilityQuery",
    "RestartTables",
    "Scenario",
    "TraceStudy",
    "analytic_restart_mixture",
    "ascii_bars",
    "ascii_heatmap",
    "catastrophic_tables",
    "default_tsunami_scenario",
    "experiment_fig3",
    "experiment_fig4a",
    "experiment_fig4bc",
    "experiment_fig5ab",
    "experiment_fig5c",
    "experiment_montecarlo",
    "experiment_table1",
    "experiment_table2",
    "montecarlo_scores",
    "paper_scenario",
    "query_for",
    "radar_table",
    "reliability_scenario",
    "resolve_query",
    "restart_tables",
    "run_query",
    "run_query_batch",
    "validate_against_analytic",
]
