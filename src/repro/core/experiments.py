"""One driver per figure/table of the paper's evaluation.

Each ``experiment_*`` function reproduces the data behind one exhibit and
returns a structured result with a ``render()`` for terminal display; the
benchmark harness (``benchmarks/``) wraps these, printing the same rows or
series the paper reports and asserting the *shape* claims (orderings,
crossovers, factors) hold.

All model-derived columns are served from the precomputed lookup tables of
:mod:`repro.core.tables`, cached per (clustering, placement): sweeping the
same strategies across figures reuses each table instead of recomputing it,
and the Monte-Carlo cross-check (:func:`experiment_montecarlo`) scores its
sampled event batches by pure array indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.strategies import (
    consecutive_clustering,
    distributed_clustering,
)
from repro.core.evaluator import ClusteringEvaluator, EvaluationReport
from repro.core.plotting import ascii_heatmap, radar_table
from repro.core.scenario import (
    Scenario,
    paper_scenario,
    reliability_scenario,
)
from repro.failures.catastrophic import CatastrophicModel
from repro.models.encoding_time import EncodingTimeModel
from repro.models.recovery_cost import expected_restart_fraction
from repro.util.tables import AsciiTable
from repro.util.units import format_probability
from repro.util.validation import check_positive


# ---------------------------------------------------------------------------
# Fig. 3 — cluster-size study (consecutive-rank clusters)
# ---------------------------------------------------------------------------


@dataclass
class ClusterSizeStudy:
    """Fig. 3a/3b data: per consecutive-cluster size, the three costs."""

    sizes: list[int]
    logged_fraction: list[float]
    restart_fraction: list[float]
    encoding_s_per_gb: list[float]

    def sweet_spot_3a(self) -> int:
        """Size minimizing max(logging, restart) — the paper picks 32."""
        worst = [
            max(l, r) for l, r in zip(self.logged_fraction, self.restart_fraction)
        ]
        return self.sizes[int(np.argmin(worst))]

    def render(self, *, which: str = "3a") -> str:
        table = AsciiTable(
            ["cluster size", "logged %", "restart %", "encode s/GB"],
            title=f"Fig. {which} — cluster size study (consecutive ranks)",
        )
        for i, size in enumerate(self.sizes):
            table.add_row(
                [
                    size,
                    f"{100 * self.logged_fraction[i]:.1f}",
                    f"{100 * self.restart_fraction[i]:.2f}",
                    f"{self.encoding_s_per_gb[i]:.1f}",
                ]
            )
        return table.render()


def experiment_fig3(
    scenario: Scenario | None = None,
    *,
    sizes: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256),
) -> ClusterSizeStudy:
    """Fig. 3a (recovery vs logging) + 3b (encoding vs logging) sweep."""
    scenario = scenario or paper_scenario()
    model = EncodingTimeModel()
    logged, restart, encode = [], [], []
    for size in sizes:
        clustering = consecutive_clustering(scenario.placement.nranks, size)
        logged.append(scenario.graph.logged_fraction(clustering.l1_labels))
        restart.append(
            expected_restart_fraction(clustering, scenario.placement)
        )
        encode.append(model.seconds_per_gb(size))
    return ClusterSizeStudy(list(sizes), logged, restart, encode)


# ---------------------------------------------------------------------------
# Fig. 4 — distribution study
# ---------------------------------------------------------------------------


@dataclass
class DistributionStudy:
    """Fig. 4a/4b/4c data: distributed vs non-distributed per cluster size."""

    sizes: list[int]
    reliability_non_distributed: list[float]
    reliability_distributed: list[float]
    logging_non_distributed: list[float]
    logging_distributed: list[float]
    restart_non_distributed: list[float]
    restart_distributed: list[float]

    def render(self) -> str:
        table = AsciiTable(
            [
                "size",
                "P[cat] non-dist",
                "P[cat] dist",
                "logged% non-dist",
                "logged% dist",
                "restart% non-dist",
                "restart% dist",
            ],
            title="Fig. 4 — distribution study",
        )
        for i, size in enumerate(self.sizes):
            table.add_row(
                [
                    size,
                    format_probability(self.reliability_non_distributed[i]),
                    format_probability(self.reliability_distributed[i]),
                    f"{100 * self.logging_non_distributed[i]:.1f}",
                    f"{100 * self.logging_distributed[i]:.1f}",
                    f"{100 * self.restart_non_distributed[i]:.1f}",
                    f"{100 * self.restart_distributed[i]:.1f}",
                ]
            )
        return table.render()


def experiment_fig4a(
    *, sizes: tuple[int, ...] = (4, 8, 16)
) -> DistributionStudy:
    """Fig. 4a: reliability on the §III-C machine (128 nodes × 8 procs)."""
    return _distribution_study(reliability_scenario(), sizes)


def experiment_fig4bc(
    scenario: Scenario | None = None,
    *,
    sizes: tuple[int, ...] = (4, 8, 16, 32),
) -> DistributionStudy:
    """Fig. 4b (logging) + 4c (restart) on the §V machine (64 × 16)."""
    return _distribution_study(scenario or paper_scenario(), sizes)


def _distribution_study(
    scenario: Scenario, sizes: tuple[int, ...]
) -> DistributionStudy:
    model = CatastrophicModel(scenario.placement, taxonomy=scenario.taxonomy)
    out = DistributionStudy(list(sizes), [], [], [], [], [], [])
    n = scenario.placement.nranks
    for size in sizes:
        non_dist = consecutive_clustering(n, size)
        dist = distributed_clustering(scenario.placement, size)
        out.reliability_non_distributed.append(model.probability(non_dist))
        out.reliability_distributed.append(model.probability(dist))
        out.logging_non_distributed.append(
            scenario.graph.logged_fraction(non_dist.l1_labels)
        )
        out.logging_distributed.append(
            scenario.graph.logged_fraction(dist.l1_labels)
        )
        out.restart_non_distributed.append(
            expected_restart_fraction(non_dist, scenario.placement)
        )
        out.restart_distributed.append(
            expected_restart_fraction(dist, scenario.placement)
        )
    return out


# ---------------------------------------------------------------------------
# Fig. 5a/5b — the traced §V execution with encoder processes
# ---------------------------------------------------------------------------


@dataclass
class TraceStudy:
    """Fig. 5a/5b data: full and zoomed communication matrices."""

    nranks: int
    bytes_matrix: np.ndarray
    kind_matrices: dict[str, np.ndarray]
    encoder_ranks: list[int]
    zoom_size: int = 68

    @property
    def zoom(self) -> np.ndarray:
        """Top-left ``zoom_size²`` corner (Fig. 5b's 68-rank view)."""
        return self.bytes_matrix[: self.zoom_size, : self.zoom_size]

    def render_full(self, *, max_size: int = 64) -> str:
        return (
            f"Fig. 5a — communication pattern ({self.nranks} ranks, log scale)\n"
            + ascii_heatmap(self.bytes_matrix, max_size=max_size)
        )

    def render_zoom(self) -> str:
        return (
            f"Fig. 5b — zoom on the first {self.zoom_size} ranks\n"
            + ascii_heatmap(self.zoom, max_size=self.zoom_size)
        )


def experiment_fig5ab(
    *,
    nodes: int = 64,
    app_per_node: int = 16,
    iterations: int = 100,
    checkpoint_every: int = 25,
) -> TraceStudy:
    """Run the full §V execution (app + encoders) and capture the trace.

    1088 simulated MPI ranks by default; pass smaller shapes for quick runs
    (the structural features are scale-invariant).
    """
    from repro.apps.tsunami import TsunamiConfig, TsunamiSimulation
    from repro.ftilib.tracesim import FTITraceConfig, make_fti_world_programs
    from repro.machine.placement import FTIPlacement
    from repro.simmpi.engine import Engine
    from repro.simmpi.tracing import TraceRecorder

    check_positive("nodes", nodes)
    check_positive("app_per_node", app_per_node)
    check_positive("iterations", iterations, strict=False)
    check_positive("checkpoint_every", checkpoint_every)
    n_app = nodes * app_per_node
    px = 32 if n_app == 1024 else int(np.sqrt(n_app))
    py = n_app // px
    if px * py != n_app:
        raise ValueError(f"cannot build a 2-D grid over {n_app} app ranks")
    cfg = TsunamiConfig(
        px=px,
        py=py,
        nx=32 * px,
        ny=768 * py if n_app == 1024 else 32 * py,
        iterations=iterations,
        synthetic=True,
        allreduce_every=0,
    )
    sim = TsunamiSimulation(cfg)
    placement = FTIPlacement(nodes, app_per_node)
    programs = make_fti_world_programs(
        sim,
        placement,
        iterations=iterations,
        trace_cfg=FTITraceConfig(checkpoint_every=checkpoint_every),
    )
    tracer = TraceRecorder(placement.nranks, by_kind=True)
    Engine(placement.nranks, tracer=tracer).run(programs)
    return TraceStudy(
        nranks=placement.nranks,
        bytes_matrix=tracer.bytes_matrix,
        kind_matrices=dict(tracer.kind_matrices),
        encoder_ranks=placement.encoder_ranks(),
    )


# ---------------------------------------------------------------------------
# Fig. 5c + Table II — four-dimensional comparison
# ---------------------------------------------------------------------------


def experiment_table2(scenario: Scenario | None = None) -> EvaluationReport:
    """Table II: the four strategies scored on all four dimensions."""
    evaluator = ClusteringEvaluator(scenario or paper_scenario())
    return evaluator.evaluate_all()


def experiment_montecarlo(
    scenario: Scenario | None = None,
    *,
    n_samples: int = 2000,
    rng=0,
) -> str:
    """Monte-Carlo cross-validation of Table II's model-derived columns.

    Samples ``n_samples`` failures per strategy through the batched engine
    and renders analytic vs sampled restart fraction and catastrophic rate
    side by side. The analytic restart column is the full event-mixture
    expectation (soft + node, :func:`repro.core.montecarlo
    .analytic_restart_mixture`) so the two columns estimate the same
    quantity. Note the sampled side scores events against the same cached
    lookup tables the closed forms average over — agreement checks the
    probability-weighting of the models and the sampler, while the
    per-event equivalence tests (``tests/core/test_eval_tables.py``) pin
    the tables themselves to independent scalar predicates.
    """
    import numpy as np

    from repro.core.montecarlo import analytic_restart_mixture
    from repro.core.query import query_for, run_query

    scenario = scenario or paper_scenario()
    evaluator = ClusteringEvaluator(scenario)
    strategies = evaluator.paper_strategies()
    model = evaluator.catastrophic
    table = AsciiTable(
        [
            "clustering",
            "restart (analytic)",
            "restart (sampled)",
            "P[cat] (analytic)",
            "cat rate (sampled)",
        ],
        title=f"Monte-Carlo validation ({n_samples} failures per strategy)",
    )
    # Queries carry integer seeds on the wire, so derive one independent
    # child seed per strategy from the caller's master seed.
    seeds = [
        int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
        for child in np.random.SeedSequence(rng).spawn(len(strategies))
    ]
    for clustering, seed in zip(strategies, seeds):
        query = query_for(
            scenario,
            clustering,
            n_samples=n_samples,
            seed=seed,
            tolerance=evaluator.tolerance,
        )
        mc = run_query(query)
        table.add_row(
            [
                clustering.name,
                f"{100 * analytic_restart_mixture(scenario, clustering):.2f}%",
                f"{100 * mc.value('restart_fraction_mean'):.2f}%",
                format_probability(model.probability(clustering)),
                format_probability(mc.value("catastrophic_rate")),
            ]
        )
    return table.render()


def experiment_fig5c(scenario: Scenario | None = None) -> str:
    """Fig. 5c: normalized (radar) comparison against the §III baseline."""
    report = experiment_table2(scenario)
    return radar_table(report.normalized())


# ---------------------------------------------------------------------------
# Table I — platform description
# ---------------------------------------------------------------------------


def experiment_table1() -> str:
    """Table I: the TSUBAME2 architecture parameters used by the models."""
    from repro.machine.tsubame2 import TSUBAME2

    spec = TSUBAME2
    table = AsciiTable(["parameter", "value"], title="Table I — TSUBAME2")
    rows = [
        ("Nodes", f"{spec.total_nodes} High BW Compute Nodes"),
        ("CPU cores/node", f"{spec.cores_per_node} (x2 hyperthreading)"),
        ("Memory", f"{spec.memory_GB} GB/node"),
        ("GPUs", f"{spec.gpus_per_node}/node ({spec.gpu_total} total)"),
        ("SSD", f"{spec.ssd_capacity_GB:.0f} GB @ {spec.ssd_write_MBps:.0f} MB/s write"),
        ("Network", f"dual rail QDR IB ({spec.ib_rail_GBps:.0f} GB/s x {spec.ib_rails})"),
        ("PFS write throughput", f"{spec.pfs_write_GBps:.0f} GB/s (Lustre)"),
        ("OS", spec.os_name),
    ]
    for k, v in rows:
        table.add_row([k, v])
    return table.render()
