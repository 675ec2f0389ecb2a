"""``paper-exhibits``: the reproduction itself, through ``repro.cli.main``.

One cycle regenerates the ten exhibits with stdout captured. The eight
unseeded exhibits must print exactly the pinned text; ``montecarlo`` and
``campaign`` take the workload seed, so they are pinned for the default seed
and, for any other, must print the same text on every cycle of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics

from harness import (
    Context,
    Outcome,
    clock,
    median_seconds,
    own_peak_rss_mb,
    repeat_setup,
    run_cycles,
)
from repro.cli import main as repro_main

DEFAULT_SEED = 1
SEEDED = ("montecarlo", "campaign")


def exhibit_argvs(seed: int) -> dict[str, list[str]]:
    return {
        "table1": ["table1"],
        "table2": ["table2"],
        "fig3": ["fig3"],
        "fig4a": ["fig4a"],
        "fig4bc": ["fig4bc"],
        "fig5": ["fig5"],
        "radar": ["radar"],
        "montecarlo": ["montecarlo", "--seed", str(seed)],
        "campaign": ["campaign", "--seed", str(seed)],
        "table2-traced": ["table2", "--traced"],
    }


def regenerate(argv: list[str]) -> tuple[int, str, float]:
    """``(exit code, sha256 of stdout, seconds)`` of one exhibit."""
    buffer = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(buffer):
        code = repro_main(argv)
    took = clock() - t0
    return code, hashlib.sha256(buffer.getvalue().encode()).hexdigest(), took


def paper_exhibits(ctx: Context) -> Outcome:
    out = Outcome()
    rec = ctx.recorder
    argvs = exhibit_argvs(ctx.seed)
    pinned = ctx.pins.get("paper-exhibits", {})
    first_seen: dict[str, str] = {}

    def cycle(index):
        ops = []
        for name, argv in argvs.items():
            if rec is None:
                code, sha, took = regenerate(argv)
            else:
                with rec.operation((index, name), f"exhibit.{name}"):
                    code, sha, took = regenerate(argv)
            if name in SEEDED and ctx.seed != DEFAULT_SEED:
                want, what = first_seen.setdefault(name, sha), "the first cycle of this run"
            else:
                want, what = pinned.get(name), "the pin"
            failure = None
            if code != 0:
                failure = f"{name}: exit code {code}"
            elif want is None:
                failure = f"{name}: no pinned stdout digest (run --repin)"
            elif sha != want:
                failure = f"{name}: stdout differs from {what}"
            ops.append((took, failure))
        return ops

    if ctx.smoke:  # one round in all: no warm-up
        out.setup_s = clock() - ctx.started
    else:
        _, out.setup_s = repeat_setup(ctx, lambda: cycle(-1), repeats=2)
    if rec is None:
        run_cycles(
            out, ctx.seconds, cycle, min_cycles=1 if ctx.smoke else 3, read_rss=own_peak_rss_mb
        )
        return out

    import repro.clustering.hierarchical as hierarchical
    import repro.core.montecarlo as montecarlo
    import repro.core.query as query
    import repro.core.scenario as scenario_module
    from repro.core.evaluator import ClusteringEvaluator
    from repro.models.campaign import CampaignSimulator

    rec.instrument(scenario_module, "paper_scenario", "core.scenario.paper_scenario")
    rec.instrument(scenario_module.Scenario, "node_comm_graph", "commgraph.node_graph")
    rec.instrument(hierarchical, "hierarchical_clustering", "clustering.hierarchical")
    rec.instrument(ClusteringEvaluator, "evaluate_all", "core.evaluator.evaluate_all")
    rec.instrument(CampaignSimulator, "run", "models.campaign.run")
    rec.instrument(query, "run_query", "core.query.run_query")
    rec.instrument(montecarlo, "montecarlo_scores", "core.montecarlo.scores")
    try:
        run_cycles(out, ctx.seconds / 3, cycle, min_cycles=1)
    finally:
        rec.restore()
    traced_p50 = statistics.median(out.samples)
    plain = Outcome()
    run_cycles(plain, 0.0, lambda i: _plain_cycle(argvs), min_cycles=1)
    out.layers["trace.overhead_share"] = traced_p50 / statistics.median(plain.samples) - 1.0

    # Direct probes of the layers only this workload reaches.
    from repro.clustering import hierarchical_clustering
    from repro.core import paper_scenario
    from repro.core.query import ClusteringSpec, MachineSpec, ReliabilityQuery, run_query
    from repro.models import CampaignConfig

    layers = out.layers
    layers["core.scenario.build_s"] = median_seconds(lambda: paper_scenario(iterations=100))
    scenario = paper_scenario(iterations=100)
    layers["commgraph.node_graph_s"] = median_seconds(scenario.node_comm_graph)
    graph = scenario.node_comm_graph()
    layers["clustering.hierarchical_s"] = median_seconds(
        lambda: hierarchical_clustering(graph, scenario.placement, cost=scenario.partition_cost)
    )
    layers["models.evaluate_s"] = median_seconds(
        lambda: ClusteringEvaluator(scenario).evaluate_all()
    )
    clustering = hierarchical_clustering(graph, scenario.placement, cost=scenario.partition_cost)
    simulator = CampaignSimulator(scenario.machine, CampaignConfig(horizon_s=30 * 24 * 3600.0))
    layers["models.campaign_run_s"] = median_seconds(
        lambda: simulator.run(clustering, rng=ctx.seed), repeats=50
    )
    big = ReliabilityQuery(
        metric="montecarlo",
        machine=MachineSpec(preset="tsubame2", nnodes=64, procs_per_node=16),
        clustering=ClusteringSpec(strategy="naive", cluster_size=32),
        n_samples=200_000,
        seed=ctx.seed,
    )
    run_query(big)
    layers["core.montecarlo.samples_per_s"] = big.n_samples / median_seconds(lambda: run_query(big))
    return out


def _plain_cycle(argvs):
    return [(regenerate(argv)[2], None) for argv in argvs.values()]
