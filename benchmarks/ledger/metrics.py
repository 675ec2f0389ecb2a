"""The ledger's catalogue: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out; the
self-tests assert the two agree and that every run prints exactly these names.
Each per-layer metric records which workload's traced run measures it
(``owners``) and which end-to-end metric it should move (``moves``); a traced
run prints every per-layer name, reading 0 for the ones it does not own.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

WORKLOADS = {
    "sim-fig5": "the traced 1088-rank run behind Fig. 5: kernel tier, FTI wildcard "
    "gathers and dense tracing all work; baseline for sim-sharded",
    "sim-heat": "1024-rank real-payload heat stencil: zero kernel runs, so scheduler, "
    "matching, pool and per-wave pricing carry it; guards the interpreter path",
    "sim-sharded": "the sim-fig5 world through ShardedEngine(2, workers=2) incl. spawn: "
    "simmpi.shard dominates; its ops_per_s over sim-fig5's must rise above 1",
    "serve-hot": "repro serve, closed loop, 2 clients, 41-query mix at 1024 ranks: every "
    "table cached, so HTTP, dispatch, wire format and warm scoring are the cost",
    "serve-miss": "repro serve --cache-mb 32, 12 full-TSUBAME2 table keys round-robin: "
    "LRU misses on every request, so table build, eviction and memory dominate",
    "fuzz-campaign": "repro fuzz campaigns of 32 scenarios + 1 shrink: hundreds of 16-rank "
    "engine runs through fuzz, hydee, ftilib, erasure, failures; set-up bound",
    "paper-exhibits": "the ten paper exhibits through repro.cli.main: the only load on "
    "clustering, commgraph, models, core.evaluator and in-process montecarlo",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "everything before the measured window: imports, building inputs and "
        "reference answers, server spawn until /healthz answers, warm-up ops",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "correct operations per second of busy window; median over cycles "
        "(1-second bins for the served workloads)",
    ),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25, "median wall time of one operation"),
    EndToEnd(
        "op_p95_ms", "ms", "lower", 0.25,
        "95th percentile (nearest rank from below) of operation time where the "
        "window holds 200 separately timed operations (serve-*); elsewhere no "
        "tail exists and the median is repeated",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.25,
        "highest resident set of any one process of the workload (coordinator or "
        "a shard worker for sim-sharded; for serve-*, a warmed server on one "
        "glibc arena)",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    owners: tuple[str, ...]
    moves: str
    exact: bool = False


SIM = ("sim-fig5", "sim-heat")
SERVE = ("serve-hot", "serve-miss")
ALL = tuple(WORKLOADS)


def _layers() -> tuple[Layer, ...]:
    out: list[Layer] = []

    def add(name, unit, better, owners, moves, exact=False):
        owners = (owners,) if isinstance(owners, str) else tuple(owners)
        out.append(Layer(name, unit, better, owners, moves, exact))

    sim_e2e = "ops_per_s/op_p50_ms on sim-fig5 and sim-heat"
    add("apps.build_programs_s", "s", "lower", SIM, "op_p50_ms on sim-fig5 (expected negligible)")
    add("apps.heat_payload_s", "s", "lower", "sim-heat", "op_p50_ms on sim-heat")
    add("simmpi.engine.run_s", "s", "lower", SIM, sim_e2e)
    add("simmpi.engine.self_s", "s", "lower", SIM, sim_e2e)
    add("simmpi.engine.msgs_per_s", "1/s", "higher", SIM, sim_e2e)
    cov = "ops_per_s on sim-fig5 only"
    add("simmpi.engine.kernel_runs", "count", "higher", SIM, cov, True)
    add("simmpi.engine.kernel_iterations", "count", "higher", SIM, cov, True)
    add("simmpi.engine.kernel_coverage", "ratio", "higher", SIM, cov, True)
    add("simmpi.engine.kernel_deopts", "count", "lower", SIM, cov, True)
    add("simmpi.engine.deopt.partial-world", "count", "lower", SIM, cov, True)
    add("simmpi.engine.deopt.capture-send", "count", "lower", SIM, cov, True)
    add("simmpi.engine.deopt.other", "count", "lower", SIM, cov, True)
    add("simmpi.engine.fast_collectives", "count", "higher", SIM, cov, True)
    tier = "none by itself: what each tier buys at the paper's shape"
    add("simmpi.engine.tier.kernels_s", "s", "lower", "sim-fig5", tier)
    add("simmpi.engine.tier.waves_s", "s", "lower", "sim-fig5", tier)
    add("simmpi.engine.tier.per_message_s", "s", "lower", "sim-fig5", tier)
    net = "op_p50_ms on sim-heat (per-wave pricing) more than sim-fig5"
    add("simmpi.network.calls", "count", "lower", SIM, net, True)
    add("simmpi.network.elements", "count", "lower", SIM, net, True)
    add("simmpi.network.busy_s", "s", "lower", SIM, net)
    trc = "op_p50_ms on sim-fig5 and sim-heat"
    add("simmpi.tracing.calls", "count", "lower", SIM, trc, True)
    add("simmpi.tracing.records", "count", "lower", SIM, trc, True)
    add("simmpi.tracing.busy_s", "s", "lower", SIM, trc)
    add("simmpi.tracing.merge_s", "s", "lower", "sim-sharded", "op_p50_ms on sim-sharded only")
    guard = "none: no workload is collective-bound; the guard that stays flat"
    add("simmpi.collectives.tsunami_run_s", "s", "lower", "sim-heat", guard)
    add("simmpi.collectives.fast_collectives", "count", "higher", "sim-heat", guard, True)
    shard = "ops_per_s/op_p50_ms on sim-sharded; must leave sim-fig5 alone"
    for name, unit in (
        ("run_s", "s"), ("partition_s", "s"), ("inline1_s", "s"), ("inline1_overhead", "ratio"),
        ("inline2_s", "s"), ("process_overhead_s", "s"), ("spawn_floor_s", "s"),
    ):
        add(f"simmpi.shard.{name}", unit, "lower", "sim-sharded", shard)
    add("simmpi.shard.op_share", "ratio", "higher", "sim-sharded", shard)
    add("simmpi.shard.windows", "count", "lower", "sim-sharded", shard, True)
    add("simmpi.shard.kernel_iterations", "count", "higher", "sim-sharded", shard, True)
    add("simmpi.shard.kernel_deopts", "count", "lower", "sim-sharded", shard, True)

    add("core.query.wire_us", "us", "lower", SERVE, "op_p50_ms on serve-hot")
    for kind in ("montecarlo", "expected_waste", "campaign", "survival", "waste_curve"):
        add(f"core.query.score_ms.{kind}", "ms", "lower", "serve-hot", "ops_per_s on serve-hot")
    add("core.query.build_ms", "ms", "lower", "serve-hot", "none on serve-hot (tables cached)")
    miss = "ops_per_s/op_p50_ms on serve-miss, nothing on serve-hot"
    add("core.query.build_big_ms", "ms", "lower", "serve-miss", miss)
    add("core.query.first_touch_ms", "ms", "lower", "serve-miss", miss)
    add("core.query.survival_cold_ms", "ms", "lower", "serve-miss", "diagnostic")
    add("core.query.coalesce_ratio", "ratio", "lower", "serve-hot",
        "diagnostic: 2 connections cannot build batches")
    for which, owner in (("hot", "serve-hot"), ("big", "serve-miss")):
        name = f"core.tables.nbytes_mb.{which}"
        add(name, "MiB", "lower", owner, f"peak_rss_mb on {owner}", True)
    add("core.montecarlo.samples_per_s", "1/s", "higher", "paper-exhibits",
        "op_p50_ms on paper-exhibits (montecarlo op) and serve-hot")
    add("service.engine.execute_ms", "ms", "lower", SERVE, "op_p50_ms on serve-hot")
    cache = "hit rate ~1 on serve-hot, ~0 on serve-miss; raising it there raises ops_per_s"
    for name, unit, better in (
        ("hits", "count", "higher"), ("misses", "count", "lower"), ("evictions", "count", "lower"),
        ("hit_rate", "ratio", "higher"), ("bytes_mb", "MiB", "lower"),
        ("rss_over_budget", "ratio", "lower"),
    ):
        add(f"service.cache.{name}", unit, better, SERVE, cache)
    for name, better in (
        ("batches", "lower"), ("largest_batch", "higher"),
        ("coalesced", "higher"), ("scoring_passes", "lower"),
    ):
        add(f"service.dispatch.{name}", "count", better, SERVE, "ops_per_s on serve-hot")
    http = "op_p50_ms/op_p95_ms/ops_per_s on serve-hot, <5 % on serve-miss"
    for name, unit in (
        ("connect_ms", "ms"), ("healthz_ms", "ms"), ("overhead_ms", "ms"),
        ("overhead_share", "ratio"), ("send_ms", "ms"), ("first_byte_ms", "ms"),
        ("read_ms", "ms"), ("queue_ms", "ms"), ("p99_ms", "ms"), ("stalls", "count"),
    ):
        add(f"service.http.{name}", unit, "lower", SERVE, http)
    add("service.http.stream_first_chunk_ms", "ms", "lower", "serve-hot", http)
    add("service.http.stream_total_ms", "ms", "lower", "serve-hot", http)
    opn = "recorded, not gated; queueing work cites these"
    for rate in (100, 200, 300):
        add(f"service.open.p50_ms.r{rate}", "ms", "lower", "serve-hot", opn)
        add(f"service.open.p99_ms.r{rate}", "ms", "lower", "serve-hot", opn)
    add("service.open.lag_p99_ms", "ms", "lower", "serve-hot", opn)
    add("service.open.max_rate_ok", "1/s", "higher", "serve-hot", opn)

    fz = "ops_per_s on fuzz-campaign"
    add("fuzz.generate_ms", "ms", "lower", "fuzz-campaign", fz)
    add("fuzz.execute_ms", "ms", "lower", "fuzz-campaign", fz)
    add("fuzz.shrink_s", "s", "lower", "fuzz-campaign", fz)
    add("fuzz.shrink_executions", "count", "lower", "fuzz-campaign", fz, True)
    for cls in (
        "crash", "deadlock", "schedule_divergence", "engine_divergence",
        "model_optimistic", "model_pessimistic", "agree",
    ):
        better = "higher" if cls == "agree" else "lower"
        add(f"fuzz.class.{cls}", "count", better, "fuzz-campaign", fz, True)
    add("fuzz.disagreement_rate", "ratio", "lower", "fuzz-campaign", fz, True)
    add("fuzz.interleave.schedules_per_s", "1/s", "higher", "fuzz-campaign", fz)
    add("fuzz.interleave.divergences", "count", "lower", "fuzz-campaign", fz, True)
    fz_only = "ops_per_s on fuzz-campaign, nothing elsewhere"
    add("hydee.protocol_run_s", "s", "lower", "fuzz-campaign", fz_only)
    add("hydee.recover_s", "s", "lower", "fuzz-campaign", fz_only)
    add("erasure.rs_encode_mb_s", "MB/s", "higher", "fuzz-campaign", fz_only)
    add("erasure.rs_decode_mb_s", "MB/s", "higher", "fuzz-campaign", fz_only)

    ex = "op_p50_ms/ops_per_s on paper-exhibits only"
    for name in (
        "clustering.hierarchical_s", "commgraph.node_graph_s", "core.scenario.build_s",
        "models.evaluate_s", "models.campaign_run_s",
    ):
        add(name, "s", "lower", "paper-exhibits", ex)
    add("trace.overhead_share", "ratio", "lower", ALL, "none: the cost of the instrument")
    add("trace.spans", "count", "lower", ALL, "none: the cost of the instrument")
    return tuple(out)


PER_LAYER = _layers()


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest rank from below: the ``floor(q % of n)``-th smallest sample.
    With a thousand samples this is the usual percentile; with a handful it
    leaves the slowest one out, so one stalled operation in a short run is not
    reported as the run's p95."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.floor(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_rate(rounds) -> float:
    """Median over rounds of ``correct ops ÷ busy seconds``; one burst of
    interference then costs one round, not the whole window."""
    rates = [ops / busy for ops, busy in rounds if busy > 0]
    if not rates:
        raise ValueError("no round with a busy window")
    return statistics.median(rates)


def spread(values) -> float:
    """Distance between the quartiles as a share of the median — the
    acceptance statistic the benchmark contract uses."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(better: str, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    change = (value - base) / base
    return change if better == "lower" else -change
