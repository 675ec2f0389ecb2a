"""Record the Monte-Carlo / campaign / simmpi / fuzzer trajectories in-tree.

Three artifact files at the repo root, one record appended per run:

* ``BENCH_montecarlo.json`` — the failure-sampling hot paths both ways
  (per-event scalar reference vs the batched engine) on the TSUBAME2 paper
  scenario, plus a batched month-long campaign sweep;
* ``BENCH_simmpi.json`` — the §V traced discrete-event execution (1088
  world ranks) timed four ways: the generator cascade reference
  (``use_fast_collectives=False``), the fast-collective per-message run,
  the *wave-native* run (every steady-state p2p loop posted as
  persistent-request waves, ``mode=ExecutionMode.WAVES`` on the app
  config), and the *kernelized* run (the wave loops compiled into closed
  sub-world iteration kernels, ``ExecutionMode.KERNELS``) — asserting
  byte-identical
  traces and bit-identical per-rank clocks across all four, the ≥5×
  cascade floor, (against the last pre-wave record) the ≥1.3×
  wave-over-engine floor, and (against the last pre-kernel record) the
  ≥2× kernel-over-wave floor; plus a
  split-communicator workload (per-iteration group allreduce) with a ≥3×
  floor, a stencil halo workload timed scalar/batched/wave on the
  struct-of-arrays message pool (≥2× over the recorded PR 3 batched
  path), and the end-to-end HydEE protocol run (sender-based logging +
  receive counting live) wave vs per-message;
* ``BENCH_fuzzer.json`` — one steered adversarial fuzz campaign
  (``repro fuzz``): scenarios/s through the full engine+protocol
  executor, classification histogram, per-actor coverage, disagreement
  rate and the shrunken minimal repros.

Each record also carries small ``gate`` measurements (same code paths,
reduced shapes) that ``tests/test_perf_gate.py`` re-runs on every tier-1
verify and compares against the last recorded values, so a >2× regression
of any hot path fails CI rather than silently bending the curve.

Usage::

    PYTHONPATH=src python benchmarks/record_bench.py [--n-samples 2000]
    PYTHONPATH=src python benchmarks/record_bench.py --smoke   # CI job
    PYTHONPATH=src python benchmarks/record_bench.py \
        --out-dir bench-artifacts --diff-baseline   # nightly trajectory

The speedup floors (and the ``--diff-baseline`` report) are enforced
locally and skipped on hosted CI runners (``CI`` set without
``PERF_GATE``): shared runners are not the machine class the in-tree
trajectory describes. Set ``PERF_GATE=1`` to enforce anywhere.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.apps.workload import (
    ExecutionMode,
    FTIWorkload,
    fig5_workload,
    with_mode,
)
from repro.clustering import (
    distributed_clustering,
    hierarchical_clustering,
    naive_clustering,
    size_guided_clustering,
)
from repro.core import (
    montecarlo_scores_scalar,
    paper_scenario,
    query_for,
    run_query,
)
from repro.models import CampaignConfig, CampaignSimulator
from repro.simmpi import EngineConfig

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = ROOT / "BENCH_montecarlo.json"
SIMMPI_ARTIFACT = ROOT / "BENCH_simmpi.json"
FUZZER_ARTIFACT = ROOT / "BENCH_fuzzer.json"
SERVICE_ARTIFACT = ROOT / "BENCH_service.json"
MIN_SPEEDUP = 10.0
MIN_SIMMPI_SPEEDUP = 5.0
MIN_SPLIT_SPEEDUP = 3.0
MIN_P2P_WAVE_SPEEDUP = 2.0
#: Floor of the wave-native fig5 run against the last recorded pre-wave
#: engine baseline (applies exactly once: for the first wave record).
MIN_FIG5_WAVE_SPEEDUP = 1.3
#: Floor of the kernelized fig5 run against the last recorded pre-kernel
#: wave baseline (applies exactly once: for the first kernel record).
MIN_FIG5_KERNEL_SPEEDUP = 2.0
#: Floor of the 4-shard fig5 run against the single-process engine.
#: Parallel shards need parallel hardware, so — unlike the other floors —
#: this one is additionally gated on ``os.cpu_count() >= 4``; hosts with
#: fewer cores record honest (unscaled) numbers alongside their core
#: count instead.
MIN_SHARDED_SPEEDUP = 1.5


def _floors_enforced() -> bool:
    """Whether speedup floors (and baseline diffs) should fail the run.

    Same convention as ``tests/test_perf_gate.py``: enforced locally,
    skipped on hosted CI runners (``CI`` set) unless ``PERF_GATE=1``
    forces them — the recorded baselines describe the machine class that
    maintains the trajectory, not arbitrary shared runners.
    """
    return not bool(os.environ.get("CI")) or bool(os.environ.get("PERF_GATE"))


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=ARTIFACT.parent,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _strategies(scenario):
    return [
        naive_clustering(1024, 32),
        size_guided_clustering(1024, 8),
        distributed_clustering(scenario.placement, 16),
        hierarchical_clustering(
            scenario.node_comm_graph(),
            scenario.placement,
            cost=scenario.partition_cost,
        ),
    ]


def time_montecarlo(scenario, strategies, n_samples: int, seed: int = 42):
    """Time scalar vs batched sampling; assert statistical equivalence.

    The batched path goes through the :class:`ReliabilityQuery` API
    (``query_for`` + ``run_query``) — seed-for-seed identical to the old
    ``montecarlo_scores(..., rng=seed)`` call it replaced.
    """
    per_strategy = []
    scalar_total = batched_total = 0.0
    for clustering in strategies:
        # Warm the lookup-table caches outside the timed region so both
        # paths are measured on identical footing.
        run_query(query_for(scenario, clustering, n_samples=2, seed=0))

        t0 = time.perf_counter()
        scalar = montecarlo_scores_scalar(
            scenario, clustering, n_samples=n_samples, rng=seed
        )
        t1 = time.perf_counter()
        batched = run_query(
            query_for(scenario, clustering, n_samples=n_samples, seed=seed)
        )
        t2 = time.perf_counter()

        restart_mean = batched.value("restart_fraction_mean")
        cat_rate = batched.value("catastrophic_rate")
        if (
            abs(restart_mean - scalar.restart_fraction_mean) >= 0.01
            or abs(cat_rate - scalar.catastrophic_rate) >= 0.03
        ):
            raise RuntimeError(
                f"{clustering.name}: batched and scalar paths disagree — "
                f"restart {restart_mean:.4f} vs "
                f"{scalar.restart_fraction_mean:.4f}, cat rate "
                f"{cat_rate:.4f} vs {scalar.catastrophic_rate:.4f}"
            )

        scalar_s, batched_s = t1 - t0, t2 - t1
        scalar_total += scalar_s
        batched_total += batched_s
        per_strategy.append(
            {
                "clustering": clustering.name,
                "scalar_s": round(scalar_s, 6),
                "batched_s": round(batched_s, 6),
                "speedup": round(scalar_s / batched_s, 1),
                "restart_fraction_mean": round(restart_mean, 6),
                "catastrophic_rate": round(cat_rate, 6),
            }
        )
    return {
        "n_samples": n_samples,
        "scalar_samples_per_s": round(
            n_samples * len(strategies) / scalar_total
        ),
        "batched_samples_per_s": round(
            n_samples * len(strategies) / batched_total
        ),
        "speedup": round(scalar_total / batched_total, 1),
        "per_strategy": per_strategy,
    }


def time_campaign(scenario, strategies, n_runs: int = 3):
    """Time the batched month-long campaign sweep of ``bench_campaign``."""
    simulator = CampaignSimulator(
        scenario.machine,
        CampaignConfig(
            horizon_s=30 * 24 * 3600.0,
            checkpoint_interval_s=1800.0,
            node_mtbf_s=0.25 * 365 * 24 * 3600.0,
        ),
    )
    t0 = time.perf_counter()
    n_failures = 0
    for i, clustering in enumerate(strategies):
        for k in range(n_runs):
            n_failures += simulator.run(clustering, rng=100 * i + k).n_failures
    elapsed = time.perf_counter() - t0
    return {
        "campaigns": len(strategies) * n_runs,
        "total_failures": n_failures,
        "total_s": round(elapsed, 4),
        "campaigns_per_s": round(len(strategies) * n_runs / elapsed, 1),
    }


def measure_batched_montecarlo(
    scenario=None, strategies=None, *, n_samples: int = 2000, repeats: int = 15
) -> float:
    """Batched-path samples/sec (best of ``repeats``) — the CI gate probe.

    One repeat is ~2 ms, so a handful of them can all land inside one
    scheduler hiccup of a busy tier-1 run; fifteen (still < 50 ms) let
    best-of see a quiet slice.
    """
    scenario = scenario or paper_scenario(iterations=5)
    strategies = strategies or _strategies(scenario)
    queries = [
        query_for(scenario, clustering, n_samples=n_samples, seed=42)
        for clustering in strategies
    ]
    for query in queries:  # warm the lookup-table caches
        run_query(query)
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        for query in queries:
            run_query(query)
        elapsed = time.perf_counter() - t0
        best = max(best, n_samples * len(strategies) / elapsed)
    return best


# ---------------------------------------------------------------------------
# simmpi: the §V traced discrete-event execution
# ---------------------------------------------------------------------------


def _fig5_setup(
    nodes: int, app_per_node: int, iterations: int, mode=ExecutionMode.WAVES
):
    """Programs + placement + network of one §V-style traced execution.

    ``mode`` is the app's execution mode (``WAVES`` is the interpreted
    wave loop, ``PER_MESSAGE`` the reference, ``KERNELS`` the production
    shape). Messages, traces and clocks are identical all three ways
    (asserted by :func:`time_simmpi`).
    """
    from repro.machine.tsubame2 import tsubame2_fti_machine

    base = fig5_workload(
        nodes=nodes, app_per_node=app_per_node, iterations=iterations
    )
    workload = FTIWorkload(
        with_mode(base.sim_cfg, mode),
        nodes=nodes,
        app_per_node=app_per_node,
        iterations=iterations,
        trace_cfg=base.trace_cfg,
    )
    network = tsubame2_fti_machine(nodes, app_per_node).network
    return workload.placement, workload.build_programs(), network


def _run_traced(placement, programs, network, *, fast: bool):
    from repro.simmpi.engine import Engine
    from repro.simmpi.tracing import TraceRecorder

    tracer = TraceRecorder(placement.nranks, by_kind=True)
    engine = Engine(
        placement.nranks,
        network=network,
        tracer=tracer,
        config=EngineConfig(use_fast_collectives=fast),
    )
    # Earlier runs leave cyclic garbage (generator frames, request
    # graphs); collect it now so a GC pause triggered by the previous
    # run's debris never lands inside this run's timed region.
    gc.collect()
    t0 = time.perf_counter()
    engine.run(programs)
    elapsed = time.perf_counter() - t0
    return tracer, engine.rank_times(), elapsed


def measure_simmpi(
    *,
    nodes: int = 16,
    app_per_node: int = 4,
    iterations: int = 10,
    repeats: int = 3,
    use_kernels: bool = False,
) -> float:
    """Fast-path rank-iterations/sec of a traced run — the CI gate probe.

    One untimed warm-up run absorbs first-call costs (imports, the network
    model's node-vector cache, NumPy dispatch); the best of ``repeats``
    timed runs is reported so the gate compares warm rates on both sides.
    ``use_kernels`` probes the kernelized steady-state path instead of
    the interpreted wave loop.
    """
    placement, programs, network = _fig5_setup(
        nodes,
        app_per_node,
        iterations,
        ExecutionMode.KERNELS if use_kernels else ExecutionMode.WAVES,
    )
    _run_traced(placement, programs, network, fast=True)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        _, _, elapsed = _run_traced(placement, programs, network, fast=True)
        best = min(best, elapsed)
    return placement.nranks * iterations / best


# -- split-communicator collectives (group-aware fast paths) ---------------


def _sixteen_per_node(rank: int) -> int:
    """Locator for the split/stencil benchmarks (module-level, picklable)."""
    return rank // 16


def _bench_network():
    from repro.simmpi.network import LinkParameters, NetworkModel

    return NetworkModel(
        intra_node=LinkParameters(5e-7, 6.0e9),
        inter_node=LinkParameters(2e-6, 8.0e9),
        locator=_sixteen_per_node,
    )


def _split_workload(group_size: int, iterations: int):
    """The paper's multi-group shape: per-iteration allreduce per group."""

    def program(ctx):
        ctx.advance(1e-6 * ctx.rank)
        grp = yield from ctx.comm.split(color=ctx.rank // group_size)
        value = np.full(16, float(ctx.rank))
        for _ in range(iterations):
            value = yield from grp.allreduce(value)
        return float(value[0])

    return program


def _run_split(nranks: int, group_size: int, iterations: int, *, fast: bool):
    from repro.simmpi.engine import Engine
    from repro.simmpi.tracing import TraceRecorder

    tracer = TraceRecorder(nranks, by_kind=True)
    engine = Engine(
        nranks,
        network=_bench_network(),
        tracer=tracer,
        config=EngineConfig(use_fast_collectives=fast),
    )
    t0 = time.perf_counter()
    results = engine.run(_split_workload(group_size, iterations))
    elapsed = time.perf_counter() - t0
    return results, engine.rank_times(), tracer, elapsed


def measure_simmpi_split(
    *,
    nranks: int = 128,
    group_size: int = 16,
    iterations: int = 10,
    repeats: int = 3,
) -> float:
    """Fast-path rank-iterations/sec of the split workload — CI gate probe."""
    _run_split(nranks, group_size, iterations, fast=True)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        *_, elapsed = _run_split(nranks, group_size, iterations, fast=True)
        best = min(best, elapsed)
    return nranks * iterations / best


def time_simmpi_split(
    *, nranks: int = 256, group_size: int = 16, iterations: int = 25
) -> dict:
    """Time the split-communicator allreduce workload cascade vs fast.

    Asserts the group-aware fast path is byte-identical in traces and
    bit-identical in virtual clocks versus the generator cascade.
    """
    res_slow, clocks_slow, tracer_slow, slow_s = _run_split(
        nranks, group_size, iterations, fast=False
    )
    res_fast, clocks_fast, tracer_fast, fast_s = _run_split(
        nranks, group_size, iterations, fast=True
    )
    if res_slow != res_fast:
        raise RuntimeError("split fast path results diverge from the cascade")
    if clocks_slow != clocks_fast:
        raise RuntimeError("split fast path clocks diverge from the cascade")
    if not np.array_equal(tracer_slow.bytes_matrix, tracer_fast.bytes_matrix):
        raise RuntimeError("split fast path trace bytes diverge from the cascade")
    if not np.array_equal(tracer_slow.count_matrix, tracer_fast.count_matrix):
        raise RuntimeError("split fast path message counts diverge from the cascade")
    return {
        "nranks": nranks,
        "group_size": group_size,
        "groups": nranks // group_size,
        "iterations": iterations,
        "slow_s": round(slow_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(slow_s / fast_s, 1),
        "ranks_per_s": round(nranks * iterations / fast_s),
    }


# -- stencil p2p (message pool + wave posting) -------------------------------


def _stencil_grid(px: int = 32, py: int = 32):
    from repro.apps.stencil import ProcessGrid

    return ProcessGrid(px=px, py=py, nx=8 * px, ny=8 * py)


def _stencil_program(grid, iterations: int):
    """The per-message reference program: isend/irecv/wait per halo edge."""
    from repro.apps.stencil import synthetic_halo_exchange

    def program(ctx):
        for _ in range(iterations):
            yield from synthetic_halo_exchange(ctx.comm, grid, nfields=3)
        return ctx.now

    return program


def _stencil_wave_program(grid, iterations: int):
    """The persistent-wave program: one start + one drain per iteration.

    Same messages, tags and posting order as :func:`_stencil_program` —
    the engine's equivalence contract (and the asserts below) pin traces
    byte-identical and clocks bit-identical between the two.
    """
    from repro.apps.stencil import halo_wave_init

    def program(ctx):
        comm = ctx.comm
        wave, recvs = halo_wave_init(comm, grid, nfields=3)
        start = comm.start_all_op(wave)
        drain = comm.waitall_op(recvs)
        for _ in range(iterations):
            yield start
            yield drain
        return ctx.now

    return program


def _run_stencil(grid, program, *, batched: bool = True):
    from repro.simmpi.engine import Engine
    from repro.simmpi.tracing import TraceRecorder

    tracer = TraceRecorder(grid.nranks, by_kind=True)
    engine = Engine(
        grid.nranks,
        network=_bench_network(),
        tracer=tracer,
        config=EngineConfig(use_batched_p2p=batched),
    )
    t0 = time.perf_counter()
    engine.run(program)
    elapsed = time.perf_counter() - t0
    return engine.rank_times(), tracer, elapsed


def _assert_stencil_equivalence(ref, other, what: str) -> None:
    clocks_ref, tracer_ref, _ = ref
    clocks_other, tracer_other, _ = other
    if clocks_ref != clocks_other:
        raise RuntimeError(f"{what}: virtual clocks diverge from the scalar reference")
    if not np.array_equal(tracer_ref.bytes_matrix, tracer_other.bytes_matrix):
        raise RuntimeError(f"{what}: trace bytes diverge from the scalar reference")
    if not np.array_equal(tracer_ref.count_matrix, tracer_other.count_matrix):
        raise RuntimeError(f"{what}: message counts diverge from the scalar reference")
    if sorted(tracer_ref.kind_matrices) != sorted(tracer_other.kind_matrices) or any(
        not np.array_equal(tracer_ref.kind_matrices[k], tracer_other.kind_matrices[k])
        for k in tracer_ref.kind_matrices
    ):
        raise RuntimeError(f"{what}: per-kind matrices diverge from the scalar reference")


def measure_p2p_wave(
    *, px: int = 32, py: int = 32, iterations: int = 5, repeats: int = 3
) -> float:
    """Wave-path messages/sec of the stencil halo workload — CI gate probe."""
    grid = _stencil_grid(px, py)
    program = _stencil_wave_program(grid, iterations)
    _, tracer, _ = _run_stencil(grid, program)  # warm-up
    msgs = tracer.total_messages
    best = float("inf")
    for _ in range(repeats):
        *_, elapsed = _run_stencil(grid, program)
        best = min(best, elapsed)
    return msgs / best


def time_simmpi_p2p(
    *, px: int = 32, py: int = 32, iterations: int = 10, repeats: int = 3
) -> dict:
    """Time the stencil halo workload three ways on the message pool.

    * per-message **scalar** pricing (``use_batched_p2p=False``) — the
      bit-exact reference;
    * per-message **batched** pricing (PR 3's API shape on the pool);
    * the persistent-request **wave** path (``start_all`` + ``waitall``) —
      the p2p-bound shape the struct-of-arrays pool was built for.

    All three must produce bit-identical per-rank virtual clocks and
    byte-identical traces (asserted here on every run). Runs are
    interleaved and best-of-``repeats`` to damp scheduler noise.
    """
    grid = _stencil_grid(px, py)
    permsg = _stencil_program(grid, iterations)
    wave = _stencil_wave_program(grid, iterations)
    # Warm-ups absorb import and NumPy-dispatch first-call costs.
    _run_stencil(grid, wave)
    _run_stencil(grid, permsg)

    ref = _run_stencil(grid, permsg, batched=False)
    batched = _run_stencil(grid, permsg)
    waved = _run_stencil(grid, wave)
    _assert_stencil_equivalence(ref, batched, "batched p2p pricing")
    _assert_stencil_equivalence(ref, waved, "persistent wave path")
    msgs = ref[1].total_messages

    best = {"scalar": ref[2], "batched": batched[2], "wave": waved[2]}
    for _ in range(repeats - 1):
        best["scalar"] = min(
            best["scalar"], _run_stencil(grid, permsg, batched=False)[2]
        )
        best["batched"] = min(best["batched"], _run_stencil(grid, permsg)[2])
        best["wave"] = min(best["wave"], _run_stencil(grid, wave)[2])

    nranks = grid.nranks
    return {
        "nranks": nranks,
        "iterations": iterations,
        "messages": int(msgs),
        "scalar_s": round(best["scalar"], 4),
        "batched_s": round(best["batched"], 4),
        "wave_s": round(best["wave"], 4),
        "batched_speedup": round(best["scalar"] / best["batched"], 2),
        "wave_speedup_vs_batched": round(best["batched"] / best["wave"], 2),
        "scalar_msgs_per_s": round(msgs / best["scalar"]),
        "batched_msgs_per_s": round(msgs / best["batched"]),
        "wave_msgs_per_s": round(msgs / best["wave"]),
        "ranks_per_s": round(nranks * iterations / best["wave"]),
        "note": (
            "wave numbers use the persistent-request path (one start_all "
            "+ one waitall per rank-iteration) on the struct-of-arrays "
            "message pool; per-message numbers share the pool but pay the "
            "per-message generator API"
        ),
    }


def _pr3_p2p_baseline() -> int | None:
    """PR 3's recorded batched-path throughput (rank-iters/s), if current.

    The pre-pool records are recognizable by a ``p2p`` section without
    ``wave_msgs_per_s`` — their ``ranks_per_s`` measured the per-message
    batched path on the same machine class that records today. The
    baseline (and with it the 2× floor in ``main``) applies only while
    such a record is still the *latest* p2p entry, i.e. exactly once: for
    the first wave-path record. Later re-records are regression-guarded
    by the perf-gate probe against their own trajectory instead.
    """
    if not SIMMPI_ARTIFACT.exists():
        return None
    latest = None
    for record in json.loads(SIMMPI_ARTIFACT.read_text()):
        p2p = record.get("simmpi", {}).get("p2p")
        if p2p:
            latest = p2p
    if latest is None or "wave_msgs_per_s" in latest:
        return None
    return latest.get("ranks_per_s")


def _assert_traced_equal(ref, other, what: str) -> None:
    tracer_ref, clocks_ref = ref
    tracer_other, clocks_other = other
    if not np.array_equal(tracer_ref.bytes_matrix, tracer_other.bytes_matrix):
        raise RuntimeError(f"{what}: trace bytes diverge")
    if not np.array_equal(tracer_ref.count_matrix, tracer_other.count_matrix):
        raise RuntimeError(f"{what}: message counts diverge")
    if sorted(tracer_ref.kind_matrices) != sorted(tracer_other.kind_matrices) or any(
        not np.array_equal(tracer_ref.kind_matrices[k], tracer_other.kind_matrices[k])
        for k in tracer_ref.kind_matrices
    ):
        raise RuntimeError(f"{what}: per-kind matrices diverge")
    if clocks_ref != clocks_other:
        raise RuntimeError(f"{what}: virtual clocks diverge")


def time_simmpi(
    *, nodes: int = 64, app_per_node: int = 16, iterations: int = 10
) -> dict:
    """Time the §V traced run four ways; assert byte-identical traces.

    * **slow** — generator-cascade collectives, per-message p2p loops;
    * **fast** — vectorized collectives, per-message p2p loops (the PR 4
      engine shape, ``ExecutionMode.PER_MESSAGE``);
    * **wave** — vectorized collectives plus wave-native steady-state
      loops (``ExecutionMode.WAVES``, the PR 5 shape);
    * **kernel** — the wave loops compiled into closed sub-world iteration
      kernels (``ExecutionMode.KERNELS``, the production shape).

    All four must produce byte-identical traces and bit-identical
    per-rank virtual clocks. ``ranks_per_s`` counts rank-iterations per
    second of the kernelized traced run (1088 world ranks × the
    iteration count over the wall time).
    """
    placement, programs, network = _fig5_setup(
        nodes, app_per_node, iterations, ExecutionMode.PER_MESSAGE
    )
    tracer_slow, clocks_slow, slow_s = _run_traced(
        placement, programs, network, fast=False
    )
    tracer_fast, clocks_fast, fast_s = _run_traced(
        placement, programs, network, fast=True
    )
    _, programs_wave, _ = _fig5_setup(
        nodes, app_per_node, iterations, ExecutionMode.WAVES
    )
    tracer_wave, clocks_wave, wave_s = _run_traced(
        placement, programs_wave, network, fast=True
    )
    # One untimed kernel warm-up: the kernel run is the first to touch
    # the compile path's NumPy entry points (argsort/unique/reduceat
    # dispatch), first-call costs the three interpreted runs amortized
    # across each other above. Fresh programs — engine state is per-run.
    _, programs_warm, _ = _fig5_setup(
        nodes, app_per_node, iterations, ExecutionMode.KERNELS
    )
    _run_traced(placement, programs_warm, network, fast=True)
    _, programs_kernel, _ = _fig5_setup(
        nodes, app_per_node, iterations, ExecutionMode.KERNELS
    )
    tracer_kernel, clocks_kernel, kernel_s = _run_traced(
        placement, programs_kernel, network, fast=True
    )

    _assert_traced_equal(
        (tracer_slow, clocks_slow),
        (tracer_fast, clocks_fast),
        "fast path vs the cascade",
    )
    _assert_traced_equal(
        (tracer_fast, clocks_fast),
        (tracer_wave, clocks_wave),
        "wave-native programs vs the per-message reference",
    )
    _assert_traced_equal(
        (tracer_wave, clocks_wave),
        (tracer_kernel, clocks_kernel),
        "kernelized steady state vs the interpreted wave loop",
    )

    return {
        "nranks": placement.nranks,
        "iterations": iterations,
        "slow_s": round(slow_s, 4),
        "fast_s": round(fast_s, 4),
        "wave_s": round(wave_s, 4),
        "kernel_s": round(kernel_s, 4),
        "speedup": round(slow_s / fast_s, 1),
        "wave_speedup_vs_permsg": round(fast_s / wave_s, 2),
        "kernel_speedup_vs_wave": round(wave_s / kernel_s, 2),
        "wave_ranks_per_s": round(placement.nranks * iterations / wave_s),
        "ranks_per_s": round(placement.nranks * iterations / kernel_s),
        "traced_messages": int(tracer_kernel.total_messages),
        "gate": {
            "nodes": 16,
            "app_per_node": 4,
            "iterations": 10,
            "ranks_per_s": round(measure_simmpi()),
            "fig5_kernel_ranks_per_s": round(measure_simmpi(use_kernels=True)),
        },
    }


def _pr4_engine_baseline() -> int | None:
    """PR 4's recorded fig5 engine throughput (rank-iters/s), if current.

    Pre-wave records are recognizable by a ``simmpi`` section without
    ``wave_s`` — their ``ranks_per_s`` measured the per-message engine on
    the machine class that records today. Like :func:`_pr3_p2p_baseline`,
    the baseline (and the 1.3× floor in ``main``) applies only while such
    a record is the latest one, i.e. exactly once: for the first
    wave-native record. Later re-records are regression-guarded by the
    perf-gate probe against their own trajectory instead.
    """
    if not SIMMPI_ARTIFACT.exists():
        return None
    latest = None
    for record in json.loads(SIMMPI_ARTIFACT.read_text()):
        simmpi = record.get("simmpi")
        if simmpi:
            latest = simmpi
    if latest is None or "wave_s" in latest:
        return None
    return latest.get("ranks_per_s")


def _pr5_wave_baseline() -> int | None:
    """PR 5's recorded fig5 wave-engine throughput (rank-iters/s), if current.

    Pre-kernel records are recognizable by a ``simmpi`` section with
    ``wave_s`` but no ``kernel_s`` — their ``ranks_per_s`` measured the
    interpreted wave loop. The baseline (and the kernel-speedup floor in
    ``main``) applies only while such a record is the latest one, i.e.
    exactly once: for the first kernelized record. Later re-records are
    regression-guarded by the perf-gate probe against their own
    trajectory instead.
    """
    if not SIMMPI_ARTIFACT.exists():
        return None
    latest = None
    for record in json.loads(SIMMPI_ARTIFACT.read_text()):
        simmpi = record.get("simmpi")
        if simmpi:
            latest = simmpi
    if latest is None or "wave_s" not in latest or "kernel_s" in latest:
        return None
    return latest.get("ranks_per_s")


# -- sharded multi-process engine (conservative-window parallel DES) --------


def _run_sharded(workload, network, *, shards: int, workers: int):
    from repro.simmpi.shard import ShardedEngine
    from repro.simmpi.tracing import TraceRecorder

    tracer = TraceRecorder(workload.nranks, by_kind=True)
    engine = ShardedEngine(
        shards, workers=workers, network=network, tracer=tracer
    )
    gc.collect()
    t0 = time.perf_counter()
    engine.run(workload)
    elapsed = time.perf_counter() - t0
    return tracer, engine.rank_times(), elapsed


def time_sharded(
    *, nodes: int = 64, app_per_node: int = 16, iterations: int = 10
) -> dict:
    """The §V fig5 run on the sharded engine; byte-identity asserted first.

    Runs ``shards ∈ {1, 2, 4}`` with one worker process per shard and
    asserts every run byte-identical (traces) and bit-identical (clocks)
    to the single-process engine *before* recording any timing — a
    sharded number that isn't exact is not a number worth recording.
    ``ranks_per_s`` is the 4-shard rate; ``cores`` records the host's
    parallelism so trajectory readers can tell scaling shortfalls on
    narrow hosts from real regressions (the scaling floor in ``main``
    is gated on ``cores >= 4``).
    """
    from repro.machine.tsubame2 import tsubame2_fti_machine

    workload = fig5_workload(
        nodes=nodes,
        app_per_node=app_per_node,
        iterations=iterations,
        checkpoint_every=25,
    )
    network = tsubame2_fti_machine(nodes, app_per_node).network

    class _World:
        nranks = workload.nranks

    ref_tracer, ref_clocks, single_s = _run_traced(
        _World, workload.build_programs(), network, fast=True
    )
    record: dict = {
        "nranks": workload.nranks,
        "iterations": iterations,
        "cores": os.cpu_count(),
        "single_s": round(single_s, 4),
        "single_ranks_per_s": round(workload.nranks * iterations / single_s),
        "scaling": {},
    }
    for shards in (1, 2, 4):
        tracer, clocks, elapsed = _run_sharded(
            workload, network, shards=shards, workers=shards
        )
        _assert_traced_equal(
            (ref_tracer, ref_clocks),
            (tracer, clocks),
            f"{shards}-shard run vs the single-process engine",
        )
        record["scaling"][str(shards)] = {
            "wall_s": round(elapsed, 4),
            "ranks_per_s": round(workload.nranks * iterations / elapsed),
        }
    record["ranks_per_s"] = record["scaling"]["4"]["ranks_per_s"]
    record["speedup_4shards"] = round(
        single_s / record["scaling"]["4"]["wall_s"], 2
    )
    return record


def time_sharded_10k(
    *, px: int = 64, py: int = 160, iterations: int = 2
) -> dict:
    """A ≥10k-rank traced run: the world size dense recording can't hold.

    10 240 heat-stencil ranks on 4 shards with a sparse (COO) recorder —
    a dense 10240² byte matrix alone is ~840 MB, which is exactly the
    regime the sharded engine plus :class:`SparseTraceRecorder` exist
    for. Sanity-checks structure (message conservation, halo-neighbor
    count) rather than re-running a single-process reference at this
    scale; exactness is pinned by :func:`time_sharded` and the test
    suite on smaller worlds.
    """
    from repro.apps.heat import HeatConfig
    from repro.apps.workload import HeatWorkload
    from repro.simmpi.shard import ShardedEngine
    from repro.simmpi.tracing import SparseTraceRecorder

    workload = HeatWorkload(
        HeatConfig(
            px=px,
            py=py,
            nx=2 * px,
            ny=2 * py,
            iterations=iterations,
            synthetic=True,
        )
    )
    nranks = workload.nranks
    tracer = SparseTraceRecorder(nranks, by_kind=True)
    engine = ShardedEngine(4, workers=4, tracer=tracer)
    gc.collect()
    t0 = time.perf_counter()
    engine.run(workload)
    elapsed = time.perf_counter() - t0
    messages = int(tracer.total_messages)
    if messages <= 0 or messages % iterations != 0:
        raise RuntimeError(
            f"10k-rank run traced {messages} messages "
            f"(not a multiple of {iterations} iterations)"
        )
    return {
        "nranks": nranks,
        "iterations": iterations,
        "shards": 4,
        "workers": 4,
        "recorder": "sparse",
        "wall_s": round(elapsed, 4),
        "ranks_per_s": round(nranks * iterations / elapsed),
        "traced_messages": messages,
        "traced_bytes": int(tracer.total_bytes),
    }


def _smoke_sharded() -> None:
    """Sharded-vs-single byte-identity on tiny shapes (the CI smoke cut).

    Sweeps the fig5 world over shard counts with in-process and
    multi-process hosting — worker-count invariance is part of the
    contract, so both paths run with the equivalence asserts live.
    """
    from repro.machine.tsubame2 import tsubame2_fti_machine

    workload = fig5_workload(
        nodes=4, app_per_node=4, iterations=3, checkpoint_every=2
    )
    network = tsubame2_fti_machine(4, 4).network

    class _World:
        nranks = workload.nranks

    ref_tracer, ref_clocks, _ = _run_traced(
        _World, workload.build_programs(), network, fast=True
    )
    for shards in (1, 2, 4):
        for workers in (0, 2):
            tracer, clocks, _ = _run_sharded(
                workload, network, shards=shards, workers=workers
            )
            _assert_traced_equal(
                (ref_tracer, ref_clocks),
                (tracer, clocks),
                f"smoke sharded x{shards} (workers={workers})",
            )


# -- protocol end-to-end (sender-based logging + receive counting live) -----


def _protocol_setup(*, use_waves: bool, iterations: int):
    from repro.apps.tsunami import TsunamiConfig, TsunamiSimulation
    from repro.clustering import naive_clustering
    from repro.machine.machine import Machine

    cfg = TsunamiConfig(
        px=4,
        py=4,
        nx=32,
        ny=32,
        iterations=iterations,
        allreduce_every=5,
        mode=ExecutionMode.KERNELS if use_waves else ExecutionMode.PER_MESSAGE,
    )
    return TsunamiSimulation(cfg), Machine(4, 4), naive_clustering(16, 4)


def _run_protocol(*, use_waves: bool, iterations: int, checkpoint_every: int):
    from repro.hydee.protocol import run_with_protocol

    sim, machine, clustering = _protocol_setup(
        use_waves=use_waves, iterations=iterations
    )
    t0 = time.perf_counter()
    result = run_with_protocol(
        sim,
        machine,
        clustering,
        iterations=iterations,
        checkpoint_every=checkpoint_every,
    )
    return result, time.perf_counter() - t0


def assert_protocol_runs_equal(ref, waved) -> None:
    """Assert two protocol runs are indistinguishable end-to-end.

    The single owner of the protocol-level equivalence contract —
    bit-identical states and clocks, identical receive counts, and
    channel-identical logs (tags, sizes, payloads) — shared by this
    recorder and the ``bench_protocol_end2end.py`` equivalence tests.
    Raises :class:`AssertionError` naming the first divergence.
    """
    for rank, (ref_state, wave_state) in enumerate(zip(ref.states, waved.states)):
        for key in ("eta", "u", "v"):
            assert np.array_equal(ref_state[key], wave_state[key]), (
                f"rank {rank}: state field {key!r} diverges"
            )
    assert ref.engine.rank_times() == waved.engine.rank_times(), (
        "virtual clocks diverge"
    )
    assert ref.engine.recv_counts == waved.engine.recv_counts, (
        "receive counts diverge"
    )
    ref_log, wave_log = ref.log, waved.log
    assert sorted(ref_log.channels) == sorted(wave_log.channels), (
        "logged channels diverge"
    )
    for channel, entries in ref_log.channels.items():
        others = wave_log.channels[channel]
        assert len(entries) == len(others), f"log channel {channel} diverges"
        for entry, other in zip(entries, others):
            assert (entry.tag, entry.nbytes) == (other.tag, other.nbytes), (
                f"log channel {channel} diverges"
            )
            if isinstance(entry.payload, np.ndarray):
                assert np.array_equal(entry.payload, other.payload), (
                    f"log channel {channel}: payload diverges"
                )
    assert ref_log.logged_bytes == wave_log.logged_bytes, (
        "logged bytes diverge"
    )


def time_protocol_end2end(
    *, iterations: int = 16, checkpoint_every: int = 6
) -> dict:
    """Time the full HydEE protocol run wave-native vs per-message.

    This is the end-to-end shape of ``bench_protocol_end2end.py``: real
    payloads, sender-based message logging and receive counting live
    (which pins collectives to the cascade — the wave win here is pure
    p2p). :func:`assert_protocol_runs_equal` pins the two runs
    indistinguishable.
    """
    permsg, permsg_s = _run_protocol(
        use_waves=False, iterations=iterations, checkpoint_every=checkpoint_every
    )
    waved, wave_s = _run_protocol(
        use_waves=True, iterations=iterations, checkpoint_every=checkpoint_every
    )
    assert_protocol_runs_equal(permsg, waved)
    wave_log = waved.log

    return {
        "nranks": 16,
        "iterations": iterations,
        "checkpoint_every": checkpoint_every,
        "logged_messages": int(wave_log.logged_messages),
        "permsg_s": round(permsg_s, 4),
        "wave_s": round(wave_s, 4),
        "wave_speedup": round(permsg_s / wave_s, 2),
    }


# -- schedule-interleaving exploration (seeded drain-order sweeps) ----------


def time_interleaving(
    *,
    nodes: int = 8,
    app_per_node: int = 2,
    iterations: int = 4,
    n_schedules: int = 24,
) -> dict:
    """Sweep seeded drain-order interleavings of the fig5 control traffic.

    Two contracts are pinned before the rate lands:

    * ``schedule_seed=None`` **is** the canonical drain — an Engine
      passed the explicit exploration kwargs produces byte-identical
      traces and bit-identical virtual clocks to a default-constructed
      one on the fig5 world, and records no schedule trace;
    * the fig5 control traffic is schedule-invariant — every seeded
      interleaving in the sweep must match canonical bit for bit
      (``findings == []``; the nightly CI sweep hunts violations of
      this at thousands of seeds).

    ``schedules_per_s`` prices full traced fig5 runs per second under
    randomized batch permutation. Exploration gates the iteration
    kernels off (non-canonical schedules deopt), so this is interpreted
    wave-engine throughput, not the kernel rate.
    """
    from repro.fuzz import InterleavingSpec, sweep
    from repro.simmpi.engine import Engine
    from repro.simmpi.tracing import TraceRecorder

    placement, programs, network = _fig5_setup(nodes, app_per_node, iterations)
    tracer_ref, clocks_ref, _ = _run_traced(
        placement, programs, network, fast=True
    )

    _, programs_explicit, _ = _fig5_setup(nodes, app_per_node, iterations)
    tracer = TraceRecorder(placement.nranks, by_kind=True)
    engine = Engine(
        placement.nranks,
        network=network,
        tracer=tracer,
        config=EngineConfig(schedule_seed=None, schedule_trace=None),
    )
    engine.run(programs_explicit)
    _assert_traced_equal(
        (tracer_ref, clocks_ref),
        (tracer, engine.rank_times()),
        "explicit schedule_seed=None vs the default engine",
    )
    if engine.schedule_trace is not None:
        raise RuntimeError(
            "canonical run recorded a schedule trace — exploration leaked "
            "into the schedule_seed=None path"
        )

    spec = InterleavingSpec(
        nodes=nodes, app_per_node=app_per_node, iterations=iterations
    )
    gc.collect()
    report = sweep(spec, n_schedules=n_schedules, shrink=False)
    if report.findings:
        raise RuntimeError(
            "fig5 control traffic diverged under seeded schedules: "
            + "; ".join(f.describe() for f in report.findings)
        )
    return {
        "workload": spec.workload,
        "nranks": placement.nranks,
        "iterations": iterations,
        "schedules": report.n_schedules,
        "permuted_batches": report.permuted_batches,
        "wall_s": round(report.wall_seconds, 4),
        "schedules_per_s": round(report.schedules_per_s, 2),
        "note": (
            "canonical schedule_seed=None pinned byte-identical to the "
            "default engine; every seeded schedule matched canonical"
        ),
    }


def _smoke_interleaving() -> None:
    """A sub-second schedule sweep: equivalence live plus one real find.

    The tiny fti sweep must stay schedule-invariant (every seeded
    interleaving matches canonical bit for bit while actually permuting
    batches), and the race-demo sweep must find its legal wildcard
    deadlock and carry it through the shrink → repro-dict → replay
    pipeline.
    """
    from repro.fuzz import InterleavingSpec, replay_interleaving, sweep
    from repro.fuzz.interleave import DEADLOCK, finding_to_dict

    fti = sweep(
        InterleavingSpec(nodes=2, app_per_node=2, iterations=2),
        n_schedules=3,
        shrink=False,
    )
    if fti.findings:
        raise RuntimeError("tiny fti world diverged under seeded schedules")
    if fti.permuted_batches == 0:
        raise RuntimeError("fti sweep never permuted a batch")

    race_spec = InterleavingSpec(workload="race-demo")
    race = sweep(race_spec, n_schedules=12)
    if not race.findings:
        raise RuntimeError("race-demo sweep missed its wildcard deadlock")
    finding = race.findings[0]
    observed, expected = replay_interleaving(
        finding_to_dict(race_spec, finding)
    )
    if observed != expected or expected != DEADLOCK:
        raise RuntimeError(
            f"race-demo repro replayed as {observed!r}, recorded {expected!r}"
        )


# -- adversarial fuzzer campaign (model falsification throughput) -----------


def time_fuzzer(*, budget: int = 120, seed: int = 42) -> dict:
    """Run one steered fuzz campaign and report its summary record.

    The record is :meth:`CampaignReport.to_record` — scenarios/s,
    classification histogram, per-actor coverage, disagreement rate and
    the shrunken repros — i.e. the campaign's falsification throughput,
    not a microbenchmark. Asserts the campaign is seed-deterministic in
    its classification stream before recording (the acceptance criterion
    of the fuzz subsystem, cheap to re-check here on a small prefix).
    """
    from repro.fuzz import FuzzCampaignConfig, run_campaign

    report = run_campaign(FuzzCampaignConfig(budget=budget, seed=seed))
    # Re-run a small prefix and pin determinism before the record lands.
    prefix = run_campaign(
        FuzzCampaignConfig(budget=min(8, budget), seed=seed, shrink_limit=0)
    )
    if prefix.scenarios != report.scenarios[: len(prefix.scenarios)]:
        raise RuntimeError("fuzz campaign scenario stream is not seed-stable")
    if [r.classification for r in prefix.results] != [
        r.classification for r in report.results[: len(prefix.results)]
    ]:
        raise RuntimeError("fuzz campaign classifications are not seed-stable")
    return report.to_record()


def _smoke_fuzzer() -> None:
    """One scenario per actor type through the executor, asserts live.

    Composes a single-actor scenario for each registered adversary and
    executes it end to end: the classification must be a known class, a
    scenario that kills nodes must force the engine off its kernels
    (``failure-injection`` deopt recorded), and the whole sweep stays
    well under two seconds on the tiny default shape.
    """
    from repro.fuzz import (
        ACTOR_NAMES,
        CLASSIFICATIONS,
        FuzzShape,
        compose_scenario,
        execute_scenario,
    )
    from repro.util.rng import resolve_rng

    shape = FuzzShape()
    for i, name in enumerate(ACTOR_NAMES):
        scenario = compose_scenario(
            shape, (name,), resolve_rng(1000 + i), seed=i
        )
        result = execute_scenario(scenario)
        if result.classification not in CLASSIFICATIONS:
            raise RuntimeError(
                f"actor {name}: unknown classification {result.classification}"
            )
        killed = scenario.schedule.killed_nodes()
        if (
            killed
            and len(killed) < shape.nnodes  # total wipeout never deopts
            and not any(
                "failure-injection" in d for d, _ in result.kernel_deopts
            )
        ):
            raise RuntimeError(
                f"actor {name}: node kills did not deopt the engine kernels"
            )


# -- reliability-planning service (campaign-as-a-service) -------------------


def time_service(
    *,
    workers: int = 0,
    n_samples: int = 2000,
    concurrency: int = 8,
    repeat: int = 3,
) -> dict:
    """Benchmark the HTTP reliability service; equivalence gated first.

    Starts a private server, asserts every query of the standing mix —
    plus one streamed sweep — bit-equal to direct in-process calls
    (:func:`repro.service.loadgen.verify_equivalence`: service ==
    ``run_query``), and only then records the concurrent load numbers.
    The equivalence pass doubles as the warm-up: it touches every table
    the load run needs, so the recorded rate is the warm, cache-hitting
    rate a long-lived server would serve at.
    """
    from repro.service import ServiceClient, ServiceThread
    from repro.service.loadgen import (
        default_query_mix,
        run_load,
        sweep_query,
        verify_equivalence,
    )

    mix = default_query_mix(n_samples=n_samples)
    stream = sweep_query()
    with ServiceThread(workers=workers) as running:
        client = ServiceClient(running.host, running.port)
        checks = verify_equivalence(client, mix, stream=stream)
        report = run_load(
            running.host,
            running.port,
            mix,
            concurrency=concurrency,
            repeat=repeat,
        )
        if report.errors:
            raise RuntimeError(
                f"{report.errors} queries failed under load — not recording"
            )
        stats = client.stats()
    return {
        "equivalence_checks": checks,
        "mix_size": len(mix),
        "n_samples": n_samples,
        **report.to_dict(),
        "dispatcher_batches": stats["dispatcher"]["batches"],
        "largest_batch": stats["dispatcher"]["largest_batch"],
    }


def _smoke_service() -> None:
    """The service self-test (equivalence + load + stream) at smoke scale,
    in-process and against a two-worker shard pool."""
    from repro.service.loadgen import run_self_test

    run_self_test(workers=0, verbose=False)
    run_self_test(workers=2, verbose=False)


def _append(path: Path, record: dict) -> None:
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")


#: (record section path, human label) pairs compared by --diff-baseline.
#: Only rates measured at fixed shapes belong here: the diff must stay
#: like-with-like whatever --n-samples the invocation used (which is why
#: the Monte-Carlo entry is the canonical-shape gate probe, not the
#: shape-dependent batched_samples_per_s headline).
_BASELINE_RATES: dict[str, list[tuple[tuple[str, ...], str]]] = {
    "BENCH_montecarlo.json": [
        (
            ("montecarlo", "gate_batched_samples_per_s"),
            "batched Monte-Carlo gate samples/s",
        ),
        (("campaign", "campaigns_per_s"), "campaign sweeps/s"),
    ],
    "BENCH_simmpi.json": [
        (("simmpi", "ranks_per_s"), "fig5 traced rank-iters/s"),
        (("simmpi", "split", "ranks_per_s"), "split-collective rank-iters/s"),
        (("simmpi", "p2p", "wave_msgs_per_s"), "p2p wave msgs/s"),
        (("simmpi", "protocol", "wave_s"), "protocol end-to-end seconds"),
        (
            ("simmpi", "interleaving", "schedules_per_s"),
            "interleaving schedules/s",
        ),
        (("simmpi", "sharded", "ranks_per_s"), "sharded fig5 rank-iters/s"),
    ],
    "BENCH_fuzzer.json": [
        (("fuzzer", "scenarios_per_s"), "fuzz scenarios/s"),
    ],
    "BENCH_service.json": [
        (("service", "queries_per_s"), "service queries/s"),
    ],
}


def _dig(record: dict, path: tuple[str, ...]):
    node = record
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def snapshot_baselines() -> dict[str, dict]:
    """Latest committed record per ``BENCH_*.json``, read before recording.

    Must be captured *before* the run appends its own record, so
    ``--diff-baseline`` without ``--out-dir`` compares against the
    previously committed trajectory rather than the record just written.
    """
    committed: dict[str, dict] = {}
    for name in _BASELINE_RATES:
        path = ROOT / name
        if path.exists():
            trajectory = json.loads(path.read_text())
            if trajectory:
                committed[name] = trajectory[-1]
    return committed


def diff_against_baseline(
    fresh: dict[str, dict], committed: dict[str, dict]
) -> bool:
    """Report fresh throughput vs the committed ``BENCH_*.json`` baselines.

    ``fresh`` maps artifact names to the record just measured and
    ``committed`` to the pre-run snapshot from :func:`snapshot_baselines`.
    Prints one line per tracked rate with the fresh/committed ratio.
    Report-only by default; with floors enforced (local runs, or
    ``PERF_GATE=1`` on CI) a >2× shortfall on any throughput rate makes
    the function return ``False`` so callers can fail the job.
    """
    ok = True
    for name, rates in _BASELINE_RATES.items():
        if name not in committed or name not in fresh:
            continue
        for path, label in rates:
            base = _dig(committed[name], path)
            new = _dig(fresh[name], path)
            if base is None or new is None or not base:
                continue
            # Rates (…_per_s, ranks_per_s, …) grow when things improve;
            # wall-time sections (…_s) shrink.
            is_seconds = path[-1].endswith("_s") and not path[-1].endswith("per_s")
            ratio = base / new if is_seconds else new / base
            flag = ""
            if ratio < 0.5:
                flag = "  <-- >2x below committed baseline"
                ok = False
            print(f"baseline diff: {label}: {new} vs {base} ({ratio:.2f}x){flag}")
    return ok


def _smoke_wave_apps() -> None:
    """Per-message vs wave vs kernel equivalence of the heat and
    spectral apps.

    The tsunami app's wave and kernel paths are covered by the smoke
    fig5 run; this sweeps the other kernel-eligible steady-state loops
    on tiny shapes.
    """
    from repro.apps.heat import HeatConfig, HeatSimulation
    from repro.apps.spectral import SpectralConfig, SpectralSimulation
    from repro.simmpi.engine import Engine
    from repro.simmpi.tracing import TraceRecorder

    for name, sim_cls, cfg in (
        ("heat", HeatSimulation, HeatConfig(px=2, py=2, nx=8, ny=8, iterations=4)),
        (
            "heat-synthetic",
            HeatSimulation,
            HeatConfig(px=2, py=2, nx=8, ny=8, iterations=4, synthetic=True),
        ),
        (
            "spectral",
            SpectralSimulation,
            SpectralConfig(nranks=4, n=8, iterations=3, synthetic=True),
        ),
    ):
        runs = {}
        for label, mode in (
            ("permsg", ExecutionMode.PER_MESSAGE),
            ("wave", ExecutionMode.WAVES),
            ("kernel", ExecutionMode.KERNELS),
        ):
            nranks = 4
            tracer = TraceRecorder(nranks, by_kind=True)
            engine = Engine(nranks, network=_bench_network(), tracer=tracer)
            engine.run(sim_cls(with_mode(cfg, mode)).make_program())
            runs[label] = (tracer, engine.rank_times())
        _assert_traced_equal(
            runs["permsg"], runs["wave"], f"{name} wave vs per-message"
        )
        _assert_traced_equal(
            runs["wave"], runs["kernel"], f"{name} kernel vs wave"
        )


def run_smoke() -> None:
    """Exercise every bench path on shrunken shapes; assert equivalence only.

    This is the CI smoke job: every code path the full benchmark drives
    (batched Monte-Carlo vs scalar, campaign sweep, the three-way traced
    simmpi run — cascade / per-message engine / wave-native programs —
    split-communicator collectives, the three-way p2p stencil comparison
    including the persistent-wave path, the wave-native heat/spectral
    loops, and the end-to-end protocol run wave vs per-message) runs end
    to end with its equivalence asserts live, in well under two minutes.
    No JSON is written and no perf floor is enforced — CI machines are
    not the machine class the in-tree trajectory was recorded on.
    """
    t_start = time.perf_counter()
    scenario = paper_scenario(iterations=2)
    strategies = _strategies(scenario)
    mc = time_montecarlo(scenario, strategies, n_samples=60)
    print(f"smoke montecarlo: {mc['speedup']}x over scalar (equivalent)")
    campaign = time_campaign(scenario, strategies, n_runs=1)
    print(f"smoke campaign: {campaign['campaigns']} campaigns ok")

    simmpi = time_simmpi(nodes=4, app_per_node=4, iterations=3)
    print(
        f"smoke simmpi: {simmpi['nranks']} ranks, cascade/fast/wave/kernel "
        f"traces identical"
    )
    split = time_simmpi_split(nranks=32, group_size=8, iterations=4)
    print(f"smoke split: {split['groups']} groups, traces identical")
    p2p = time_simmpi_p2p(px=8, py=8, iterations=4, repeats=1)
    print(
        f"smoke p2p: {p2p['messages']} messages, scalar/batched/wave "
        f"clocks and traces identical"
    )
    _smoke_wave_apps()
    print("smoke wave apps: heat/spectral wave and kernel paths identical")
    _smoke_sharded()
    print(
        "smoke sharded: fig5 over 1/2/4 shards, in-process and "
        "multi-process, byte-identical to the single engine"
    )
    protocol = time_protocol_end2end(iterations=8, checkpoint_every=3)
    print(
        f"smoke protocol: {protocol['logged_messages']} logged messages, "
        f"wave run indistinguishable end-to-end"
    )
    _smoke_interleaving()
    print(
        "smoke interleaving: fti sweep schedule-invariant, race-demo "
        "deadlock replayed from its repro"
    )
    t_fuzz = time.perf_counter()
    _smoke_fuzzer()
    print(
        f"smoke fuzzer: one scenario per actor classified "
        f"({time.perf_counter() - t_fuzz:.1f}s)"
    )
    t_service = time.perf_counter()
    _smoke_service()
    print(
        f"smoke service: self-test equivalent at workers=0 and workers=2 "
        f"({time.perf_counter() - t_service:.1f}s)"
    )
    print(f"smoke ok in {time.perf_counter() - t_start:.1f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-samples", type=int, default=2000)
    parser.add_argument(
        "--iterations",
        type=int,
        default=5,
        help="tsunami iterations for the scenario graph (perf-irrelevant)",
    )
    parser.add_argument(
        "--simmpi-iterations",
        type=int,
        default=10,
        help="tsunami iterations of the traced 1088-rank simmpi benchmark",
    )
    parser.add_argument(
        "--skip-simmpi",
        action="store_true",
        help="only rerun the Monte-Carlo/campaign sections",
    )
    parser.add_argument(
        "--skip-montecarlo",
        action="store_true",
        help="only rerun the simmpi sections",
    )
    parser.add_argument(
        "--skip-fuzzer",
        action="store_true",
        help="skip the adversarial fuzz-campaign section",
    )
    parser.add_argument(
        "--skip-service",
        action="store_true",
        help="skip the reliability-service load benchmark",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=0,
        help="worker processes of the recorded service run (0 = in-process; "
        "single-core record hosts should keep 0)",
    )
    parser.add_argument(
        "--fuzz-budget",
        type=int,
        default=120,
        help="scenario budget of the recorded fuzz campaign",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: every bench path on tiny shapes, equivalence "
        "asserts only, no JSON writes, no perf floors (<2 min)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="write/append the BENCH_*.json records under this directory "
        "instead of the repo root (the nightly bench-trajectory job "
        "stages its artifacts here)",
    )
    parser.add_argument(
        "--diff-baseline",
        action="store_true",
        help="after measuring, report fresh throughput against the "
        "committed BENCH_*.json baselines (report-only on CI unless "
        "PERF_GATE=1)",
    )
    args = parser.parse_args()

    if args.smoke:
        run_smoke()
        return

    enforce = _floors_enforced()
    if not enforce:
        print(
            "perf floors disabled (CI without PERF_GATE): recording/report "
            "only on this runner class"
        )
    out_root = args.out_dir if args.out_dir is not None else ROOT
    mc_artifact = out_root / ARTIFACT.name
    simmpi_artifact = out_root / SIMMPI_ARTIFACT.name
    committed_baselines = snapshot_baselines()
    fresh: dict[str, dict] = {}

    stamp = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
    }

    if not args.skip_montecarlo:
        scenario = paper_scenario(iterations=args.iterations)
        strategies = _strategies(scenario)
        record = {
            **stamp,
            "scenario": scenario.name,
            "montecarlo": time_montecarlo(scenario, strategies, args.n_samples),
            "campaign": time_campaign(scenario, strategies),
        }
        # The gate probe always runs its canonical shape (n_samples=2000),
        # decoupled from --n-samples: tests/test_perf_gate.py and the
        # nightly --diff-baseline both compare against it, so it must be
        # like-with-like across invocations.
        record["montecarlo"]["gate_batched_samples_per_s"] = round(
            measure_batched_montecarlo(scenario, strategies)
        )

        # Gate before recording: a regressed run must fail loudly, not bend
        # the in-tree trajectory.
        mc = record["montecarlo"]
        if enforce and mc["speedup"] < MIN_SPEEDUP:
            raise RuntimeError(
                f"batched Monte-Carlo regressed to {mc['speedup']}x "
                f"(floor {MIN_SPEEDUP}x) — not recording"
            )
        fresh[ARTIFACT.name] = record
        _append(mc_artifact, record)
        print(
            f"montecarlo: scalar {mc['scalar_samples_per_s']}/s, "
            f"batched {mc['batched_samples_per_s']}/s "
            f"({mc['speedup']}x)"
        )
        print(
            f"campaign: {record['campaign']['campaigns']} campaigns in "
            f"{record['campaign']['total_s']}s"
        )
        print(f"recorded -> {mc_artifact}")

    if not args.skip_simmpi:
        pr3_baseline = _pr3_p2p_baseline()
        pr4_baseline = _pr4_engine_baseline()
        pr5_baseline = _pr5_wave_baseline()
        simmpi = time_simmpi(iterations=args.simmpi_iterations)
        simmpi["split"] = time_simmpi_split()
        simmpi["p2p"] = time_simmpi_p2p()
        simmpi["protocol"] = time_protocol_end2end()
        simmpi["interleaving"] = time_interleaving()
        simmpi["sharded"] = time_sharded(iterations=args.simmpi_iterations)
        simmpi["sharded"]["world10k"] = time_sharded_10k()
        simmpi["gate"]["split_ranks_per_s"] = round(measure_simmpi_split())
        simmpi["gate"]["p2p_wave_msgs_per_s"] = round(measure_p2p_wave())
        if enforce and simmpi["speedup"] < MIN_SIMMPI_SPEEDUP:
            raise RuntimeError(
                f"simmpi fast path regressed to {simmpi['speedup']}x "
                f"(floor {MIN_SIMMPI_SPEEDUP}x) — not recording"
            )
        if enforce and simmpi["split"]["speedup"] < MIN_SPLIT_SPEEDUP:
            raise RuntimeError(
                f"split-communicator fast path at {simmpi['split']['speedup']}x "
                f"(floor {MIN_SPLIT_SPEEDUP}x) — not recording"
            )
        sharded = simmpi["sharded"]
        if (
            enforce
            and (sharded["cores"] or 0) >= 4
            and sharded["speedup_4shards"] < MIN_SHARDED_SPEEDUP
        ):
            raise RuntimeError(
                f"4-shard fig5 run at {sharded['speedup_4shards']}x over "
                f"the single-process engine on {sharded['cores']} cores "
                f"(floor {MIN_SHARDED_SPEEDUP}x) — not recording"
            )
        if pr4_baseline is not None:
            # The honest before/after of the wave-native port: PR 4's
            # recorded per-message engine on the full traced fig5 run vs
            # the wave-native programs, same machine class, same shape.
            # The floor applies only while a pre-wave record is the
            # latest; later re-records are guarded by the perf-gate probe.
            simmpi["pr4_engine_ranks_per_s"] = pr4_baseline
            speedup = simmpi["ranks_per_s"] / pr4_baseline
            simmpi["wave_speedup_vs_pr4"] = round(speedup, 2)
            if enforce and speedup < MIN_FIG5_WAVE_SPEEDUP:
                raise RuntimeError(
                    f"wave-native fig5 run at {speedup:.2f}x over the "
                    f"recorded PR 4 engine (floor {MIN_FIG5_WAVE_SPEEDUP}x) "
                    f"— not recording"
                )
        if pr5_baseline is not None:
            # The honest before/after of the kernel compiler: PR 5's
            # recorded interpreted wave engine on the full traced fig5
            # run vs the kernelized steady state, same machine class,
            # same shape. The floor applies only while a pre-kernel
            # record is the latest; later re-records are guarded by the
            # perf-gate probe.
            simmpi["pr5_wave_ranks_per_s"] = pr5_baseline
            speedup = simmpi["ranks_per_s"] / pr5_baseline
            simmpi["kernel_speedup_vs_pr5"] = round(speedup, 2)
            if enforce and speedup < MIN_FIG5_KERNEL_SPEEDUP:
                raise RuntimeError(
                    f"kernelized fig5 run at {speedup:.2f}x over the "
                    f"recorded PR 5 wave engine (floor "
                    f"{MIN_FIG5_KERNEL_SPEEDUP}x) — not recording"
                )
        p2p = simmpi["p2p"]
        if pr3_baseline is not None:
            # The honest before/after: PR 3's recorded per-message batched
            # path vs the pool's wave path, same machine class, same
            # workload shape. The floor only applies while a pre-pool
            # baseline is in the trajectory; later re-records are guarded
            # by the perf-gate probe instead.
            p2p["pr3_batched_ranks_per_s"] = pr3_baseline
            speedup = p2p["ranks_per_s"] / pr3_baseline
            p2p["wave_speedup_vs_pr3"] = round(speedup, 2)
            if enforce and speedup < MIN_P2P_WAVE_SPEEDUP:
                raise RuntimeError(
                    f"p2p wave path at {speedup:.2f}x over the recorded "
                    f"PR 3 batched path (floor {MIN_P2P_WAVE_SPEEDUP}x) — "
                    f"not recording"
                )
        simmpi_record = {**stamp, "simmpi": simmpi}
        fresh[SIMMPI_ARTIFACT.name] = simmpi_record
        _append(simmpi_artifact, simmpi_record)
        print(
            f"simmpi: {simmpi['nranks']} ranks x {simmpi['iterations']} iters "
            f"— cascade {simmpi['slow_s']}s, fast {simmpi['fast_s']}s, wave "
            f"{simmpi['wave_s']}s, kernel {simmpi['kernel_s']}s "
            f"({simmpi['speedup']}x cascade→fast, "
            f"{simmpi['wave_speedup_vs_permsg']}x fast→wave, "
            f"{simmpi['kernel_speedup_vs_wave']}x wave→kernel, "
            f"{simmpi['ranks_per_s']} rank-iters/s)"
        )
        split = simmpi["split"]
        print(
            f"simmpi split: {split['groups']} groups x {split['group_size']} "
            f"ranks x {split['iterations']} allreduces — cascade "
            f"{split['slow_s']}s, fast {split['fast_s']}s ({split['speedup']}x)"
        )
        print(
            f"simmpi p2p: {p2p['nranks']}-rank stencil — scalar "
            f"{p2p['scalar_s']}s, batched {p2p['batched_s']}s, wave "
            f"{p2p['wave_s']}s ({p2p['wave_msgs_per_s']} msgs/s)"
        )
        protocol = simmpi["protocol"]
        print(
            f"simmpi protocol: 16-rank end-to-end — per-message "
            f"{protocol['permsg_s']}s, wave {protocol['wave_s']}s "
            f"({protocol['wave_speedup']}x, runs indistinguishable)"
        )
        ilv = simmpi["interleaving"]
        print(
            f"simmpi interleaving: {ilv['schedules']} seeded schedules of "
            f"the fig5 control traffic — {ilv['permuted_batches']} permuted "
            f"batches, 0 divergences ({ilv['schedules_per_s']}/s)"
        )
        sharded = simmpi["sharded"]
        print(
            f"simmpi sharded: {sharded['nranks']} ranks on 1/2/4 shards — "
            f"single {sharded['single_s']}s, 4-shard "
            f"{sharded['scaling']['4']['wall_s']}s "
            f"({sharded['speedup_4shards']}x on {sharded['cores']} core(s), "
            f"byte-identical)"
        )
        w10k = sharded["world10k"]
        print(
            f"simmpi sharded 10k: {w10k['nranks']} ranks x "
            f"{w10k['iterations']} iters in {w10k['wall_s']}s "
            f"({w10k['ranks_per_s']} rank-iters/s, sparse trace, "
            f"{w10k['traced_messages']} messages)"
        )
        print(f"recorded -> {simmpi_artifact}")

    if not args.skip_fuzzer:
        fuzzer = time_fuzzer(budget=args.fuzz_budget)
        fuzzer_record = {**stamp, "fuzzer": fuzzer}
        fresh[FUZZER_ARTIFACT.name] = fuzzer_record
        fuzzer_artifact = out_root / FUZZER_ARTIFACT.name
        _append(fuzzer_artifact, fuzzer_record)
        print(
            f"fuzzer: {fuzzer['scenarios']} scenarios in "
            f"{fuzzer['wall_seconds']}s ({fuzzer['scenarios_per_s']}/s), "
            f"disagreement rate {100 * fuzzer['disagreement_rate']:.1f}%, "
            f"{len(fuzzer['shrunken'])} shrunken repros"
        )
        print(f"recorded -> {fuzzer_artifact}")

    if not args.skip_service:
        service = time_service(workers=args.service_workers)
        service_record = {**stamp, "service": service}
        fresh[SERVICE_ARTIFACT.name] = service_record
        service_artifact = out_root / SERVICE_ARTIFACT.name
        _append(service_artifact, service_record)
        print(
            f"service: {service['equivalence_checks']} equivalence checks, "
            f"then {service['queries']} queries at "
            f"{service['queries_per_s']}/s (p50 {service['p50_ms']}ms, "
            f"p99 {service['p99_ms']}ms, hit rate "
            f"{100 * service['cache_hit_rate']:.0f}%, "
            f"{service['coalesced']} coalesced into "
            f"{service['scoring_passes']} passes)"
        )
        print(f"recorded -> {service_artifact}")

    if args.diff_baseline:
        ok = diff_against_baseline(fresh, committed_baselines)
        if not ok and _floors_enforced():
            raise SystemExit(
                "baseline diff found a >2x shortfall (PERF_GATE enforcement)"
            )


if __name__ == "__main__":
    main()
