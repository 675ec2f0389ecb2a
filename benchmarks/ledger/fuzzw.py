"""``fuzz-campaign``: what a ``repro fuzz`` user waits for.

One cycle is one campaign of :data:`BUDGET` scenarios plus one shrink of at
most :data:`SHRINK_CAP` executions (``run_campaign`` with ``workers=0``),
seeded from the workload seed and the cycle index; an operation is one
scenario, timed in aggregate (cycle wall ÷ scenarios). A scenario fails if
the campaign returns fewer results than its budget or classifies any as
``crash``; the classification histogram is recorded, not pinned (ROADMAP item
4 intends to change it).
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

from harness import (
    Context,
    Outcome,
    clock,
    median_seconds,
    own_peak_rss_mb,
    repeat_setup,
    run_cycles,
)
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.failures.events import FailureEvent
from repro.fuzz import (
    CLASSIFICATIONS,
    FuzzCampaignConfig,
    FuzzShape,
    InterleavingSpec,
    run_campaign,
    sweep,
)
from repro.hydee.protocol import run_with_protocol
from repro.hydee.recovery import RecoveryManager

BUDGET = {"full": 32, "smoke": 16}
TRACED_BUDGET = {"full": 48, "smoke": 16}
SWEEP_SCHEDULES = {"full": 200, "smoke": 20}
#: A repro shrinks in 5 to 18 executions (up to a quarter of a cycle); capping
#: it keeps a cycle's cost from hinging on how far one repro happens to shrink.
#: The traced campaign shrinks under the default cap and reports the count.
SHRINK_CAP = 8


def campaign_ops(report, budget: int, wall: float) -> list[tuple[float, str | None]]:
    """One ``(seconds, failure)`` per budgeted scenario of one campaign."""
    classes = [r.classification for r in report.results]
    classes += ["missing"] * (budget - len(classes))
    return [
        (wall / budget, f"scenario classified {c}" if c in ("crash", "missing") else None)
        for c in classes
    ]


def fuzz_campaign(ctx: Context) -> Outcome:
    out = Outcome()
    budget = BUDGET[ctx.shape]
    rec = ctx.recorder

    def campaign(index, budget=budget, shrink_limit=1, shrink_executions=SHRINK_CAP):
        config = FuzzCampaignConfig(
            budget=budget,
            seed=1000 * ctx.seed + index,
            workers=0,
            shrink_limit=shrink_limit,
            shrink_executions=shrink_executions,
        )
        t0 = clock()
        report = run_campaign(config)
        return report, clock() - t0

    def cycle(index):
        report, wall = campaign(index)
        return campaign_ops(report, budget, wall)

    _, out.setup_s = repeat_setup(ctx, lambda: campaign(-1, budget=16), repeats=2)
    if rec is None:
        run_cycles(
            out, ctx.seconds, cycle, min_cycles=1 if ctx.smoke else 3, read_rss=own_peak_rss_mb
        )
        return out

    # Traced: one campaign of fixed budget, so the class counts are exact.
    import repro.fuzz.actors as actors
    import repro.fuzz.executor as executor
    import repro.hydee.protocol as protocol

    # `repro.fuzz` rebinds the name `shrink` to the function, hiding the module.
    shrink_module = sys.modules["repro.fuzz.shrink"]
    traced_budget = TRACED_BUDGET[ctx.shape]
    rec.instrument(actors, "compose_scenario", "fuzz.compose_scenario")
    rec.instrument(executor, "execute_scenario", "fuzz.execute_scenario")
    rec.instrument(shrink_module, "shrink", "fuzz.shrink")
    rec.instrument(protocol, "run_with_protocol", "hydee.run_with_protocol")
    rec.instrument(RecoveryManager, "recover", "hydee.recover")
    rec.instrument(ReedSolomonCode, "encode", "erasure.rs_encode")
    rec.instrument(ReedSolomonCode, "decode", "erasure.rs_decode")
    try:
        with rec.operation(0, "fuzz-campaign.op"):
            report, wall = campaign(0, traced_budget, shrink_limit=2, shrink_executions=48)
    finally:
        rec.restore()
    for took, failure in campaign_ops(report, traced_budget, wall):
        out.attempted += 1
        out.samples.append(took)
        if failure:
            out.fail(failure)
    out.rounds.append((traced_budget - out.failed, wall))
    plain_report, plain_wall = campaign(0, traced_budget, shrink_limit=2, shrink_executions=48)
    if plain_report.classifications != report.classifications:
        out.fail("traced and untraced campaigns of one seed classified differently")

    shrink_spans = {i for i, s in enumerate(rec.spans) if s[0] == "fuzz.shrink"}
    top_level = [
        s[2] - s[1]
        for s in rec.spans
        if s[0] == "fuzz.execute_scenario" and s[3] not in shrink_spans
    ]
    layers = out.layers
    layers["fuzz.generate_ms"] = 1e3 * statistics.median(rec.durations("fuzz.compose_scenario"))
    layers["fuzz.execute_ms"] = 1e3 * statistics.median(top_level)
    shrinks = rec.durations("fuzz.shrink")
    layers["fuzz.shrink_s"] = statistics.median(shrinks) if shrinks else 0.0
    layers["fuzz.shrink_executions"] = (
        statistics.mean(o.executions for o in report.shrunken) if report.shrunken else 0.0
    )
    for name in CLASSIFICATIONS:
        layers[f"fuzz.class.{name}"] = report.classifications.get(name, 0)
    layers["fuzz.disagreement_rate"] = report.disagreement_rate
    layers["trace.overhead_share"] = wall / plain_wall - 1.0

    swept = sweep(InterleavingSpec(workload="fti"), n_schedules=SWEEP_SCHEDULES[ctx.shape])
    layers["fuzz.interleave.schedules_per_s"] = swept.schedules_per_s
    layers["fuzz.interleave.divergences"] = len(swept.findings)

    # The 16-rank 4x4 tsunami under the protocol, then one node failure.
    shape = FuzzShape(iterations=16, checkpoint_every=6)
    machine, clustering, sim = shape.machine(), shape.clustering(), shape.simulation()
    t0 = clock()
    run = run_with_protocol(
        sim, machine, clustering,
        iterations=shape.iterations, checkpoint_every=shape.checkpoint_every,
        keep_versions=shape.keep_versions,
    )
    layers["hydee.protocol_run_s"] = clock() - t0
    manager = RecoveryManager(sim, machine, run)
    t0 = clock()
    manager.recover(FailureEvent(kind="node", nodes=(1,)), failure_iteration=14)
    layers["hydee.recover_s"] = clock() - t0

    # Reed-Solomon at the fuzz shape: k = m = nodes per cluster, blobs as
    # large as the checkpoints that protocol run just wrote.
    stats = run.checkpointer.stats
    blob = max(1, stats.local_bytes // max(1, stats.local_writes))
    code = ReedSolomonCode(k=shape.cluster_nodes, m=shape.cluster_nodes)
    data = np.random.default_rng(ctx.seed).integers(0, 256, (code.k, blob), dtype=np.uint8)
    parity = code.encode(data)
    survivors = {code.k + j: parity[j] for j in range(code.m)}
    mb = code.k * blob / 1e6
    layers["erasure.rs_encode_mb_s"] = mb / median_seconds(lambda: code.encode(data), 50)
    layers["erasure.rs_decode_mb_s"] = mb / median_seconds(lambda: code.decode(survivors), 50)
    if not np.array_equal(code.decode(survivors), data):
        out.fail("Reed-Solomon decode of all-parity survivors differs from the data")
    return out
