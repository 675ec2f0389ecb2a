"""The three simulator workloads: ``sim-fig5``, ``sim-heat``, ``sim-sharded``.

Inputs are fixed by the paper's shapes (the workload seed is recorded, not
consumed): simulated statistics must be identical across any perf or
simplicity change, so every operation's trace and clocks are digested and
compared with the pins in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics

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
from repro.apps import ExecutionMode, HeatConfig, HeatWorkload, TsunamiConfig, fig5_workload
from repro.apps.workload import FTIWorkload, TsunamiWorkload, with_mode
from repro.machine.tsubame2 import tsubame2_fti_machine, tsubame2_machine
from repro.simmpi import Engine, NetworkModel, ShardedEngine, TraceRecorder, partition_workload
from repro.simmpi import shard as shard_module

FIG5 = {
    "full": dict(nodes=64, app_per_node=16, iterations=100, checkpoint_every=25),
    "smoke": dict(nodes=16, app_per_node=16, iterations=20, checkpoint_every=5),
}
HEAT = {
    "full": dict(px=32, py=32, nx=256, ny=256, iterations=20),
    "smoke": dict(px=8, py=8, nx=64, ny=64, iterations=20),
}
#: Fewest operations in a full-shape window (a smoke window needs one): the
#: window outlasts ``--seconds`` until they are done.
MIN_OPS = {"sim-fig5": 8, "sim-heat": 12, "sim-sharded": 5}


# -- timing subclasses handed to the engine's public injection points --------


class TimedNetwork(NetworkModel):
    """``network=`` that spans and counts every pricing call."""

    def __init__(self, base: NetworkModel, recorder):
        super().__init__(base.intra_node, base.inter_node, base.node_of)
        self._rec = recorder
        self.calls = 0
        self.elements = 0

    def transfer_time(self, src, dst, nbytes):
        self.calls += 1
        self.elements += 1
        index = self._rec.begin("simmpi.network.transfer_time")
        try:
            return super().transfer_time(src, dst, nbytes)
        finally:
            self._rec.end(index)

    def transfer_times(self, src, dests, nbytes):
        self.calls += 1
        self.elements += int(np.size(dests))
        index = self._rec.begin("simmpi.network.transfer_times")
        try:
            return super().transfer_times(src, dests, nbytes)
        finally:
            self._rec.end(index)


class TimedTracer(TraceRecorder):
    """``tracer=`` that spans and counts every recording call."""

    def __init__(self, nranks: int, recorder):
        super().__init__(nranks, by_kind=True)
        self._rec = recorder
        self.calls = 0

    def record(self, src, dst, nbytes, kind="p2p"):
        self.calls += 1
        index = self._rec.begin("simmpi.tracing.record")
        try:
            super().record(src, dst, nbytes, kind)
        finally:
            self._rec.end(index)

    def record_many(self, srcs, dsts, nbytes, kind="p2p", *, repeats=1):
        self.calls += 1
        index = self._rec.begin("simmpi.tracing.record_many")
        try:
            super().record_many(srcs, dsts, nbytes, kind, repeats=repeats)
        finally:
            self._rec.end(index)

    def merge(self, other):
        index = self._rec.begin("simmpi.tracing.merge")
        try:
            super().merge(other)
        finally:
            self._rec.end(index)


# -- operations and their check ------------------------------------------------


def digest(tracer: TraceRecorder, clocks) -> dict:
    def sha(array) -> str:
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

    return {
        "bytes_sha256": sha(tracer.bytes_matrix),
        "count_sha256": sha(tracer.count_matrix),
        "clock_sha256": sha(np.asarray(clocks, dtype=np.float64)),
        "messages": int(tracer.total_messages),
        "bytes": int(tracer.total_bytes),
    }


def mismatch(got: dict, pin: dict | None) -> str | None:
    if pin is None:
        return "no pinned digest for this shape (run --repin)"
    bad = [key for key in pin if got.get(key) != pin[key]]
    return f"digest differs from pin in {bad}" if bad else None


def engine_op(make_workload, network, tracer_factory=None, rec=None):
    """Build the rank programs and run them on a fresh ``Engine`` with a dense
    by-kind tracer; returns ``(engine, tracer, build_s)``."""
    span = rec.span if rec is not None else (lambda _name: contextlib.nullcontext())
    t0 = clock()
    with span("apps.build_programs"):
        workload = make_workload()
        programs = workload.build_programs()
    build_s = clock() - t0
    nranks = workload.nranks
    tracer = tracer_factory(nranks) if tracer_factory else TraceRecorder(nranks, by_kind=True)
    engine = Engine(nranks, network=network, tracer=tracer)
    with span("simmpi.engine.run"):
        engine.run(programs)
    return engine, tracer, build_s


def _engine_workload(ctx: Context, out: Outcome, make_workload, network, pin, iterations: int):
    """Shared body of ``sim-fig5`` and ``sim-heat``: warm-up, then either the
    untraced window or the traced operations with their layer numbers."""
    _, out.setup_s = repeat_setup(ctx, lambda: engine_op(make_workload, network), repeats=2)

    def plain_cycle(_index):
        t0 = clock()
        engine, tracer, _ = engine_op(make_workload, network)
        clocks = engine.rank_times()
        took = clock() - t0
        return [(took, mismatch(digest(tracer, clocks), pin))]

    rec = ctx.recorder
    if rec is None:
        min_ops = 1 if ctx.smoke else MIN_OPS[ctx.workload]
        run_cycles(out, ctx.seconds, plain_cycle, min_cycles=min_ops, read_rss=own_peak_rss_mb)
        return None

    timed_net = TimedNetwork(network, rec)
    per_op = []
    engines = []

    def traced_cycle(index):
        calls0, elems0 = timed_net.calls, timed_net.elements
        t0 = clock()
        with rec.operation(index, f"{ctx.workload}.op"):
            engine, tracer, build_s = engine_op(
                make_workload, timed_net, lambda n: TimedTracer(n, rec), rec
            )
            clocks = engine.rank_times()
        took = clock() - t0
        per_op.append(
            dict(
                build_s=build_s,
                net_calls=timed_net.calls - calls0,
                net_elements=timed_net.elements - elems0,
                trace_calls=tracer.calls,
                records=int(tracer.total_messages),
            )
        )
        engines[:] = [engine]  # only the last one's counters are read
        return [(took, mismatch(digest(tracer, clocks), pin))]

    run_cycles(out, ctx.seconds / 2, traced_cycle, min_cycles=2)
    traced_p50 = statistics.median(out.samples)
    plain = Outcome()
    run_cycles(plain, 0.0, plain_cycle, min_cycles=2)

    selfs = rec.self_times()
    run_total, run_self, net_busy, trace_busy = [], [], {}, {}
    for span, self_s in zip(rec.spans, selfs):
        name, start, end, _parent, op_id = span
        if name == "simmpi.engine.run":
            run_total.append(end - start)
            run_self.append(self_s)
        elif name.startswith("simmpi.network."):
            net_busy[op_id] = net_busy.get(op_id, 0.0) + (end - start)
        elif name.startswith("simmpi.tracing."):
            trace_busy[op_id] = trace_busy.get(op_id, 0.0) + (end - start)
    run_s = statistics.median(run_total)
    first, last = per_op[0], engines[-1]
    deopts = last.kernel_deopts
    named = ("partial-world", "capture-send")
    out.layers.update(
        {
            "apps.build_programs_s": statistics.median(o["build_s"] for o in per_op),
            "simmpi.engine.run_s": run_s,
            "simmpi.engine.self_s": statistics.median(run_self),
            "simmpi.engine.msgs_per_s": first["records"] / run_s,
            "simmpi.engine.kernel_runs": last.kernel_runs,
            "simmpi.engine.kernel_iterations": last.kernel_iterations,
            "simmpi.engine.kernel_coverage": last.kernel_iterations / iterations,
            "simmpi.engine.kernel_deopts": sum(deopts.values()),
            "simmpi.engine.deopt.partial-world": deopts.get("partial-world", 0),
            "simmpi.engine.deopt.capture-send": deopts.get("capture-send", 0),
            "simmpi.engine.deopt.other": sum(n for r, n in deopts.items() if r not in named),
            "simmpi.engine.fast_collectives": last.fast_collectives_run,
            "simmpi.network.calls": first["net_calls"],
            "simmpi.network.elements": first["net_elements"],
            "simmpi.network.busy_s": statistics.median(net_busy.values()) if net_busy else 0.0,
            "simmpi.tracing.calls": first["trace_calls"],
            "simmpi.tracing.records": first["records"],
            "simmpi.tracing.busy_s": statistics.median(trace_busy.values()),
            "trace.overhead_share": traced_p50 / statistics.median(plain.samples) - 1.0,
        }
    )
    out.attempted += plain.attempted
    out.failed += plain.failed
    out.failures += plain.failures
    return statistics.median(plain.samples)


def sim_fig5(ctx: Context) -> Outcome:
    out = Outcome()
    shape = FIG5[ctx.shape]
    network = tsubame2_fti_machine(shape["nodes"], shape["app_per_node"]).network
    pin = ctx.pins.get("sim-fig5", {}).get(ctx.shape)
    _engine_workload(ctx, out, lambda: fig5_workload(**shape), network, pin, shape["iterations"])
    if ctx.recorder is not None:
        base = fig5_workload(**shape)
        for mode in ExecutionMode:
            workload = FTIWorkload(
                with_mode(base.sim_cfg, mode),
                nodes=base.nodes,
                app_per_node=base.app_per_node,
                iterations=base.iterations,
                trace_cfg=base.trace_cfg,
            )
            t0 = clock()
            engine, tracer, _ = engine_op(lambda w=workload: w, network)
            took = clock() - t0
            out.attempted += 1
            failure = mismatch(digest(tracer, engine.rank_times()), pin)
            if failure:
                out.fail(f"tier {mode.value}: {failure}")
            out.layers[f"simmpi.engine.tier.{mode.name.lower()}_s"] = took
    return out


def heat_network(shape: dict):
    """TSUBAME2 links with the heat ranks placed 16 to a node."""
    return tsubame2_machine(max(1, shape["px"] * shape["py"] // 16), 16).network


def sim_heat(ctx: Context) -> Outcome:
    out = Outcome()
    shape = HEAT[ctx.shape]
    network = heat_network(shape)
    pin = ctx.pins.get("sim-heat", {}).get(ctx.shape)
    real_p50 = _engine_workload(
        ctx, out, lambda: HeatWorkload(HeatConfig(**shape)), network, pin, shape["iterations"]
    )
    if ctx.recorder is not None:
        synthetic_s = median_seconds(
            lambda: engine_op(lambda: HeatWorkload(HeatConfig(synthetic=True, **shape)), network), 1
        )
        out.layers["apps.heat_payload_s"] = real_p50 - synthetic_s
        # The `repro sim --workload tsunami` shape at this world size.
        cfg = TsunamiConfig(
            px=shape["px"], py=shape["py"], nx=shape["nx"], ny=shape["ny"],
            iterations=24, synthetic=True, allreduce_every=4,
        )
        t0 = clock()
        engine, _, _ = engine_op(lambda: TsunamiWorkload(cfg), network)
        out.layers["simmpi.collectives.tsunami_run_s"] = clock() - t0
        out.layers["simmpi.collectives.fast_collectives"] = engine.fast_collectives_run
    return out


def sim_sharded(ctx: Context) -> Outcome:
    out = Outcome()
    shape = FIG5[ctx.shape]
    network = tsubame2_fti_machine(shape["nodes"], shape["app_per_node"]).network
    pin = ctx.pins.get("sim-fig5", {}).get(ctx.shape)
    rec = ctx.recorder

    def sharded(shards, workers, workload=None, timed_tracer=False):
        """One operation, timed like ``sim-fig5``'s: build the workload, run
        it, read the clocks."""
        t0 = clock()
        workload = workload or fig5_workload(**shape)
        nranks = workload.nranks
        tracer = TimedTracer(nranks, rec) if timed_tracer else TraceRecorder(nranks, by_kind=True)
        engine = ShardedEngine(shards, workers=workers, network=network, tracer=tracer)
        engine.run(workload)
        clocks = engine.rank_times()
        return engine, tracer, clocks, clock() - t0

    def cycle(index):
        if rec is None:
            engine, tracer, clocks, took = sharded(2, 2)
        else:
            with rec.operation(index, "sim-sharded.op"):
                engine, tracer, clocks, took = sharded(2, 2, timed_tracer=True)
        engines[:] = [engine]  # only the last one's counters are read
        return [(took, mismatch(digest(tracer, clocks), pin))]

    engines = []
    _, out.setup_s = repeat_setup(ctx, lambda: cycle(-1), repeats=1)
    if rec is None:
        run_cycles(
            out, ctx.seconds, cycle,
            min_cycles=1 if ctx.smoke else MIN_OPS["sim-sharded"],
            read_rss=lambda: own_peak_rss_mb(children=True),
        )
        return out

    rec.spans.clear()  # the warm-up ran before the instrumented window
    rec.instrument(ShardedEngine, "run", "simmpi.shard.run")
    rec.instrument(shard_module, "partition_workload", "simmpi.shard.partition_workload")
    try:
        run_cycles(out, ctx.seconds / 3, cycle, min_cycles=1 if ctx.smoke else 2)
    finally:
        rec.restore()
    engine = engines[-1]
    run_s = statistics.median(out.samples)
    op_total = sum(rec.durations("sim-sharded.op"))

    def probe(label, shards, workers, workload=None, check=True):
        _engine, tracer, clocks, took = sharded(shards, workers, workload)
        out.attempted += 1
        if check:
            failure = mismatch(digest(tracer, clocks), pin)
            if failure:
                out.fail(f"{label}: {failure}")
        return took, tracer

    inline1_s, _ = probe("inline1", 1, 0)
    inline2_s, merged = probe("inline2", 2, 0)
    spawn_floor_s, _ = probe(
        "spawn-floor", 2, 2,
        HeatWorkload(HeatConfig(px=2, py=1, nx=8, ny=8, iterations=1)), check=False,
    )
    engine_run_s = median_seconds(
        lambda: engine_op(lambda: fig5_workload(**shape), network), 1 if ctx.smoke else 2
    )
    workload = fig5_workload(**shape)
    partition_s = median_seconds(lambda: partition_workload(workload, 2))
    target = TraceRecorder(workload.nranks, by_kind=True)
    target.merge(merged)
    merge_s = median_seconds(lambda: target.merge(merged))
    untraced = sharded(2, 2)[3]
    out.layers.update(
        {
            "simmpi.shard.run_s": run_s,
            "simmpi.shard.partition_s": partition_s,
            "simmpi.shard.inline1_s": inline1_s,
            "simmpi.shard.inline1_overhead": inline1_s / engine_run_s,
            "simmpi.shard.inline2_s": inline2_s,
            "simmpi.shard.process_overhead_s": run_s - inline2_s,
            "simmpi.shard.spawn_floor_s": spawn_floor_s,
            "simmpi.shard.op_share": sum(rec.durations("simmpi.shard.run")) / op_total,
            "simmpi.shard.windows": engine.windows_run,
            "simmpi.shard.kernel_iterations": engine.kernel_iterations,
            "simmpi.shard.kernel_deopts": sum(engine.kernel_deopts.values()),
            "simmpi.tracing.merge_s": merge_s,
            "trace.overhead_share": run_s / untraced - 1.0,
        }
    )
    return out
