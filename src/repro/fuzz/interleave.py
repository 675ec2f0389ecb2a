"""Focused interleaving sweeps: many schedules of one concrete workload.

The fuzzer's `interleave` actor explores schedules of the synthetic
differential world *per scenario*; this module is the complementary
hammer — take one fixed workload and drive the engine's seeded
schedule exploration across thousands of seeds, comparing every explored
schedule against the canonical one. Two workloads:

* ``"fti"`` — the §V fig5 world (stencil + FTI encoders with ready
  notifications, readiness-gather waves and the Reed–Solomon ring). The
  control traffic is counting-satisfiable, so *any* divergence — result,
  clocks, trace bytes, or a deadlock — is a real concurrency bug. This
  is what the nightly CI sweep runs.
* ``"race-demo"`` — a three-rank wildcard race that legally deadlocks
  under roughly half of all schedules. It exists so the divergence →
  shrink → repro-file → replay pipeline itself is exercised end to end
  by fast tests.

A finding serializes to a versioned ``"kind": "interleaving"`` repro
file; ``python -m repro fuzz --replay`` re-executes it from the recorded
:class:`~repro.simmpi.ScheduleTrace` and exits nonzero if the failure
class changed. Traces are first shrunk by greedily reverting permuted
batches to canonical order while the failure class holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi import (
    ANY_SOURCE,
    DeadlockError,
    Engine,
    EngineConfig,
    ScheduleTrace,
    TraceRecorder,
)

WORKLOADS = ("fti", "race-demo")

#: Failure classes a sweep can find (also what repro files record).
DEADLOCK = "schedule_deadlock"
MISMATCH = "schedule_mismatch"


@dataclass(frozen=True)
class InterleavingSpec:
    """One sweep workload, fully determined by its fields."""

    workload: str = "fti"
    nodes: int = 4
    app_per_node: int = 2
    iterations: int = 3
    checkpoint_every: int = 2

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}"
            )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "nodes": self.nodes,
            "app_per_node": self.app_per_node,
            "iterations": self.iterations,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InterleavingSpec":
        return cls(
            workload=data["workload"],
            nodes=int(data["nodes"]),
            app_per_node=int(data["app_per_node"]),
            iterations=int(data["iterations"]),
            checkpoint_every=int(data["checkpoint_every"]),
        )


def _race_demo_program(ctx):
    """Rank 0 takes ANY_SOURCE then specifically rank 2; schedules where
    rank 2's send posts first starve the second receive."""
    comm = ctx.comm
    if ctx.rank == 0:
        first, status = yield from comm.recv_status(source=ANY_SOURCE, tag=0)
        second = yield from comm.recv(source=2, tag=0)
        return (status.source, first, second)
    yield from comm.send(f"from{ctx.rank}", dest=0, tag=0)
    return ctx.rank


def build_world(spec: InterleavingSpec):
    """``(programs, nranks, network)`` of the spec's workload."""
    if spec.workload == "race-demo":
        return _race_demo_program, 3, None

    import numpy as np

    from repro.apps.tsunami import TsunamiConfig, TsunamiSimulation
    from repro.apps.workload import ExecutionMode
    from repro.ftilib.tracesim import FTITraceConfig, make_fti_world_programs
    from repro.machine.placement import FTIPlacement
    from repro.machine.tsubame2 import tsubame2_fti_machine

    n_app = spec.nodes * spec.app_per_node
    px = int(np.sqrt(n_app))
    py = n_app // px
    cfg = TsunamiConfig(
        px=px,
        py=py,
        nx=32 * px,
        ny=32 * py,
        iterations=spec.iterations,
        synthetic=True,
        allreduce_every=0,
        mode=ExecutionMode.WAVES,
    )
    sim = TsunamiSimulation(cfg)
    placement = FTIPlacement(spec.nodes, spec.app_per_node)
    programs = make_fti_world_programs(
        sim,
        placement,
        iterations=spec.iterations,
        trace_cfg=FTITraceConfig(checkpoint_every=spec.checkpoint_every),
    )
    network = tsubame2_fti_machine(spec.nodes, spec.app_per_node).network
    return programs, placement.nranks, network


@dataclass(frozen=True)
class ScheduleOutcome:
    """One schedule's comparable observation."""

    status: str  # "done" | "deadlock"
    signature: tuple  # finished-flags + clocks + trace bytes
    blocked: tuple[int, ...] = ()
    trace: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def failure_kind(self, canonical: "ScheduleOutcome") -> str | None:
        """``None`` when equivalent to ``canonical``, else the class."""
        if self.status == "deadlock":
            return DEADLOCK
        if self.signature != canonical.signature:
            return MISMATCH
        return None


def run_schedule(
    spec: InterleavingSpec, schedule: int | ScheduleTrace | None = None
) -> ScheduleOutcome:
    """Run the workload once under one schedule: canonical (``None``),
    seeded or a replayed trace (see ``EngineConfig.schedule``)."""
    programs, nranks, network = build_world(spec)
    tracer = TraceRecorder(nranks)
    engine = Engine(
        nranks,
        network=network,
        tracer=tracer,
        config=EngineConfig(schedule=schedule),
    )
    trace: tuple = ()
    try:
        results = engine.run(programs)
    except DeadlockError as err:
        if engine.schedule_trace is not None:
            trace = engine.schedule_trace.entries
        return ScheduleOutcome(
            status="deadlock",
            signature=("deadlock", tuple(sorted(err.blocked))),
            blocked=tuple(sorted(err.blocked)),
            trace=trace,
        )
    if engine.schedule_trace is not None:
        trace = engine.schedule_trace.entries
    signature = (
        "done",
        tuple(r is not None for r in results),
        tuple(engine.rank_times()),
        tracer.bytes_matrix.tobytes(),
        tracer.count_matrix.tobytes(),
    )
    return ScheduleOutcome(status="done", signature=signature, trace=trace)


def shrink_trace(
    spec: InterleavingSpec,
    trace: tuple[tuple[int, tuple[int, ...]], ...],
    kind: str,
    canonical: ScheduleOutcome,
    *,
    max_executions: int = 48,
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], int]:
    """Greedily revert permuted batches to canonical order while the
    failure class holds; returns ``(minimal trace, executions used)``."""
    executions = 0
    current = ScheduleTrace.from_entries(trace)
    improved = True
    while improved and executions < max_executions:
        improved = False
        for ordinal, _ in current.entries:
            if executions >= max_executions:
                break
            candidate = current.without_ordinal(ordinal)
            outcome = run_schedule(spec, candidate)
            executions += 1
            if outcome.failure_kind(canonical) == kind:
                current = candidate
                improved = True
                break
    return current.entries, executions


@dataclass(frozen=True)
class InterleavingFinding:
    """One diverging schedule, shrunk and ready to serialize."""

    seed: int
    kind: str  # DEADLOCK | MISMATCH
    blocked: tuple[int, ...]
    trace: tuple[tuple[int, tuple[int, ...]], ...]

    def describe(self) -> str:
        extra = f" blocked {list(self.blocked)}" if self.blocked else ""
        return (
            f"seed {self.seed}: {self.kind}{extra} "
            f"({len(self.trace)} permuted batches)"
        )


@dataclass
class InterleavingSweepReport:
    """What a sweep produced, plus the BENCH record fields."""

    spec: InterleavingSpec
    seeds: tuple[int, ...]
    findings: list[InterleavingFinding]
    permuted_batches: int
    wall_seconds: float
    shrink_executions: int = 0

    @property
    def n_schedules(self) -> int:
        return len(self.seeds)

    @property
    def schedules_per_s(self) -> float:
        if not self.wall_seconds:
            return 0.0
        return self.n_schedules / self.wall_seconds

    def to_record(self) -> dict:
        """The BENCH_interleaving.json payload."""
        kinds: dict[str, int] = {}
        for finding in self.findings:
            kinds[finding.kind] = kinds.get(finding.kind, 0) + 1
        return {
            "section": "interleaving",
            "spec": self.spec.to_dict(),
            "schedules": self.n_schedules,
            "seed_range": [min(self.seeds), max(self.seeds)]
            if self.seeds
            else [],
            "permuted_batches": self.permuted_batches,
            "wall_seconds": round(self.wall_seconds, 3),
            "schedules_per_s": round(self.schedules_per_s, 2),
            "findings": dict(sorted(kinds.items())),
            "shrink_executions": self.shrink_executions,
        }

    def summary(self) -> str:
        lines = [
            f"interleaving sweep [{self.spec.workload}]: "
            f"{self.n_schedules} schedules in {self.wall_seconds:.1f}s "
            f"({self.schedules_per_s:.1f}/s, "
            f"{self.permuted_batches} permuted batches)",
            f"divergences: {len(self.findings)}",
        ]
        for finding in self.findings[:8]:
            lines.append("  " + finding.describe())
        if len(self.findings) > 8:
            lines.append(f"  ... and {len(self.findings) - 8} more")
        return "\n".join(lines)


def sweep(
    spec: InterleavingSpec,
    *,
    n_schedules: int = 100,
    seed_start: int = 0,
    shrink: bool = True,
    max_findings: int = 8,
) -> InterleavingSweepReport:
    """Explore ``n_schedules`` seeded interleavings of the workload.

    Seeds are the contiguous range ``[seed_start, seed_start +
    n_schedules)`` so a nightly log line pins the whole sweep. Findings
    beyond ``max_findings`` are counted but not shrunk (the sweep is
    report-only; the first few minimal repros are what a human reads).
    """
    import time

    started = time.perf_counter()
    canonical = run_schedule(spec)
    seeds = tuple(range(seed_start, seed_start + n_schedules))
    findings: list[InterleavingFinding] = []
    permuted = 0
    shrink_execs = 0
    for seed in seeds:
        outcome = run_schedule(spec, seed)
        permuted += len(outcome.trace)
        kind = outcome.failure_kind(canonical)
        if kind is None:
            continue
        trace = outcome.trace
        if shrink and len(findings) < max_findings:
            trace, used = shrink_trace(spec, trace, kind, canonical)
            shrink_execs += used
        findings.append(
            InterleavingFinding(
                seed=seed, kind=kind, blocked=outcome.blocked, trace=trace
            )
        )
    return InterleavingSweepReport(
        spec=spec,
        seeds=seeds,
        findings=findings,
        permuted_batches=permuted,
        wall_seconds=time.perf_counter() - started,
        shrink_executions=shrink_execs,
    )


# -- repro files --------------------------------------------------------------


def finding_to_dict(
    spec: InterleavingSpec, finding: InterleavingFinding
) -> dict:
    """Versioned ``"kind": "interleaving"`` repro payload."""
    from repro.fuzz.reprofile import REPRO_VERSION

    return {
        "version": REPRO_VERSION,
        "kind": "interleaving",
        "classification": finding.kind,
        "spec": spec.to_dict(),
        "seed": finding.seed,
        "blocked": list(finding.blocked),
        "schedule_trace": [
            [ordinal, list(perm)] for ordinal, perm in finding.trace
        ],
    }


def replay_interleaving(data: dict) -> tuple[str | None, str]:
    """Re-execute an interleaving repro dict from its recorded trace.

    Returns ``(observed_kind, expected_kind)`` — ``observed_kind`` is
    ``None`` when the replayed schedule no longer diverges from
    canonical.
    """
    from repro.fuzz.reprofile import _SUPPORTED_VERSIONS

    version = data.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported repro version {version!r}")
    spec = InterleavingSpec.from_dict(data["spec"])
    trace = ScheduleTrace.from_entries(
        (int(ordinal), tuple(int(i) for i in perm))
        for ordinal, perm in data.get("schedule_trace", [])
    )
    canonical = run_schedule(spec)
    observed = run_schedule(spec, trace)
    return observed.failure_kind(canonical), data["classification"]


__all__ = [
    "DEADLOCK",
    "MISMATCH",
    "WORKLOADS",
    "InterleavingFinding",
    "InterleavingSpec",
    "InterleavingSweepReport",
    "ScheduleOutcome",
    "build_world",
    "finding_to_dict",
    "replay_interleaving",
    "run_schedule",
    "shrink_trace",
    "sweep",
]
