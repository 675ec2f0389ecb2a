"""The hybrid CR protocol: cluster-coordinated checkpoints + partial logging.

This is the HydEE/FTI composition of §II-C run end to end:

* every ``checkpoint_every`` iterations, each L1 cluster synchronizes
  internally (a barrier on its cluster communicator — *not* a global
  coordination), every rank writes its state to the node SSD, and each L2
  encoding cluster Reed–Solomon-encodes the freshly written checkpoints;
* throughout the run, the engine's send path logs every inter-L1-cluster
  payload into the :class:`~repro.hydee.logging.MessageLog`;
* each checkpoint stores a protocol sidecar (per-channel receive counts and
  the world communicator's collective counter) — the receiver positions
  that recovery replays from.

Both engine hooks this protocol installs are *observers of views, never of
pool slots*: the message log records payload snapshots at send-post time
(before the message enters the engine's recycling
:class:`~repro.simmpi.request.MessagePool`), and ``track_recv_counts``
counts receives as their waits consume them into
:class:`~repro.simmpi.request.MessageView`\\ s. Slot reuse inside the pool
is therefore invisible to checkpoint sidecars and to replay — and so is
the *posting shape*: under every ``mode`` but ``PER_MESSAGE`` the
applications run their exchange recipes as persistent-request waves, whose sends
run through the same logging post path and whose drained receives are
consumed into the same views at the same per-channel positions, so logs,
receive counts, sidecars and clocks are bit-for-bit those of the
per-message run (pinned by ``tests/hydee/test_protocol.py``). Replay
windows alone force the per-message shape, via
:attr:`ReplayCommunicator.supports_waves
<repro.hydee.replay.ReplayCommunicator.supports_waves>`.

`run_with_protocol` drives a full application execution and returns
everything recovery needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.clustering.base import Clustering
from repro.ftilib.checkpointer import MultilevelCheckpointer, fti_rs_code
from repro.hydee.logging import MessageLog
from repro.machine.machine import Machine
from repro.models.encoding_time import EncodingTimeModel
from repro.simmpi.config import EngineConfig
from repro.simmpi.engine import Engine
from repro.simmpi.tracing import TraceRecorder


@dataclass
class ProtocolRunResult:
    """Everything a recovery needs from a protocol-supervised run."""

    states: list[dict]
    log: MessageLog
    checkpointer: MultilevelCheckpointer
    checkpoint_versions: dict[int, list[int]] = field(default_factory=dict)
    engine: Engine | None = None
    iterations: int = 0

    def latest_checkpoint(self, l1_cluster: int, *, at_or_before: int) -> int:
        """Newest *restorable* checkpoint of ``l1_cluster`` not newer than
        ``at_or_before`` (the failure iteration).

        Versions rotated out of the SSDs by the ``keep_versions`` policy are
        excluded — a failure striking long after a version expired cannot
        roll back to it.
        """
        members = self.checkpointer.clustering.l1_members(l1_cluster)
        available = set(self.checkpointer.versions_of(int(members[0])))
        versions = [
            v for v in self.checkpoint_versions.get(l1_cluster, [])
            if v <= at_or_before and v in available
        ]
        if not versions:
            raise ValueError(
                f"L1 cluster {l1_cluster} has no restorable checkpoint at or "
                f"before iteration {at_or_before} (older versions expired)"
            )
        return max(versions)

    def truncate_log(self, *, keep_from_version: int | None = None) -> int:
        """Garbage-collect log entries no replay can ever request.

        Safe positions are the per-channel receive counts recorded in each
        receiver's checkpoint of ``keep_from_version`` (default: the oldest
        version still restorable by any cluster — exactly the oldest
        possible rollback point). Returns the bytes freed from sender
        memory.
        """
        clustering = self.checkpointer.clustering
        if keep_from_version is None:
            keep_from_version = min(
                min(self.checkpointer.versions_of(rank) or [0])
                for rank in range(clustering.n)
            )
        safe: dict[tuple[int, int], int] = {}
        labels = clustering.l1_labels
        for rank in range(clustering.n):
            try:
                meta = self.checkpointer.sidecar_meta(rank, keep_from_version)
            except Exception:
                continue  # rank lacks this version: keep its channels whole
            for (src, dst), count in meta.get("recv_counts", {}).items():
                if dst == rank and labels[src] != labels[dst]:
                    safe[(src, dst)] = int(count)
        return self.log.truncate(safe)

    @property
    def logged_fraction_observed(self) -> float:
        """Logged bytes / total traced bytes (when a tracer was attached)."""
        if self.engine is None or self.engine.tracer is None:
            raise ValueError("run was executed without a tracer")
        total = self.engine.tracer.total_bytes
        return self.log.logged_bytes / total if total else 0.0


class HybridCRProtocol:
    """Builds the per-iteration hook wiring FTI + HydEE into an application."""

    def __init__(
        self,
        machine: Machine,
        clustering: Clustering,
        *,
        checkpoint_every: int = 10,
        checkpoint_at_zero: bool = True,
        code_factory=fti_rs_code,
        time_model: EncodingTimeModel | None = None,
        keep_versions: int = 4,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.machine = machine
        self.clustering = clustering
        self.checkpoint_every = checkpoint_every
        self.checkpoint_at_zero = checkpoint_at_zero
        self.checkpointer = MultilevelCheckpointer(
            machine,
            clustering,
            code_factory=code_factory,
            time_model=time_model,
            keep_versions=keep_versions,
        )
        self.log = MessageLog(clustering.l1_labels)
        self.checkpoint_versions: dict[int, list[int]] = {}

    # -- hook ---------------------------------------------------------------

    def _should_checkpoint(self, iteration: int) -> bool:
        if iteration == 0:
            return self.checkpoint_at_zero
        return iteration % self.checkpoint_every == 0

    def make_hook(self):
        """The ``hook(ctx, comm, sim, state, iteration)`` generator for apps."""

        def hook(ctx, comm, sim, state, iteration):
            # Cluster communicators are created once, collectively, on the
            # first hook invocation (every rank reaches it at iteration 0).
            if "l1_comm" not in ctx.user:
                l1 = int(self.clustering.l1_labels[comm.rank])
                ctx.user["l1_comm"] = yield from comm.split(color=l1)
                l2 = int(self.clustering.l2_labels[comm.rank])
                ctx.user["l2_comm"] = yield from comm.split(color=l2)
            if not self._should_checkpoint(iteration):
                return
            rank = comm.rank
            l1_comm = ctx.user["l1_comm"]
            l2_comm = ctx.user["l2_comm"]

            # Phase 1 — intra-cluster coordination (no global barrier).
            yield from l1_comm.barrier()

            # Phase 2 — L1 local write, with the protocol sidecar recovery
            # needs: receive positions and the collective counter.
            recv_counts = {
                (src, dst): count
                for (src, dst), count in ctx.engine.recv_counts.items()
                if dst == rank
            }
            seconds = self.checkpointer.save_local(
                rank,
                state,
                version=iteration,
                meta={
                    "recv_counts": recv_counts,
                    "world_coll_seq": comm._coll_seq,
                },
            )
            ctx.advance(seconds)

            # Phase 3 — all members stored before the encoder runs.
            yield from l2_comm.barrier()
            members = self.clustering.l2_members(
                int(self.clustering.l2_labels[rank])
            )
            if rank == int(members.min()):
                encode_seconds = self.checkpointer.encode_cluster(
                    int(self.clustering.l2_labels[rank]), iteration
                )
            else:
                encode_seconds = None
            # Every member is busy for the duration of the cluster encode.
            if encode_seconds is None:
                size = members.size
                blob = self.checkpointer._state_meta[(rank, iteration)]["nbytes"]
                from repro.util.units import GiB

                encode_seconds = self.checkpointer.time_model.seconds(
                    size * blob / GiB, size
                )
            ctx.advance(encode_seconds)

            if rank == int(members.min()):
                l1 = int(self.clustering.l1_labels[rank])
                versions = self.checkpoint_versions.setdefault(l1, [])
                if iteration not in versions:
                    versions.append(iteration)

        return hook


def run_with_protocol(
    sim,
    machine: Machine,
    clustering: Clustering,
    *,
    iterations: int,
    checkpoint_every: int = 10,
    code_factory=fti_rs_code,
    time_model: EncodingTimeModel | None = None,
    trace: bool = False,
    keep_versions: int = 4,
) -> ProtocolRunResult:
    """Run ``sim`` under the hybrid protocol; returns the run artifacts.

    ``sim`` is a :class:`~repro.apps.tsunami.TsunamiSimulation` or
    :class:`~repro.apps.heat.HeatSimulation` (anything with ``make_program``
    and a ``grid``).
    """
    nranks = sim.grid.nranks
    if nranks != machine.nranks:
        raise ValueError(
            f"app uses {nranks} ranks, machine hosts {machine.nranks}"
        )
    protocol = HybridCRProtocol(
        machine,
        clustering,
        checkpoint_every=checkpoint_every,
        code_factory=code_factory,
        time_model=time_model,
        keep_versions=keep_versions,
    )
    tracer = TraceRecorder(nranks) if trace else None
    # The checkpoint sidecars snapshot per-channel receive positions, so
    # this run needs the engine's (opt-in) receive counting; together with
    # the message log it pins every collective to the per-message path.
    config = EngineConfig(track_recv_counts=True)
    engine = Engine(nranks, network=machine.network, tracer=tracer, config=config)
    engine.message_log = protocol.log
    program = sim.make_program(iterations=iterations, hook=protocol.make_hook())
    states = engine.run(program)
    return ProtocolRunResult(
        states=states,
        log=protocol.log,
        checkpointer=protocol.checkpointer,
        checkpoint_versions=protocol.checkpoint_versions,
        engine=engine,
        iterations=iterations,
    )
