"""The §V execution shape: application + FTI encoder processes, traced.

The paper's Fig. 5a/5b trace comes from launching 17 MPI processes per node
— 16 application ranks plus one dedicated FTI encoder (world ranks 0, 17,
34, 51 …). This module builds the world-level rank programs that reproduce
every structure the paper points out in the zoomed matrix:

* the stencil's **double diagonal** (app ghost exchange, never logged
  inside an L1 cluster);
* diagonals **interrupted** at the encoder ranks;
* **light horizontal lines** at encoder rows — the small "checkpoint ready"
  notifications each app rank sends its node encoder;
* **isolated points** where encoder rows and columns cross — the
  Reed–Solomon ring exchange between the encoders of an L1 cluster's nodes;
* **power-of-two diagonals** — ``MPI_Allgather`` during FTI initialization,
  run over the full 1088-rank world communicator.

The steady-state point-to-point loops are *wave-native* when the
application config's ``mode`` posts waves (``WAVES`` / ``KERNELS``, the
default): each repeated
per-iteration pattern — the app's checkpoint-ready notification, the
encoder's per-round readiness gather, each ring hop of the Reed–Solomon
exchange — is compiled once into persistent requests and re-posted with
``start_all`` / drained with ``waitall``, so a matching-point window costs
two engine yields instead of one interaction per message. Posting order,
matching stamps, traces and clocks are identical to the per-message
reference (``mode=ExecutionMode.PER_MESSAGE`` on the simulation config
pins it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.tsunami import TsunamiSimulation
from repro.machine.placement import FTIPlacement
from repro.simmpi.request import ANY_SOURCE
from repro.util.validation import check_positive

#: Tag space for FTI-internal control traffic.
_READY_TAG = 9_000_000
_RING_TAG = 9_000_001


@dataclass(frozen=True)
class FTITraceConfig:
    """Parameters of one traced §V-style execution."""

    checkpoint_every: int = 25
    ready_message_bytes: int = 64
    # Per-process checkpoint volume visible in the trace. Calibrated so the
    # encoder-ring exchanges render as *light* isolated points next to the
    # dark stencil diagonals, as in Fig. 5b (ring links stay below the
    # per-pair east-west halo volume of a ~50-iteration window).
    checkpoint_bytes_per_process: int = 64 << 10
    encoder_group_nodes: int = 4  # encoders of one L1 cluster form a ring

    def __post_init__(self) -> None:
        check_positive("checkpoint_every", self.checkpoint_every)
        check_positive("ready_message_bytes", self.ready_message_bytes)
        check_positive(
            "checkpoint_bytes_per_process", self.checkpoint_bytes_per_process
        )
        check_positive("encoder_group_nodes", self.encoder_group_nodes)


def make_fti_world_programs(
    sim: TsunamiSimulation,
    placement: FTIPlacement,
    *,
    iterations: int,
    trace_cfg: FTITraceConfig | None = None,
):
    """Per-world-rank programs for the full app+encoders execution.

    Returns a list of ``placement.nranks`` rank programs for
    :meth:`repro.simmpi.Engine.run`. Application ranks run the tsunami
    steps on an app-only sub-communicator; encoder ranks serve their node's
    checkpoint traffic.
    """
    cfg = trace_cfg or FTITraceConfig()
    if sim.grid.nranks != placement.nnodes * placement.app_per_node:
        raise ValueError(
            f"app uses {sim.grid.nranks} ranks, placement provides "
            f"{placement.nnodes * placement.app_per_node} app slots"
        )
    n_ckpts = len(
        [i for i in range(iterations) if i and i % cfg.checkpoint_every == 0]
    )
    # Wave-native steady-state loops follow the application's mode so app
    # halo waves and FTI control waves pin on/off together.
    use_waves = sim.cfg.mode.use_waves

    def app_program(ctx):
        comm = ctx.comm
        # FTI_Init: allgather over the *world* communicator (Fig. 5b's
        # power-of-two diagonals), then split off the application comm.
        yield from comm.allgather(ctx.rank)
        app_comm = yield from comm.split(color=0, key=ctx.rank)
        encoder_world = (
            placement.node_of_rank(ctx.rank) * placement.procs_per_node
        )
        if use_waves:
            # One persistent recipe for every checkpoint-ready message
            # this rank will ever send (restarted once per checkpoint).
            ready_start = comm.start_all_op(
                (
                    comm.send_init(
                        None,
                        dest=encoder_world,
                        tag=_READY_TAG,
                        nbytes=cfg.ready_message_bytes,
                        kind="fti-ready",
                    ),
                )
            )
        state = {"iteration": 0} if sim.cfg.synthetic else sim.make_rank_state(
            app_comm.rank
        )
        if (
            sim.cfg.synthetic
            and sim.cfg.mode.use_kernels
            and getattr(app_comm, "supports_waves", False)
        ):
            # Kernelized steady state: between checkpoint-ready sends the
            # app loop is the tsunami steady loop, so hand each segment to
            # its KernelLoop emitter (chunked further at allreduce
            # boundaries). Same messages, traces and clocks either way.
            while state["iteration"] < iterations:
                iteration = state["iteration"]
                if iteration and iteration % cfg.checkpoint_every == 0:
                    yield ready_start
                boundary = iteration + cfg.checkpoint_every - (
                    iteration % cfg.checkpoint_every
                )
                yield from sim._kernel_program(
                    app_comm, state, min(boundary, iterations)
                )
            return state
        while state["iteration"] < iterations:
            iteration = state["iteration"]
            if iteration and iteration % cfg.checkpoint_every == 0:
                # Notify the node's encoder process that the local
                # checkpoint is staged (small control message).
                if use_waves:
                    yield ready_start
                else:
                    yield from comm.isend(
                        None,
                        dest=encoder_world,
                        tag=_READY_TAG,
                        nbytes=cfg.ready_message_bytes,
                        kind="fti-ready",
                    )
            yield from sim.step(app_comm, state)
        return state

    def encoder_program(ctx):
        comm = ctx.comm
        yield from comm.allgather(ctx.rank)
        yield from comm.split(color=1, key=ctx.rank)  # not an app member
        node = placement.node_of_rank(ctx.rank)
        group = node // cfg.encoder_group_nodes
        group_nodes = [
            n
            for n in range(
                group * cfg.encoder_group_nodes,
                min((group + 1) * cfg.encoder_group_nodes, placement.nnodes),
            )
        ]
        ring_index = group_nodes.index(node)
        ring_size = len(group_nodes)
        enc_world = [n * placement.procs_per_node for n in group_nodes]
        # Per checkpoint round: collect readiness from the node's app ranks,
        # then run the RS reduce-scatter ring across the group's encoders.
        chunk = cfg.checkpoint_bytes_per_process * placement.app_per_node
        chunk //= max(1, ring_size)
        right = enc_world[(ring_index + 1) % ring_size]
        left = enc_world[(ring_index - 1) % ring_size]
        if use_waves and n_ckpts:
            # The readiness gather of one round, compiled once: the same
            # wildcard receives restart every checkpoint (posting order
            # and stamps identical to the sequential irecv loop below).
            ready_recvs = tuple(
                comm.recv_init(source=ANY_SOURCE, tag=_READY_TAG)
                for _ in range(placement.app_per_node)
            )
            ready_start = comm.start_all_op(ready_recvs)
            ready_drain = comm.waitall_op(ready_recvs)
            if ring_size > 1:
                # One ring hop (send right, receive left), restarted
                # ring_size - 1 times per round — the hop stays a
                # sequential pipeline stage exactly like the per-message
                # loop, so the modeled ring timing is unchanged.
                ring_recv = comm.recv_init(source=left, tag=_RING_TAG)
                ring_start = comm.start_all_op(
                    (
                        comm.send_init(
                            None,
                            dest=right,
                            tag=_RING_TAG,
                            nbytes=chunk,
                            kind="fti-encode",
                        ),
                        ring_recv,
                    )
                )
                ring_drain = comm.waitall_op((ring_recv,))
        for _ in range(n_ckpts):
            # Post the whole node's readiness receives up front, then drain:
            # the ready notifications arrive in whatever order the app ranks
            # reach the checkpoint, and batching the posts keeps the engine
            # on its O(1) per-channel matching instead of re-entering the
            # wildcard scan once per message.
            if use_waves:
                yield ready_start
                yield ready_drain
            else:
                ready = []
                for _ in range(placement.app_per_node):
                    req = yield from comm.irecv(
                        source=ANY_SOURCE, tag=_READY_TAG
                    )
                    ready.append(req)
                yield from comm.waitall(ready)
            if ring_size > 1:
                for _ in range(ring_size - 1):
                    if use_waves:
                        yield ring_start
                        yield ring_drain
                    else:
                        yield from comm.isend(
                            None,
                            dest=right,
                            tag=_RING_TAG,
                            nbytes=chunk,
                            kind="fti-encode",
                        )
                        yield from comm.recv(source=left, tag=_RING_TAG)
        return {"node": node, "checkpoints": n_ckpts}

    programs = []
    for world_rank in range(placement.nranks):
        if placement.is_encoder(world_rank):
            programs.append(encoder_program)
        else:
            programs.append(app_program)
    return programs
