"""Deterministic discrete-event engine driving simulated MPI rank programs.

Rank programs are Python *generator coroutines*: every communication
primitive is a generator that ``yield``\\ s low-level operations to the
engine and receives the result back through ``gen.send()``. Application code
therefore reads almost exactly like mpi4py::

    def program(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from comm.send(data, dest=1, tag=7)
        elif comm.rank == 1:
            data = yield from comm.recv(source=0, tag=7)
        return result

The engine is *deterministic*: runnable ranks are resumed in sorted
batches (see below), message matching follows MPI's non-overtaking rule
per (sender, communicator), and virtual time is tracked per rank with a
latency/bandwidth network model. Determinism is what makes the protocol
tests (checkpoint/replay bit-equivalence) meaningful.

Scheduling
----------
The scheduler is a batched run-until-blocked loop. All ranks start
runnable; the engine drains the current batch in ascending rank order,
resuming each rank's generator until it either finishes or blocks on an
incomplete request. Ranks unblocked while a batch drains (a send
completing a peer's pending receive, the last member arriving at a fast
collective) accumulate into the *next* batch, which is sorted and drained
the same way, until no rank is runnable. The schedule is a pure function
of the programs — no heap, no wall-clock, no iteration order over hash
containers — so runs are exactly reproducible.

``EngineConfig(schedule=seed)`` turns on *interleaving exploration*:
each batch is additionally permuted by a dedicated seeded Generator after its
canonical sort. Ranks within a batch are causally unordered, so every
permuted drain is a legal MPI schedule — per-rank program order and
per-channel non-overtaking are untouched; only the global
posting-sequence interleaving (and therefore wildcard arbitration and
deadlock potential) varies. Applied permutations are recorded as a
:class:`~repro.simmpi.schedule.ScheduleTrace` so any explored schedule
replays exactly, from the seed or from the trace
(``EngineConfig(schedule=trace)``). The default path is byte-for-byte the
canonical drain, and steady-state kernels deopt
(``non-canonical-schedule``) while exploring.

Dispatch of the yielded ops is a ``__class__``-identity chain over the
six op types (send post, receive post, wait, wait-all, persistent start,
collective), and message matching is per-channel: unexpected messages and
pending receives live in deques keyed by ``(source, tag)`` under each
``(communicator, receiver)``, stamped with a global posting sequence.
Exact-match traffic pops its deque in O(1); wildcard receives
(``ANY_SOURCE`` / ``ANY_TAG``) pick the matching channel head with the
smallest stamp, which reproduces exactly the posted-order semantics of a
linear scan.

The message pool
----------------
In-flight messages are not Python objects. The engine owns one
:class:`~repro.simmpi.request.MessagePool` — parallel NumPy columns for
source / destination / tag / communicator / byte count / posting sequence /
send time / arrival time, plus payload and kind lists and a LIFO free
list — and every posted send allocates a *slot index* in it. Matching
moves slot ``int``\\ s through the channel deques, wildcard arbitration
compares ``pool.seq`` entries, and the wait that consumes a receive copies
the slot out into an immutable
:class:`~repro.simmpi.request.MessageView` before recycling it. Observers
(``Status``, payload delivery, the protocol's receive counting) only ever
see views — a recycled slot can never corrupt a completed receive. Send
handles carry no message state at all: every send post returns the shared
:data:`~repro.simmpi.request.COMPLETED_SEND` instance.

Batched p2p pricing
-------------------
Posting a send does not price it. The slot is allocated with the
:data:`~repro.simmpi.request.UNPRICED` arrival sentinel and queued on the
current *wave*; when the scheduler finishes draining a batch, the whole
accumulated send wave is priced in one vectorized
:meth:`NetworkModel.transfer_times <repro.simmpi.network.NetworkModel.transfer_times>`
call and written back with a single fancy-indexed assignment
(``pool.arrival[wave] = pool.send_time[wave] + times``). A receive
completed *within* the posting batch prices its one slot scalar on demand —
the flush then simply overwrites it with the bit-identical value. Trace
recording is batched on the same cadence: each wave accumulates per-kind
``(src, dst, nbytes)`` triples and flushes them through
:meth:`TraceRecorder.record_many <repro.simmpi.tracing.TraceRecorder.record_many>`,
which produces byte-identical matrices to per-message recording (integer
byte counts — accumulation order cannot perturb the float sums). Arrival
times are bit-identical to scalar pricing: the
:class:`~repro.simmpi.reference.ReferenceEngine` flushes a one-slot wave
after every send, which the flush prices with scalar ``transfer_time``
and records with per-message ``TraceRecorder.record``, and the
equivalence suites compare both.

Persistent-request waves
------------------------
``send_init`` / ``recv_init`` build reusable request recipes and
``start_all`` posts a whole wave of them through one yielded
:class:`StartAll` op; ``waitall`` blocks on one :class:`WaitAll` op instead
of one ``Wait`` per message. This is MPI's persistent-communication shape
(``MPI_Send_init`` / ``MPI_Startall``) and it is what stencil codes use in
practice: the per-iteration halo exchange costs two scheduler interactions
per rank instead of roughly three per message, while posting order, message
matching, pricing and tracing stay exactly those of the equivalent
``isend`` / ``irecv`` / ``wait`` sequence (the equivalence suite pins
traces, clocks and results against the per-message program). All traced
workloads speak this shape by default (``use_waves`` on the app
configs); re-arming is restart-safe — a start refuses a receive still in
flight or matched-but-never-drained — and failure injection sees waves
and per-message sequences identically (a dropped start posts nothing,
exactly like a crash before the first ``isend`` of the equivalent
sequence).

Virtual-time semantics
----------------------
* each rank carries a local clock, advanced by ``ctx.advance(seconds)`` for
  compute and by communication waits;
* sends are buffered: posting captures the payload and completes
  immediately (the sender pays no wait time);
* a receive completes at ``max(local clock, message arrival time)`` where
  arrival = sender clock at post + network transfer time.

This is the standard LogP-style approximation used by trace-driven MPI
simulators; it reproduces exactly what the paper consumes (byte-accurate
traces, event ordering) while remaining fast enough for 1088-rank runs.

Fast-path collectives
---------------------
``bcast`` / ``reduce`` / ``allreduce`` / ``allgather`` / ``alltoall`` /
``barrier`` on the world communicator *or any split sub-communicator* skip
the point-to-point generator cascade: each member yields a single
:class:`CollectiveOp`, the engine parks it until every member of the
communicator's registered group has arrived, then computes results,
per-member clocks and trace records in one vectorized pass over the
group's slice of the network model (:mod:`repro.simmpi.collectives`,
second half). Membership bookkeeping lives in the engine: comm id 0 is
the world group, and ``Communicator.split`` registers each new group
(stable comm ids via :meth:`Engine.allocate_comm_id`, rank→group-rank
maps via :meth:`Engine.register_group`). Split *plans* are engine-cached
too: every member of a split derives the identical color→(id, members)
map from the identical allgather, so the first member computes it once
and the rest look their color up — O(ranks) total instead of O(ranks²). A deadlock involving a
partially-gathered collective is attributed to the stuck group: the error
names the member's group rank and the world ranks that never arrived.

The fast path is byte-identical to the cascade — same trace matrices,
same message counts, same clocks, same results — and is therefore active
even under tracing. It deactivates (per run) whenever a per-message
observer needs to see the individual point-to-point messages: a
``message_log`` (sender-based payload logging), ``track_recv_counts``
(receiver-position sidecars) or a non-empty ``failure_ranks`` set
(failures strike mid-cascade). Communicators whose membership the engine
does not know (e.g. the HydEE replay communicator) always run the
cascade, and so does every collective of the
:class:`~repro.simmpi.reference.ReferenceEngine`, the equivalence suites'
reference.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.simmpi import collectives as _coll
from repro.simmpi.config import EngineConfig
from repro.simmpi.errors import DeadlockError, MatchingError, RankFailedError
from repro.simmpi.network import NetworkModel, zero_latency_network
from repro.simmpi.request import (
    ANY_SOURCE,
    ANY_TAG,
    COMPLETED_SEND,
    UNPRICED,
    CollectiveRequest,
    MessagePool,
    MessageView,
    PLAN_RECV,
    PLAN_SEND_CAPTURE,
    PLAN_SEND_STATIC,
    PersistentRecvRequest,
    PersistentSendRequest,
    RecvRequest,
    Request,
    WaitAllRequest,
    capture_payload,
    nbytes_of,
    static_wave_columns,
)
from repro.simmpi.schedule import ScheduleTrace
from repro.simmpi.tracing import TraceRecorder

# --------------------------------------------------------------------------
# Low-level operations yielded by primitives to the engine
# --------------------------------------------------------------------------


@dataclass(slots=True)
class PostSend:
    """Post a buffered send; engine replies with a :class:`SendRequest`."""

    dest: int  # world rank
    tag: int
    comm_id: int
    payload: Any
    nbytes: int
    kind: str


@dataclass(slots=True)
class PostRecv:
    """Post a receive; engine replies with a :class:`RecvRequest`."""

    source: int  # world rank or ANY_SOURCE
    tag: int
    comm_id: int


@dataclass(slots=True)
class Wait:
    """Block until ``request`` completes; engine replies with the request."""

    request: Request


@dataclass(slots=True)
class WaitAll:
    """Block until every request completes; engine replies with per-request
    results in order (the received payload for receives, ``None`` for
    sends) — one scheduler interaction for a whole wave of waits."""

    requests: Sequence[Request]


@dataclass(slots=True)
class StartAll:
    """Activate a wave of persistent requests in list order; engine replies
    ``None``. Sends post one fresh pool message from their recipe; receives
    re-enter matching. ``plan`` caches the engine's compiled posting plan —
    ops are reusable, so a steady-state wave compiles exactly once."""

    requests: Sequence[Request]
    plan: list | None = None


@dataclass(slots=True)
class CollectiveOp:
    """One rank's entry into a fast-path world collective.

    The engine replies with the rank's collective *result* (not a request)
    once every world rank has yielded the matching op. ``tag`` is the
    collective tag the slow path would have used — it keys concurrent
    collectives apart when ranks run ahead of each other.
    """

    kind: str  # "bcast" | "reduce" | "allreduce" | "allgather" | "alltoall" | "barrier"
    comm_id: int
    tag: int
    value: Any
    root: int
    op: Callable | None
    trace_kind: str


@dataclass(slots=True)
class KernelLoop:
    """A declared steady-state loop: ``iterations`` repetitions of (post
    ``start``, drain ``drain``), then an optional back-to-back collective
    window, in one engine interaction.

    The op is *defined* as exactly this program fragment::

        for _ in range(iterations):
            yield start
            results = yield drain
        window = [(yield c) for c in colls]
        # engine replies with `results` (the LAST drain's payload list),
        # or `(results, window)` when the collective window is non-empty

    and the engine's interpreted handler executes precisely that expansion
    through the ordinary ``StartAll`` / ``WaitAll`` / ``CollectiveOp``
    machinery — identical posting order, matching, pricing, tracing,
    clocks and failure injection — without resuming the rank's generator
    between iterations. Intermediate drain payloads are discarded; only a
    program that does not consume them (synthetic traced steady loops) may
    yield this op.

    When the ranks parked on such loops form a closed sub-world — equal
    iteration counts and a provably static cycle whose traffic never
    leaves them (see ``Engine._release_held_kernels``) — the engine
    compiles their iteration into a :class:`_SteadyStateKernel` and
    executes all iterations with closed-form clock recurrences —
    byte-identical traces, bit-identical clocks — however many other ranks
    sit blocked outside the loop. Anything dynamic deopts back to the
    expansion above.
    """

    start: StartAll
    drain: WaitAll
    iterations: int
    colls: tuple = ()  # CollectiveOps run back-to-back after the last drain


Op = PostSend | PostRecv | Wait | WaitAll | StartAll | CollectiveOp | KernelLoop


class RankContext:
    """Per-rank execution context handed to every rank program.

    Attributes
    ----------
    rank:
        World rank of this program instance.
    nranks:
        World size.
    clock:
        Local virtual time in seconds (mutated by the engine and by
        :meth:`advance`).
    comm:
        The world communicator (set by the engine before the program runs).
    engine:
        The :class:`Engine` executing this rank while its run is live, and
        ``None`` once that run has finished — normally, by deadlock or by a
        raising program. Clearing it is what lets a dropped engine (and its
        tracer and message pool) be freed by reference counting: a context
        outlives its run inside the engine's own rank table, so a live
        back-edge would make every run a reference cycle.
    """

    __slots__ = ("rank", "nranks", "clock", "comm", "engine", "user")

    def __init__(self, rank: int, nranks: int, engine: "Engine"):
        self.rank = rank
        self.nranks = nranks
        self.clock = 0.0
        self.comm = None  # filled in by Engine.run with the world communicator
        self.engine = engine
        self.user: dict[str, Any] = {}

    @property
    def now(self) -> float:
        """Current local virtual time in seconds."""
        return self.clock

    def advance(self, seconds: float) -> None:
        """Advance local time by ``seconds`` of modeled computation."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self.clock += seconds


class _RankState:
    """Book-keeping for one live rank inside the engine."""

    __slots__ = (
        "rank",
        "gen",
        "ctx",
        "blocked_on",
        "finished",
        "result",
        "failed",
        "kernel",
    )

    def __init__(self, rank: int, gen: Generator, ctx: RankContext):
        self.rank = rank
        self.gen = gen
        self.ctx = ctx
        self.blocked_on: Request | None = None
        self.finished = False
        self.result: Any = None
        self.failed = False
        self.kernel: _KernelState | None = None


class _KernelState:
    """Progress of one rank through a :class:`KernelLoop`.

    ``remaining`` counts iterations whose drain has not been consumed yet
    (so a rank parked on its drain still counts that iteration);
    ``window_at`` indexes the next collective of the trailing window;
    ``results`` holds the final drain's ordered payload list once the last
    iteration is consumed; ``window_results`` collects the trailing
    collective window's per-position results.
    """

    __slots__ = ("op", "remaining", "window_at", "results", "window_results")

    def __init__(self, op: KernelLoop):
        self.op = op
        self.remaining = op.iterations
        self.window_at = 0
        self.results: list | None = None
        self.window_results: list = []


#: Sentinels returned by the kernel-loop driver to _step.
_KERNEL_PARKED = object()
_KERNEL_FAILED = object()


class _SteadyStateKernel:
    """A compiled closed sub-world iteration: the static (send wave →
    drain) cycle of one participant set, ready for closed-form execution.

    Built by ``Engine._compile_kernel`` once the participants' persistent
    wave plans are proven static and closed (every send matched by exactly
    one receive of another participant per iteration). Holds the edge
    arrays (world/participant-indexed sources and destinations, byte
    counts, per-edge transfer times), the destination-sorted view used by
    the ``np.maximum.reduceat`` clock recurrence, per-kind tracer index
    groups, the per-iteration posting-sequence consumption, and for each
    participant the drain-position → edge mapping that materializes the
    final iteration's results.
    """

    __slots__ = (
        "participants",
        "ops",
        "comm_ids",
        "esrc_w",
        "edst_w",
        "enb",
        "transfer",
        "src_idx",
        "order",
        "dst_starts",
        "dst_uniq",
        "kind_groups",
        "seq_per_iter",
        "edge_payloads",
        "edge_tags",
        "drain_edges",
    )


class _PendingCollective:
    """Gathering state of one fast-path collective instance.

    ``group`` is the owning communicator's membership (group rank → world
    rank); ``values``/``op_fns``/``requests`` are indexed by group rank.
    """

    __slots__ = (
        "kind",
        "root",
        "trace_kind",
        "group",
        "values",
        "op_fns",
        "requests",
        "count",
    )

    def __init__(self, group: tuple[int, ...], kind: str, root: int, trace_kind: str):
        size = len(group)
        self.kind = kind
        self.root = root
        self.trace_kind = trace_kind
        self.group = group
        self.values: list[Any] = [None] * size
        self.op_fns: list[Callable | None] = [None] * size
        self.requests: list[CollectiveRequest | None] = [None] * size
        self.count = 0

    def missing_members(self) -> list[int]:
        """World ranks of members that have not reached the collective."""
        return [
            self.group[g]
            for g, req in enumerate(self.requests)
            if req is None
        ]


class _Mailbox:
    """Matching state of one (communicator, receiver) endpoint.

    ``pending`` maps (source, tag) patterns to deques of parked
    :class:`RecvRequest`\\ s; ``unexpected`` maps (source, tag) channels to
    deques of pool slot ints; ``wild`` counts parked wildcard receives —
    while zero, a send needs exactly one dict probe to find its match.
    """

    __slots__ = ("pending", "unexpected", "wild")

    def __init__(self):
        self.pending: dict[tuple[int, int], deque] = {}
        self.unexpected: dict[tuple[int, int], deque] = {}
        self.wild = 0


RankProgram = Callable[[RankContext], Generator]


class Engine:
    """Deterministic discrete-event executor for simulated MPI programs.

    Parameters
    ----------
    nranks:
        World size.
    network:
        Timing model; defaults to a zero-latency network, which preserves
        ordering semantics and traces while making unit tests trivial.
    tracer:
        Optional :class:`TraceRecorder`; when provided, every message is
        recorded (fast-path collectives, p2p waves and kernels record the
        same messages in bulk).
    config:
        Every other knob — pool sizing, interleaving exploration,
        failure/observer gates — as one frozen, picklable
        :class:`~repro.simmpi.config.EngineConfig` (documented field by
        field there); ``None`` means ``EngineConfig()``. It is what the
        sharded engine's workers and the fuzz executor replicate across
        process boundaries.
    """

    def __init__(
        self,
        nranks: int,
        *,
        config: EngineConfig | None = None,
        network: NetworkModel | None = None,
        tracer: TraceRecorder | None = None,
    ):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if config is None:
            config = EngineConfig()
        self.config = config
        self.nranks = nranks
        self.network = network or zero_latency_network()
        self.tracer = tracer
        # Mutable working copy: the failure layers arm ranks mid-run.
        self.failure_ranks: set[int] = set(config.failure_ranks)

        # Interleaving exploration (see EngineConfig.schedule).
        # ``schedule_trace`` publishes the permutations the last run
        # applied (None after canonical runs); ``_replay_trace`` is the
        # recorded trace a replay run applies instead of drawing.
        self._replay_trace = (
            config.schedule if isinstance(config.schedule, ScheduleTrace) else None
        )
        self.schedule_trace: ScheduleTrace | None = None
        self._sched_exploring = False

        # Protocol hooks (used by repro.hydee): an optional message log that
        # captures payloads of selected messages at send time, and
        # per-channel counts of *consumed* receives — the two ingredients of
        # sender-based logging with receiver-side checkpointed positions.
        # Receive counting is opt-in (``track_recv_counts``): the protocol
        # layer enables it, plain trace/timing runs skip the per-receive
        # bookkeeping entirely. Either hook forces collectives onto the
        # per-message slow path so the observers see every message. Both
        # observers consume scalars / MessageViews — never pool slots.
        self.message_log = None  # object with .wants(src, dst) and .record(...)
        self.track_recv_counts = config.track_recv_counts
        self.recv_counts: dict[tuple[int, int], int] = {}

        # The struct-of-arrays message store; see repro.simmpi.request.
        self.pool = MessagePool(config.pool_capacity)

        # Matching state: one _Mailbox per (comm_id, receiver world rank),
        # each holding per-(source, tag) channels. Pending-receive channels
        # hold the RecvRequest objects (each stamped with .seq);
        # unexpected-message channels hold bare pool slot ints (their stamp
        # is pool.seq[slot]). ``wild`` counts queued wildcard receives so
        # the overwhelmingly common no-wildcard case matches with a single
        # dict probe.
        self._mailboxes: dict[tuple[int, int], _Mailbox] = {}
        # World-communicator mailboxes get a flat rank-indexed array (comm
        # id 0 carries nearly all p2p traffic; skipping the tuple-key dict
        # saves a hash per message).
        self._world_mail: list[_Mailbox | None] = [None] * nranks
        self._seq = 0  # global posting-order stamp

        # Batched p2p pricing: sends posted with the UNPRICED sentinel
        # accumulate their slots (and kinds) on the current wave; the wave
        # is priced, traced and recycled once per drained scheduler batch.
        # Slots consumed mid-batch park on the deferred-free list so wave
        # entries always describe the wave's own messages at flush time.
        self._wave_slots: list[int] = []
        self._wave_kinds: list[str] = []
        self._deferred_free: list[int] = []

        # Communicator-id allocation (world == 0); see Communicator.split.
        # Per-group membership bookkeeping: comm id → (group rank → world
        # rank) tuple and comm id → {world rank → group rank} map. Fast-path
        # collectives are only available on registered groups.
        self._next_comm_id = 1
        self._split_registry: dict[tuple, int] = {}
        # Shared split plans: (parent comm id, split seq) → {color → (new
        # comm id, membership tuple)}. Every member of a split derives the
        # identical plan from the identical allgather, so the first member
        # computes it and the rest look their color up (see
        # Communicator.split).
        self._split_plans: dict[tuple[int, int], dict] = {}
        world = tuple(range(nranks))
        self._groups: dict[int, tuple[int, ...]] = {0: world}
        self._group_rank: dict[int, dict[int, int]] = {
            0: {r: r for r in world}
        }

        self._states: list[_RankState | None] = []
        self._next_runnable: list[int] = []
        self._in_next: set[int] = set()

        # Fast-collective state: gathering slots and per-run eligibility.
        self._pending_colls: dict[tuple[int, int], _PendingCollective] = {}
        self._fast_coll_active = False
        self.fast_collectives_run = 0

        # Steady-state kernel bookkeeping: compiled kernels (or cached
        # rejection reasons) keyed by the participants' (rank, start-op,
        # drain-op) identity signature, per-run vectorization eligibility,
        # the ranks currently held at a KernelLoop yield, and cumulative
        # counters mirroring ``fast_collectives_run``. ``kernel_deopts``
        # counts, per reason, cycles that stayed on the interpreted
        # expansion — the deopt tests read it.
        self._kernel_cache: dict[tuple, tuple] = {}
        self._kernel_held: list[int] = []
        self._kernel_fast_ok = False
        self.kernel_runs = 0
        self.kernel_iterations = 0
        self.kernel_deopts: dict[str, int] = {}

    # -- communicator-id service -------------------------------------------

    def allocate_comm_id(self, key: tuple, group: Sequence[int] | None = None) -> int:
        """Return a stable comm id for ``key`` (same key → same id).

        All members of a split call with the same (parent, sequence, color)
        key and must agree on the resulting id regardless of the order in
        which the engine resumes them. When ``group`` (the new
        communicator's members as world ranks, in group-rank order) is
        supplied, the membership is registered so collectives on the new
        communicator can take the fast path; every member derives the same
        group from the same split allgather, so registration is idempotent.
        """
        cid = self._split_registry.get(key)
        if cid is None:
            cid = self._next_comm_id
            self._next_comm_id += 1
            self._split_registry[key] = cid
        if group is not None:
            # Register on hits too: the id and group must stay consistent
            # (register_group raises on a membership mismatch).
            self.register_group(cid, group)
        return cid

    def register_group(self, comm_id: int, group: Sequence[int]) -> None:
        """Record ``comm_id``'s membership (group rank → world rank).

        Only registered communicators are eligible for fast-path
        collectives; unknown comm ids simply stay on the generator cascade.
        """
        members = tuple(group)
        known = self._groups.get(comm_id)
        if known is not None:
            if known != members:
                raise MatchingError(
                    f"comm {comm_id} re-registered with different membership: "
                    f"{known} vs {members}"
                )
            return
        self._groups[comm_id] = members
        self._group_rank[comm_id] = {w: g for g, w in enumerate(members)}

    def group_of(self, comm_id: int) -> tuple[int, ...] | None:
        """Registered membership of ``comm_id`` (``None`` if unknown)."""
        return self._groups.get(comm_id)

    # -- scheduling ----------------------------------------------------------

    def _make_runnable(self, rank: int) -> None:
        if rank not in self._in_next:
            self._in_next.add(rank)
            self._next_runnable.append(rank)

    def _permute_batch(
        self,
        batch: list[int],
        ordinal: int,
        rng,
        recorder: list[tuple[int, tuple[int, ...]]],
    ) -> list[int]:
        """Permute one sorted batch under interleaving exploration.

        Seed mode (``rng`` set) draws a permutation per multi-rank batch
        and records the non-identity ones; replay mode applies the
        recorded permutation for this ordinal, skipping entries whose
        length no longer matches the batch (a shrunk trace shifted what
        runs when — canonical order keeps the schedule legal). Ranks in
        one batch are causally unordered, so any order is MPI-legal.
        """
        n = len(batch)
        if n < 2:
            return batch
        if rng is not None:
            perm = rng.permutation(n)
            permuted = [batch[i] for i in perm]
            if permuted != batch:
                recorder.append((ordinal, tuple(int(i) for i in perm)))
                return permuted
            return batch
        perm = self._replay_trace.permutation_for(ordinal)
        if perm is None or len(perm) != n:
            return batch
        recorder.append((ordinal, perm))
        return [batch[i] for i in perm]

    def run(
        self,
        program: RankProgram | Sequence[RankProgram],
        *,
        comm_factory: Callable[[RankContext], Any] | None = None,
    ) -> list[Any]:
        """Execute one program per rank to completion; return their results.

        ``program`` is either a single callable used for every rank or a
        sequence of ``nranks`` callables. Each callable receives the rank's
        :class:`RankContext` and must return a generator.

        Raises :class:`DeadlockError` if no rank can make progress while
        some are unfinished.

        The run is four seams — :meth:`_setup_run` (fresh matching/split
        state and rank instantiation), :meth:`_drain` (the batched
        run-until-blocked scheduler loop), :meth:`_finalize_run`
        (deadlock attribution and result collection) and
        :meth:`_release_run` (the teardown every exit takes) — composed
        here byte-identically to the historical monolithic loop. The
        sharded engine re-enters :meth:`_drain` once per conservative
        window between boundary-message exchanges.
        """
        try:
            self._setup_run(program, comm_factory=comm_factory)
            batch = self._initial_batch()
            # Pause generational GC while the scheduler drains: the
            # engine's steady state barely allocates (messages live in pool
            # slots, send handles are shared), but the collector would
            # still rescan the long-lived generator/deque graph every few
            # hundred allocations. Restored (and never force-enabled) on
            # every exit path. The pause strands nothing: the teardown
            # below leaves no cycle through the engine, so a dropped
            # engine is freed by reference counting, not by a collection.
            resume_gc = gc.isenabled()
            if resume_gc:
                gc.disable()
            try:
                self._drain(batch)
            finally:
                if resume_gc:
                    gc.enable()
                # A program exception must not swallow the wave that was
                # draining: flushing keeps partial-run traces exact.
                if self._wave_slots or self._deferred_free:
                    self._price_pending_sends()
                if self._sched_exploring:
                    # Publish the applied permutations on every exit path —
                    # a deadlocked or crashed exploration must still yield
                    # a replay-exact trace for its repro file.
                    self.schedule_trace = ScheduleTrace(tuple(self._sched_recorder))
            return self._finalize_run()
        finally:
            self._release_run()

    def _ranks_to_run(self) -> Sequence[int]:
        """The ranks this engine instantiates and schedules.

        The plain engine runs the whole world; a shard overrides this with
        its owned subset (external ranks' programs run in other shards and
        their ``_states`` entries stay ``None``).
        """
        return range(self.nranks)

    def _setup_run(
        self,
        program: RankProgram | Sequence[RankProgram],
        *,
        comm_factory: Callable[[RankContext], Any] | None = None,
    ) -> None:
        """Reset per-run state and instantiate the rank programs."""
        from repro.simmpi.comm import Communicator  # local import, no cycle at module load

        # Reset the split bookkeeping before anything (including a
        # comm_factory) runs: a reused engine may execute a program with a
        # different split topology, and stale key → id → group mappings
        # would silently push its collectives onto the cascade (or
        # mis-gather them).
        self._next_comm_id = 1
        self._split_registry = {}
        self._split_plans = {}
        self._groups = {0: self._groups[0]}
        self._group_rank = {0: self._group_rank[0]}

        # Fresh matching state and a fully-free pool: messages a previous
        # run never consumed (fire-and-forget sends, failed ranks' traffic)
        # must not leak slots or match this run's receives.
        self._mailboxes = {}
        self._world_mail = [None] * self.nranks
        self._seq = 0
        self.pool.reset()
        self._wave_slots = []
        self._wave_kinds = []
        self._deferred_free = []

        if callable(program):
            programs: list[RankProgram] = [program] * self.nranks
        else:
            programs = list(program)
            if len(programs) != self.nranks:
                raise ValueError(
                    f"got {len(programs)} programs for {self.nranks} ranks"
                )

        self._states = [None] * self.nranks
        for rank in self._ranks_to_run():
            ctx = RankContext(rank, self.nranks, self)
            if comm_factory is not None:
                ctx.comm = comm_factory(ctx)
            else:
                ctx.comm = Communicator.world(ctx)
            gen = programs[rank](ctx)
            if not isinstance(gen, Generator):
                raise TypeError(
                    f"rank program for rank {rank} must return a generator; "
                    f"did you forget `yield` in the program body?"
                )
            self._states[rank] = _RankState(rank, gen, ctx)

        self._pending_colls = {}
        # Eligibility is fixed per run: every rank must take the same path
        # through a given collective, and all three per-message observers
        # (payload log, receive counting, failure injection) need the
        # cascade's individual messages.
        self._fast_coll_active = (
            self.message_log is None
            and not self.track_recv_counts
            and not self.failure_ranks
        )
        # Steady-state kernels share the observers gate (vectorized
        # execution posts no individual messages). Failure injection is
        # re-checked at every trigger: tests arm it mid-run. Compiled
        # kernels cannot outlive the ops they were compiled from, so the
        # cache resets per run.
        # Interleaving exploration: a dedicated Generator (or a recorded
        # trace) permutes each batch after its canonical sort. With
        # ``schedule=None``, ``exploring`` is False and the scheduler
        # below is byte-for-byte the canonical deterministic drain.
        schedule = self.config.schedule
        sched_rng = None
        if schedule is not None and self._replay_trace is None:
            sched_rng = np.random.Generator(np.random.PCG64(int(schedule)))
        exploring = schedule is not None
        self._sched_exploring = exploring
        self._sched_rng = sched_rng
        self._sched_recorder: list[tuple[int, tuple[int, ...]]] = []
        self._sched_ordinal = 0
        self.schedule_trace = None

        self._kernel_cache = {}
        self._kernel_held = []
        self._kernel_fast_ok = (
            self.message_log is None
            and not self.track_recv_counts
            and not exploring
        )
        self._next_runnable = []
        self._in_next = set()

    def _initial_batch(self) -> list[int]:
        """The first scheduler batch: every instantiated rank, permuted
        when interleaving exploration is on."""
        batch = list(self._ranks_to_run())
        if self._sched_exploring:
            batch = self._permute_batch(
                batch, 0, self._sched_rng, self._sched_recorder
            )
        return batch

    def _drain(self, batch: list[int]) -> None:
        """Drain the scheduler until no rank is runnable.

        Starting from ``batch``, resume each rank until it blocks or
        finishes, price/trace the accumulated send wave once per batch,
        and roll unblocked ranks into the next sorted batch. Quiescence
        with ranks held at :class:`KernelLoop` yields triggers the
        steady-state kernel machinery. This is the engine's inner loop —
        one call per run for the plain engine, one call per conservative
        window for a shard.
        """
        states = self._states
        step = self._step
        exploring = self._sched_exploring
        while batch:
            for rank in batch:
                step(states[rank])
            if self._wave_slots or self._deferred_free:
                # Price and trace the batch's whole send wave in one
                # vectorized pass (waits in later batches then find
                # arrival times ready) and recycle consumed slots.
                self._price_pending_sends()
            batch = self._next_runnable
            batch.sort()
            self._next_runnable = []
            self._in_next = set()
            if not batch and self._kernel_held:
                # Scheduler quiescent with ranks held at KernelLoop
                # yields: execute the steady state in closed form if the
                # held ranks are a closed sub-world, else release them
                # through the interpreted expansion. Either way they
                # form the next batch.
                batch = self._release_held_kernels()
            if exploring and batch:
                self._sched_ordinal += 1
                batch = self._permute_batch(
                    batch, self._sched_ordinal, self._sched_rng, self._sched_recorder
                )

    def _finalize_run(self) -> list[Any]:
        """Deadlock attribution and result collection after a drain."""
        unfinished = [
            s for s in self._states if s is not None and not s.finished
        ]
        if unfinished:
            blocked = {s.rank: self._describe_blocked(s) for s in unfinished}
            raise DeadlockError(blocked)
        return [s.result for s in self._states if s is not None]

    def _release_run(self) -> None:
        """Teardown of a finished run, on every exit: sever the edges the
        run's graph holds back to this engine.

        The rank table outlives the run so that results, clocks and
        counters stay readable; each rank's :class:`RankContext` is the one
        object in it that points back at the engine. With ``ctx.engine``
        cleared no reference cycle runs through the engine, so dropping it
        frees the engine, its tracer and its message pool by reference
        counting (and finalizes a deadlocked or crashed run's suspended
        generators) instead of leaving them to the next full collection.
        Shared with the sharded engine's shards; idempotent.
        """
        for state in self._states:
            if state is not None:
                state.ctx.engine = None

    def _describe_blocked(self, state: _RankState) -> str:
        """Deadlock attribution for one blocked rank.

        For a rank parked on a partially-gathered collective, names the
        communicator's group, this member's group rank, and the members
        that never arrived — so a sub-communicator hang reads as "group X
        is stuck waiting for member Y" instead of an opaque request.
        """
        request = state.blocked_on
        if request is None:
            return "not scheduled"
        desc = request.describe()
        if request.__class__ is CollectiveRequest:
            entry = self._pending_colls.get((request.comm_id, request.tag))
            if entry is not None:
                group = entry.group
                grank = self._group_rank[request.comm_id][state.rank]
                missing = entry.missing_members()
                shown = ", ".join(map(str, missing[:8]))
                if len(missing) > 8:
                    shown += f", … {len(missing) - 8} more"
                desc += (
                    f" — group rank {grank}/{len(group)}, gathered "
                    f"{entry.count}/{len(group)}, missing world rank(s) "
                    f"[{shown}]"
                )
        return desc

    def _step(self, state: _RankState) -> None:
        """Resume one rank and run it until it finishes or blocks."""
        send_value: Any = None
        throw_exc: BaseException | None = None
        if state.blocked_on is not None:
            # Waking from a Wait: answer the pending yield with the request
            # (or, for a fast collective, with this rank's result).
            request = state.blocked_on
            state.blocked_on = None
            if not request.done:
                raise MatchingError("rank resumed on an incomplete request")
            if state.kernel is not None:
                # Mid-KernelLoop wake: keep driving the loop inside the
                # engine; the generator only resumes once the loop is done.
                outcome = self._kernel_resume(state, request)
                if outcome is _KERNEL_PARKED:
                    return
                if outcome is _KERNEL_FAILED:
                    state.failed = True
                    throw_exc = RankFailedError(state.rank)
                else:
                    send_value = outcome
            elif request.__class__ is CollectiveRequest:
                send_value = request.result
            else:
                send_value = self._complete_wait(state, request)

        gen_send = state.gen.send
        failure_ranks = self.failure_ranks
        while True:
            try:
                if throw_exc is not None:
                    exc, throw_exc = throw_exc, None
                    op = state.gen.throw(exc)
                else:
                    op = gen_send(send_value)
            except StopIteration as stop:
                state.finished = True
                state.result = stop.value
                return
            except RankFailedError:
                state.finished = True
                state.failed = True
                state.result = None
                return

            if failure_ranks and state.rank in failure_ranks and not state.failed:
                # Inject the failure at the rank's next communication
                # point (generators cannot catch exceptions thrown before
                # their first yield). The pending op is dropped — the
                # message is never posted, exactly like a crash mid-call.
                state.failed = True
                throw_exc = RankFailedError(state.rank)
                continue

            cls = op.__class__
            if cls is PostSend:
                self._post_send(
                    state,
                    op.dest,
                    op.tag,
                    op.comm_id,
                    op.payload,
                    op.nbytes,
                    op.kind,
                )
                send_value = COMPLETED_SEND
            elif cls is PostRecv:
                send_value = self._handle_recv_post(state, op)
            elif cls is Wait:
                request = op.request
                if request.done:
                    send_value = self._complete_wait(state, request)
                else:
                    state.blocked_on = request
                    return
            elif cls is WaitAll:
                request = WaitAllRequest(state.rank, list(op.requests))
                if request.done:
                    send_value = self._complete_wait(state, request)
                else:
                    state.blocked_on = request
                    return
            elif cls is StartAll:
                self._handle_start_all(state, op)
                send_value = None
            elif cls is CollectiveOp:
                request = self._handle_collective(state, op)
                if request.done:
                    send_value = request.result
                else:
                    state.blocked_on = request
                    return
            elif cls is KernelLoop:
                outcome = self._handle_kernel_loop(state, op)
                if outcome is _KERNEL_PARKED:
                    return
                if outcome is _KERNEL_FAILED:
                    state.failed = True
                    throw_exc = RankFailedError(state.rank)
                    continue
                send_value = outcome
            else:
                raise MatchingError(f"rank {state.rank} yielded unknown op {op!r}")

    # -- op handlers ---------------------------------------------------------

    def _post_send(
        self,
        state: _RankState,
        dst: int,
        tag: int,
        comm_id: int,
        payload: Any,
        nbytes: int,
        kind: str,
    ) -> None:
        """Post one buffered send: pool slot, trace/log, eager matching.

        Shared by ``PostSend`` and the persistent ``StartAll`` path; the
        posting order (and hence the ``seq`` stamps) is identical in both,
        so persistent waves match and price exactly like the equivalent
        ``isend`` sequence.
        """
        src = state.rank
        pool = self.pool
        free = pool.free
        if not free:
            pool._grow()
            free = pool.free
        slot = free.pop()
        seq = self._seq
        self._seq = seq + 1
        # Defer pricing: the slot carries the UNPRICED sentinel until some
        # receiver needs it, at which point the whole accumulated wave is
        # priced in one vectorized transfer_times call (the halo exchange
        # posts 4 sends per rank per iteration before anyone waits, so
        # whole waves of sends price together). Trace recording rides the
        # same wave: the flush gathers (src, dst, nbytes) straight from the
        # pool columns it is pricing.
        self._wave_slots.append(slot)
        self._wave_kinds.append(kind)
        pool.src[slot] = src
        pool.dst[slot] = dst
        pool.tag[slot] = tag
        pool.comm_id[slot] = comm_id
        pool.nbytes[slot] = nbytes
        pool.send_time[slot] = state.ctx.clock
        pool.arrival[slot] = UNPRICED
        pool.seq[slot] = seq
        pool.payload[slot] = payload
        pool.kind[slot] = kind
        if self.message_log is not None and self.message_log.wants(src, dst):
            self.message_log.record(src, dst, tag, payload, nbytes, kind)
        self._deliver_slot(src, dst, tag, comm_id, slot)

    def _deliver_slot(
        self, src: int, dst: int, tag: int, comm_id: int, slot: int
    ) -> None:
        """Enter a posted message slot into matching at its receiver.

        The match-or-park tail shared by every way a message reaches a
        receiver: a local send post, a persistent-wave start, and a
        boundary message injected by the sharded engine — identical
        matching, wildcard arbitration and wake-up semantics for all
        three.
        """
        if comm_id == 0:
            mailbox = self._world_mail[dst]
            if mailbox is None:
                mailbox = self._world_mail[dst] = _Mailbox()
        else:
            mailbox = self._mailboxes.get((comm_id, dst))
            if mailbox is None:
                mailbox = self._mailboxes[(comm_id, dst)] = _Mailbox()
        pending = mailbox.pending
        if pending:
            req = self._match_pending_recv(mailbox, src, tag)
            if req is not None:
                # Capture the waitall parent before complete() detaches it:
                # the receiver wakes either because it blocked on this very
                # request, or because this completion was the one that
                # finished the WaitAllRequest it blocked on. Anything else
                # (e.g. a pre-posted receive for a later iteration
                # completing while the rank awaits its resume) must NOT
                # wake it — a second wake would double-schedule the rank.
                parent = req.parent
                req.complete(slot)
                if parent is not None and not parent.done:
                    parent = None
                self._unblock_if_waiting(dst, req, parent)
                return
        bucket = mailbox.unexpected
        chan = bucket.get((src, tag))
        if chan is None:
            chan = bucket[(src, tag)] = deque()
        chan.append(slot)

    @staticmethod
    def _match_pending_recv(mailbox: _Mailbox, src: int, tag: int):
        """Earliest-posted pending receive whose pattern accepts (src, tag).

        With no wildcard receives parked (``mailbox.wild == 0``, the
        overwhelmingly common case) the exact channel is the only
        candidate: one dict probe. Otherwise a receive pattern is one of
        four channels — exact, source-wildcard, tag-wildcard,
        both-wildcard — and the requests' posting-sequence stamps arbitrate
        between the probes exactly like a linear scan over posting order.
        """
        channels = mailbox.pending
        if not mailbox.wild:
            chan = channels.get((src, tag))
            if not chan:
                return None
            req = chan.popleft()
            if not chan:
                del channels[(src, tag)]
            return req
        best_seq = None
        best_pattern = None
        for pattern in (
            (src, tag),
            (src, ANY_TAG),
            (ANY_SOURCE, tag),
            (ANY_SOURCE, ANY_TAG),
        ):
            chan = channels.get(pattern)
            if chan:
                seq = chan[0].seq
                if best_seq is None or seq < best_seq:
                    best_seq = seq
                    best_pattern = pattern
        if best_pattern is None:
            return None
        chan = channels[best_pattern]
        req = chan.popleft()
        if best_pattern[0] == ANY_SOURCE or best_pattern[1] == ANY_TAG:
            mailbox.wild -= 1
        if not chan:
            # Drop drained channels: slow-path collectives mint a fresh tag
            # per call, so stale empty deques would otherwise accumulate
            # for the lifetime of a long protocol run.
            del channels[best_pattern]
        return req

    def _handle_recv_post(self, state: _RankState, op: PostRecv) -> RecvRequest:
        req = RecvRequest(state.rank, op.source, op.tag, op.comm_id)
        self._post_recv(state, req)
        return req

    def _post_recv(self, state: _RankState, req: RecvRequest) -> None:
        """Enter a receive into matching: serve it from the unexpected
        queue or park it (stamped) on its pending channel."""
        source = req.source
        tag = req.tag
        comm_id = req.comm_id
        if comm_id == 0:
            mailbox = self._world_mail[state.rank]
            if mailbox is None:
                mailbox = self._world_mail[state.rank] = _Mailbox()
        else:
            mailbox = self._mailboxes.get((comm_id, state.rank))
            if mailbox is None:
                mailbox = self._mailboxes[(comm_id, state.rank)] = _Mailbox()
        bucket = mailbox.unexpected
        if bucket:
            slot = self._match_unexpected(bucket, source, tag)
            if slot is not None:
                req.complete(slot)
                return
        pattern = (source, tag)
        channels = mailbox.pending
        chan = channels.get(pattern)
        if chan is None:
            chan = channels[pattern] = deque()
        if source == ANY_SOURCE or tag == ANY_TAG:
            mailbox.wild += 1
        req.seq = self._seq
        self._seq += 1
        chan.append(req)

    def _match_unexpected(self, bucket: dict, source: int, tag: int):
        """Earliest-arrived unexpected message slot matching a pattern.

        Exact patterns probe one channel deque; wildcard patterns scan the
        receiver's active channels and take the head slot with the smallest
        pool stamp — identical to scanning one arrival-ordered list.
        """
        if source != ANY_SOURCE and tag != ANY_TAG:
            chan = bucket.get((source, tag))
            if not chan:
                return None
            slot = chan.popleft()
            if not chan:
                del bucket[(source, tag)]
            return slot
        pool_seq = self.pool.seq
        best_seq = None
        best_key = None
        for (src, mtag), chan in bucket.items():
            if source != ANY_SOURCE and src != source:
                continue
            if tag != ANY_TAG and mtag != tag:
                continue
            seq = pool_seq[chan[0]]
            if best_seq is None or seq < best_seq:
                best_seq = seq
                best_key = (src, mtag)
        if best_key is None:
            return None
        chan = bucket[best_key]
        slot = chan.popleft()
        if not chan:
            del bucket[best_key]
        return slot

    # Plan entry codes: static send (immutable payload, args precomputed),
    # capturing send (payload snapshotted per start), receive re-arm.
    # Canonical values live in request.py next to the plan data layout.
    _PLAN_SEND_STATIC = PLAN_SEND_STATIC
    _PLAN_SEND_CAPTURE = PLAN_SEND_CAPTURE
    _PLAN_RECV = PLAN_RECV

    @classmethod
    def _compile_start_plan(cls, requests: Sequence[Request]) -> list:
        """Compile a persistent wave into posting-plan entries.

        Validation and attribute traversal happen here, once per op;
        steady-state starts then run a branch per entry with the send
        arguments already packed.
        """
        plan: list = []
        for req in requests:
            rcls = req.__class__
            if rcls is PersistentSendRequest:
                if req.capture:
                    plan.append((cls._PLAN_SEND_CAPTURE, req))
                else:
                    plan.append(
                        (
                            cls._PLAN_SEND_STATIC,
                            (
                                req.dest,
                                req.tag,
                                req.comm_id,
                                req.payload,
                                req.nbytes,
                                req.kind,
                            ),
                        )
                    )
            elif rcls is PersistentRecvRequest:
                plan.append((cls._PLAN_RECV, req))
            else:
                raise MatchingError(
                    f"start_all on non-persistent request {req!r}"
                )
        return plan

    def _handle_start_all(self, state: _RankState, op: StartAll) -> None:
        """Activate a persistent wave: post its sends and receives in list
        order (identical stamps to the equivalent per-message sequence)."""
        plan = op.plan
        if plan is None:
            plan = op.plan = self._compile_start_plan(op.requests)
        post_send = self._post_send
        post_recv = self._post_recv
        for code, data in plan:
            if code == 0:  # _PLAN_SEND_STATIC
                post_send(state, *data)
            elif code == 2:  # _PLAN_RECV
                if not data.done:
                    raise MatchingError(
                        f"rank {state.rank} restarted a persistent receive "
                        f"that is still in flight ({data.describe()})"
                    )
                if data.slot >= 0:
                    # Matched but never waited on: restarting would silently
                    # drop the delivered message and leak its pool slot.
                    raise MatchingError(
                        f"rank {state.rank} restarted a persistent receive "
                        f"whose completion was never waited on "
                        f"({data.describe()})"
                    )
                data.done = False
                data.slot = -1
                data.view = None
                post_recv(state, data)
            else:  # _PLAN_SEND_CAPTURE
                post_send(
                    state,
                    data.dest,
                    data.tag,
                    data.comm_id,
                    capture_payload(data.payload),
                    data.nbytes,
                    data.kind,
                )

    def _handle_collective(
        self, state: _RankState, op: CollectiveOp
    ) -> CollectiveRequest:
        key = (op.comm_id, op.tag)
        entry = self._pending_colls.get(key)
        if entry is None:
            group = self._groups.get(op.comm_id)
            if group is None:
                raise MatchingError(
                    f"rank {state.rank} entered fast collective {op.kind!r} "
                    f"on unregistered comm {op.comm_id}"
                )
            entry = self._pending_colls[key] = _PendingCollective(
                group, op.kind, op.root, op.trace_kind
            )
        elif entry.kind != op.kind or entry.root != op.root:
            raise MatchingError(
                f"rank {state.rank} joined collective {op.kind!r} (root "
                f"{op.root}) but tag {op.tag} gathers {entry.kind!r} (root "
                f"{entry.root})"
            )
        grank = self._group_rank[op.comm_id].get(state.rank)
        if grank is None:
            raise MatchingError(
                f"world rank {state.rank} is not a member of comm "
                f"{op.comm_id} (group {entry.group})"
            )
        if entry.requests[grank] is not None:
            raise MatchingError(
                f"rank {state.rank} entered collective tag {op.tag} twice"
            )
        req = CollectiveRequest(state.rank, op.kind, op.comm_id, op.tag)
        entry.values[grank] = op.value
        entry.op_fns[grank] = op.op
        entry.requests[grank] = req
        entry.count += 1
        if entry.count == len(entry.group):
            del self._pending_colls[key]
            self._complete_collective(entry)
        return req

    def _complete_collective(self, entry: _PendingCollective) -> None:
        """Compute a fully-gathered collective and wake its members.

        ``entry`` is indexed by group rank; clocks are gathered from (and
        written back to) the member ranks only, and the group's rank→world
        vector translates partners for the network model and tracer.
        """
        states = self._states
        group = entry.group
        size = len(group)
        clocks = np.fromiter(
            (states[w].ctx.clock for w in group), dtype=np.float64, count=size
        )
        results, new_clocks = _coll.execute_fast_collective(
            entry.kind,
            values=entry.values,
            op_fns=entry.op_fns,
            root=entry.root,
            trace_kind=entry.trace_kind,
            clocks=clocks,
            group=np.asarray(group, dtype=np.int64),
            network=self.network,
            tracer=self.tracer,
        )
        self.fast_collectives_run += 1
        new_times = new_clocks.tolist()
        for grank, req in enumerate(entry.requests):
            world = group[grank]
            states[world].ctx.clock = new_times[grank]
            req.result = results[grank]
            req.done = True
            if states[world].blocked_on is req:
                self._make_runnable(world)

    # -- steady-state kernels --------------------------------------------------

    def _kernel_deopt(self, reason: str) -> None:
        """Record one deopt (cycle kept on the interpreted expansion)."""
        self.kernel_deopts[reason] = self.kernel_deopts.get(reason, 0) + 1
        return None

    def _handle_kernel_loop(self, state: _RankState, op: KernelLoop):
        """Enter a declared steady-state loop (see :class:`KernelLoop`)."""
        if op.iterations < 1:
            raise MatchingError(
                f"rank {state.rank} yielded KernelLoop with "
                f"{op.iterations} iterations (need >= 1)"
            )
        if op.start.__class__ is not StartAll or op.drain.__class__ is not WaitAll:
            raise MatchingError(
                f"rank {state.rank} yielded KernelLoop whose start/drain are "
                f"not StartAll/WaitAll ops"
            )
        state.kernel = _KernelState(op)
        if self._kernel_fast_ok and not self.failure_ranks:
            # Hold the rank at the yield instead of posting: once the
            # scheduler goes quiescent, the run loop executes the held
            # ranks' steady state in closed form if they are a closed
            # sub-world (or releases them through the interpreted
            # expansion below, in the same ascending-rank order the
            # ordinary batch step would have used — the global posting
            # sequence is identical either way).
            self._kernel_held.append(state.rank)
            state.blocked_on = Request(state.rank)
            return _KERNEL_PARKED
        if not self._kernel_fast_ok:
            # Interleaving exploration gets its own reason: the compiled
            # kernel replays the *canonical* posting sequence, which is
            # exactly what a non-canonical schedule must not assume.
            if self._sched_exploring:
                self._kernel_deopt("non-canonical-schedule")
            else:
                self._kernel_deopt("engine-gated")
        else:
            # Fast path is on but failure injection is active: the loop
            # must expand to micro-steps so the injection strikes at the
            # exact communication points the interpreted run would offer.
            self._kernel_deopt("failure-injection")
        return self._kernel_advance(state)

    def _kernel_resume(self, state: _RankState, request: Request):
        """Wake a rank parked inside a :class:`KernelLoop` — on a drain,
        a window collective, or a (released) hold — and keep driving."""
        if request.__class__ is WaitAllRequest:
            self._kernel_consume(state, request)
        elif request.__class__ is CollectiveRequest:
            state.kernel.window_results.append(request.result)
        return self._kernel_advance(state)

    def _kernel_consume(self, state: _RankState, request: WaitAllRequest) -> None:
        """Consume one completed drain exactly like ``_complete_wait``;
        only the final iteration materializes the ordered result list."""
        kstate = state.kernel
        consume = self._consume_recv
        if kstate.remaining == 1:
            kstate.results = [
                consume(state, child) if isinstance(child, RecvRequest) else None
                for child in request.children
            ]
        else:
            for child in request.children:
                if isinstance(child, RecvRequest):
                    consume(state, child)
        kstate.remaining -= 1

    def _kernel_advance(self, state: _RankState):
        """Drive a rank's :class:`KernelLoop` from inside the engine.

        Executes the op's defining expansion — post start, drain, repeat,
        then the collective window — through the ordinary op handlers, but
        without resuming the rank's generator between iterations. Returns
        ``_KERNEL_PARKED`` after blocking the rank, ``_KERNEL_FAILED`` when
        failure injection strikes (at exactly the yield points the
        expansion would have offered), or the final drain's result list.
        """
        kstate = state.kernel
        op = kstate.op
        rank = state.rank
        failure_ranks = self.failure_ranks
        while kstate.remaining:
            if failure_ranks and rank in failure_ranks and not state.failed:
                state.kernel = None
                return _KERNEL_FAILED
            self._handle_start_all(state, op.start)
            if failure_ranks and rank in failure_ranks and not state.failed:
                state.kernel = None
                return _KERNEL_FAILED
            request = WaitAllRequest(rank, list(op.drain.requests))
            if not request.done:
                state.blocked_on = request
                return _KERNEL_PARKED
            self._kernel_consume(state, request)
        colls = op.colls
        while kstate.window_at < len(colls):
            if failure_ranks and rank in failure_ranks and not state.failed:
                state.kernel = None
                return _KERNEL_FAILED
            request = self._handle_collective(state, colls[kstate.window_at])
            kstate.window_at += 1
            if not request.done:
                state.blocked_on = request
                return _KERNEL_PARKED
            kstate.window_results.append(request.result)
        if colls:
            results = (kstate.results, kstate.window_results)
        else:
            results = kstate.results
        state.kernel = None
        return results

    def _release_held_kernels(self) -> list[int]:
        """Quiescence trigger: vectorize or release the held ranks.

        If the held ranks H share one iteration count and form a *closed
        sub-world*, execute the whole loop in closed form (nothing is ever
        posted); otherwise deopt. H is closed when every static send lands
        in H (``external-destination``), every receive is non-wildcard and
        pairs with an H send (``wildcard-recv``, ``unmatched-traffic``),
        every window collective gathers its registered group entirely from
        H (``window-mismatch``) and H's mailboxes on the kernel's
        communicators are empty (``mailbox-busy``).

        Unfinished ranks outside H (bystanders) do not matter. The
        scheduler is quiescent, so each bystander is blocked on a request
        only another rank's action can complete, and the only ranks able
        to act are H's. Released through the interpreted expansion, H's
        loop posts nothing but the closed traffic above — no send leaves
        H, no window collective has a member outside H, and the static
        exact-match receives can neither take a bystander's message nor
        miss their own — so every bystander would stay blocked until an H
        rank leaves its loop, exactly as it does here; meanwhile nothing
        but H's loop stamps the global posting sequence, which therefore
        advances by the same statically derived amount either way.

        Either way every held rank's hold request completes and the held
        set — in ascending rank order, matching the batch order the
        ordinary scheduler would have used — becomes the next batch: the
        resume path then either collects the precomputed results
        (``remaining == 0``) or drives the interpreted expansion. After a
        kernel H therefore leaves its loop as one ascending batch, where
        the expansion lets ranks leave as its matching unwinds: both are
        legal schedules with identical traces and clocks, but post-loop
        sends *racing* for one wildcard receive may arbitrate differently
        (bystanders or not).
        """
        held = self._kernel_held
        self._kernel_held = []
        held.sort()
        states = self._states
        if self._kernel_fast_ok and not self.failure_ranks:
            first = states[held[0]].kernel.op.iterations
            if any(states[r].kernel.op.iterations != first for r in held):
                self._kernel_deopt("iteration-mismatch")
            else:
                kern = self._compile_kernel(held)
                if kern is not None:
                    if not self._kernel_quiescent(kern):
                        self._kernel_deopt("mailbox-busy")
                    else:
                        window = self._kernel_window(kern)
                        if window is not None:
                            self._execute_kernel(kern, first, window)
        for rank in held:
            states[rank].blocked_on.done = True
        return held

    def _compile_kernel(self, batch: list[int]) -> "_SteadyStateKernel | None":
        """Cached compile of the batch's cycle (a cached rejection reason
        deopts, and is counted, on every hit). Cache values pin the
        compiled-from ops so the identity keys cannot be recycled by the
        allocator mid-run."""
        states = self._states
        ops = [states[r].kernel.op for r in batch]
        key = tuple(
            (r, id(op.start), id(op.drain)) for r, op in zip(batch, ops)
        )
        cached = self._kernel_cache.get(key)
        if cached is None:
            cached = self._kernel_cache[key] = (
                self._try_compile_kernel(batch),
                ops,
            )
        outcome = cached[0]
        if outcome.__class__ is str:
            return self._kernel_deopt(outcome)
        return outcome

    def _try_compile_kernel(self, batch: list[int]) -> "_SteadyStateKernel | str":
        """Prove the participants' cycle static and closed; build the kernel
        (or return the deopt reason).

        Replays one steady-state scheduler batch *statically* — ranks in
        ascending order, each rank's start plan in list order, FIFO
        per-channel queues — which yields three things at once: the proof
        that every send is consumed by exactly one participant receive per
        iteration (anything else rejects), the per-iteration
        posting-sequence consumption (sends always stamp; a receive stamps
        only when it parks before its message arrives), and the receive →
        sending-edge pairing used to materialize the final iteration's
        results. A rejection returns its reason; the caller deopts to the
        interpreted expansion.
        """
        states = self._states
        idx_of = {r: i for i, r in enumerate(batch)}
        esrc_w: list[int] = []
        edst_w: list[int] = []
        enb: list[int] = []
        ekind: list[str] = []
        edge_payloads: list[Any] = []
        edge_tags: list[int] = []
        unexpected: dict[tuple, deque] = {}
        parked: dict[tuple, deque] = {}
        recv_edge: dict[int, int] = {}
        seq_per_iter = 0
        ops: list[KernelLoop] = []
        comm_ids: set[int] = set()
        plan_recvs: dict[int, list] = {}
        for rank in batch:
            op = states[rank].kernel.op
            ops.append(op)
            plan = op.start.plan
            if plan is None:
                plan = op.start.plan = self._compile_start_plan(op.start.requests)
            cols = static_wave_columns(plan)
            if cols is None:
                return "capture-send"
            dests, tags, send_comms, payloads, sizes, kinds = cols
            if any(d not in idx_of for d in dests):
                return "external-destination"
            edge = len(esrc_w)
            esrc_w.extend([rank] * len(dests))
            edst_w.extend(dests)
            enb.extend(sizes)
            ekind.extend(kinds)
            edge_payloads.extend(payloads)
            edge_tags.extend(tags)
            comm_ids.update(send_comms)
            seq_per_iter += len(dests)
            recvs = []
            for code, data in plan:
                if code == PLAN_SEND_STATIC:
                    chan = (data[2], data[0], rank, data[1])
                    queue = parked.get(chan)
                    if queue:
                        recv_edge[id(queue.popleft())] = edge
                    else:
                        unexpected.setdefault(chan, deque()).append(edge)
                    edge += 1
                else:  # PLAN_RECV (capture sends were rejected above)
                    req = data
                    if req.source < 0 or req.tag < 0:
                        return "wildcard-recv"
                    recvs.append(req)
                    comm_ids.add(req.comm_id)
                    chan = (req.comm_id, rank, req.source, req.tag)
                    queue = unexpected.get(chan)
                    if queue:
                        recv_edge[id(req)] = queue.popleft()
                    else:
                        parked.setdefault(chan, deque()).append(req)
                        seq_per_iter += 1
            plan_recvs[rank] = recvs
        if any(unexpected.values()) or any(parked.values()):
            return "unmatched-traffic"
        if not esrc_w:
            return "no-traffic"

        drain_edges: list[list[int]] = []
        for i, rank in enumerate(batch):
            need = {id(r) for r in plan_recvs[rank]}
            have = set()
            edges = []
            for child in ops[i].drain.requests:
                if isinstance(child, RecvRequest):
                    have.add(id(child))
                    edges.append(recv_edge.get(id(child), -1))
                elif isinstance(child, PersistentSendRequest):
                    edges.append(-1)
                else:
                    return "dynamic-drain"
            if need != have:
                return "drain-mismatch"
            drain_edges.append(edges)

        kern = _SteadyStateKernel()
        kern.participants = tuple(batch)
        kern.ops = ops
        kern.comm_ids = tuple(comm_ids)
        kern.esrc_w = np.array(esrc_w, dtype=np.int64)
        kern.edst_w = np.array(edst_w, dtype=np.int64)
        kern.enb = np.array(enb, dtype=np.int64)
        kern.src_idx = np.fromiter(
            (idx_of[s] for s in esrc_w), dtype=np.int64, count=len(esrc_w)
        )
        dst_idx = np.fromiter(
            (idx_of[d] for d in edst_w), dtype=np.int64, count=len(edst_w)
        )
        # Per-edge transfer times are iteration-invariant; transfer_times
        # is elementwise and bit-identical to the scalar path, so reusing
        # them every iteration reproduces the interpreted arrivals exactly.
        kern.transfer = self.network.transfer_times(
            kern.esrc_w, kern.edst_w, kern.enb
        )
        kern.order = np.argsort(dst_idx, kind="stable")
        dst_sorted = dst_idx[kern.order]
        kern.dst_uniq, kern.dst_starts = np.unique(dst_sorted, return_index=True)
        groups: dict[str, list[int]] = {}
        for edge, kind in enumerate(ekind):
            groups.setdefault(kind, []).append(edge)
        kern.kind_groups = {
            kind: np.array(idx, dtype=np.int64) for kind, idx in groups.items()
        }
        kern.seq_per_iter = seq_per_iter
        kern.edge_payloads = edge_payloads
        kern.edge_tags = edge_tags
        kern.drain_edges = drain_edges
        return kern

    def _kernel_quiescent(self, kern: "_SteadyStateKernel") -> bool:
        """No leftover matching state on any participant mailbox of the
        kernel's communicators (a parked wildcard or stale unexpected
        message could steal a kernel send from its static receive)."""
        for comm_id in kern.comm_ids:
            for rank in kern.participants:
                if comm_id == 0:
                    mailbox = self._world_mail[rank]
                else:
                    mailbox = self._mailboxes.get((comm_id, rank))
                if mailbox is not None and (
                    mailbox.pending or mailbox.unexpected or mailbox.wild
                ):
                    return False
        return True

    def _kernel_window(self, kern: "_SteadyStateKernel"):
        """Validate (and fuse) the participants' trailing collective windows.

        Returns a list of ``(comm_id, specs)`` runs for
        :func:`~repro.simmpi.collectives.execute_fused_window` — back-to-back
        same-communicator positions fuse into one run — or ``None`` on any
        mismatch (deopt). Every collective must gather its registered group
        exactly, entirely from kernel participants, with matching
        kind/tag/root across members.

        Reads the *current* KernelLoop ops off the rank states, not the
        cached compile's: a chunked steady loop reuses its start/drain ops
        (same compiled kernel) while minting fresh collective windows —
        with fresh tags — per chunk.
        """
        states = self._states
        ops = [states[r].kernel.op for r in kern.participants]
        length = len(ops[0].colls)
        if any(len(op.colls) != length for op in ops):
            return self._kernel_deopt("window-mismatch")
        if length == 0:
            return []
        runs: list[list] = []  # [comm_id, specs, window positions]
        for j in range(length):
            by_comm: dict[int, list] = {}
            for i, op in enumerate(ops):
                c = op.colls[j]
                if c.__class__ is not CollectiveOp:
                    return self._kernel_deopt("window-mismatch")
                by_comm.setdefault(c.comm_id, []).append(
                    (kern.participants[i], c)
                )
            for comm_id, members in by_comm.items():
                group = self._groups.get(comm_id)
                if (
                    group is None
                    or len(members) != len(group)
                    or {r for r, _ in members} != set(group)
                ):
                    return self._kernel_deopt("window-mismatch")
                first = members[0][1]
                if first.kind not in _coll.FAST_COLLECTIVES:
                    return self._kernel_deopt("window-mismatch")
                if any(
                    m.kind != first.kind
                    or m.tag != first.tag
                    or m.root != first.root
                    for _, m in members
                ):
                    return self._kernel_deopt("window-mismatch")
                grank = self._group_rank[comm_id]
                values: list[Any] = [None] * len(group)
                op_fns: list[Callable | None] = [None] * len(group)
                for r, m in members:
                    values[grank[r]] = m.value
                    op_fns[grank[r]] = m.op
                spec = (first.kind, values, op_fns, first.root, first.trace_kind)
                if runs and runs[-1][0] == comm_id and len(by_comm) == 1:
                    runs[-1][1].append(spec)
                    runs[-1][2].append(j)
                else:
                    runs.append([comm_id, [spec], [j]])
        return runs

    def _execute_kernel(
        self, kern: "_SteadyStateKernel", n_iter: int, window: list
    ) -> None:
        """Run all ``n_iter`` iterations of the compiled cycle in closed
        form — no message is ever posted, no generator resumed.

        The clock recurrence per iteration is exactly the interpreted
        schedule's: every participant posts its sends at its current clock
        (posting never advances the poster), and each receiver's next
        clock is ``max(own clock, max over in-edges (sender clock +
        transfer))`` — the same IEEE adds the wave flush performs and the
        same (exact) float maxima the sequential waitall consumes would
        take. Traces book all iterations through one
        ``record_many(..., repeats=...)`` per kind; the posting-sequence
        counter advances by the statically derived per-iteration
        consumption; the collective window prices off the folded clocks.
        Each participant's result list (final iteration's payloads in
        drain order) lands on its kernel state with ``remaining = 0`` so
        the ordinary resume hands it straight to the generator.
        """
        states = self._states
        parts = kern.participants
        nparts = len(parts)
        c = np.fromiter(
            (states[r].ctx.clock for r in parts), dtype=np.float64, count=nparts
        )
        src_idx = kern.src_idx
        transfer = kern.transfer
        order = kern.order
        dst_starts = kern.dst_starts
        dst_uniq = kern.dst_uniq
        for _ in range(n_iter):
            arr = c[src_idx] + transfer
            c[dst_uniq] = np.maximum(
                c[dst_uniq], np.maximum.reduceat(arr[order], dst_starts)
            )
        tracer = self.tracer
        if tracer is not None:
            for kind, idx in kern.kind_groups.items():
                tracer.record_many(
                    kern.esrc_w[idx],
                    kern.edst_w[idx],
                    kern.enb[idx],
                    kind=kind,
                    repeats=n_iter,
                )
        self._seq += n_iter * kern.seq_per_iter

        wres: list[list] | None = None
        if window:
            pos = {r: i for i, r in enumerate(parts)}
            n_colls = len(states[parts[0]].kernel.op.colls)
            wres = [[None] * n_colls for _ in parts]
            for comm_id, specs, positions in window:
                group = self._groups[comm_id]
                gidx = np.fromiter(
                    (pos[r] for r in group), dtype=np.int64, count=len(group)
                )
                results_per_spec, new_clocks = _coll.execute_fused_window(
                    specs,
                    clocks=c[gidx],
                    group=np.asarray(group, dtype=np.int64),
                    network=self.network,
                    tracer=tracer,
                )
                c[gidx] = new_clocks
                for j, res in zip(positions, results_per_spec):
                    for g, world in enumerate(group):
                        wres[pos[world]][j] = res[g]
                self.fast_collectives_run += len(specs)

        payloads = kern.edge_payloads
        for i, rank in enumerate(parts):
            state = states[rank]
            kstate = state.kernel
            kstate.results = [
                payloads[edge] if edge >= 0 else None
                for edge in kern.drain_edges[i]
            ]
            if wres is not None:
                kstate.window_results = wres[i]
            kstate.remaining = 0
            kstate.window_at = len(kstate.op.colls)
            state.ctx.clock = float(c[i])
        self.kernel_runs += 1
        self.kernel_iterations += n_iter

    def _unblock_if_waiting(
        self, rank: int, request: Request, parent: Request | None = None
    ) -> None:
        state = self._states[rank]
        blocked = state.blocked_on
        # Leave blocked_on set: _step consumes it on resume so the pending
        # yield receives the completed request (or waitall results).
        # ``parent`` is the WaitAllRequest this completion just finished
        # (if any) — both conditions can fire at most once per request, so
        # a rank is never scheduled twice for one wait.
        if blocked is request or (parent is not None and blocked is parent):
            self._make_runnable(rank)

    def _price_pending_sends(self) -> None:
        """Price, trace and recycle the drained batch's send wave.

        Arrival times are ``pool.send_time[wave] + transfer_times(...)``,
        written back with a single fancy-indexed assignment — bit-identical
        to the scalar ``transfer_time`` path (same IEEE arithmetic; see
        :meth:`NetworkModel.transfer_times`). Slots consumed within their
        posting batch were priced scalar on demand; the flush simply
        overwrites them with the same value (their columns are untouched —
        consumed slots recycle *after* the flush, via the deferred-free
        list, precisely so wave entries always describe the wave's own
        messages). The tracer accumulates the wave from the same gathered
        columns in one ``record_many`` pass per message kind. Tiny waves
        skip the array machinery.
        """
        slots = self._wave_slots
        kinds = self._wave_kinds
        self._wave_slots = []
        self._wave_kinds = []
        pool = self.pool
        tracer = self.tracer
        if len(slots) <= 4:
            transfer_time = self.network.transfer_time
            arrival = pool.arrival
            for s in slots:
                if arrival[s] < 0.0:
                    arrival[s] = pool.send_time[s] + transfer_time(
                        int(pool.src[s]), int(pool.dst[s]), int(pool.nbytes[s])
                    )
            if tracer is not None:
                for s, kind in zip(slots, kinds):
                    tracer.record(
                        int(pool.src[s]),
                        int(pool.dst[s]),
                        int(pool.nbytes[s]),
                        kind=kind,
                    )
        elif slots:
            wave = np.array(slots, dtype=np.int64)
            srcs = pool.src[wave]
            dsts = pool.dst[wave]
            nbytes = pool.nbytes[wave]
            times = self.network.transfer_times(srcs, dsts, nbytes)
            pool.arrival[wave] = pool.send_time[wave] + times
            if tracer is not None:
                first = kinds[0]
                if all(k is first or k == first for k in kinds):
                    tracer.record_many(srcs, dsts, nbytes, kind=first)
                else:
                    by_kind: dict[str, list[int]] = {}
                    for i, k in enumerate(kinds):
                        by_kind.setdefault(k, []).append(i)
                    for kind, idx in by_kind.items():
                        tracer.record_many(
                            srcs[idx], dsts[idx], nbytes[idx], kind=kind
                        )
        deferred = self._deferred_free
        if deferred:
            self._deferred_free = []
            pool.free.extend(deferred)

    def _consume_recv(self, state: _RankState, request: RecvRequest) -> Any:
        """First wait on a completed receive: price, account time, build the
        view, recycle the slot. Idempotent — later waits reuse the view."""
        view = request.view
        if view is None:
            slot = request.slot
            if slot < 0:
                if request.__class__ is PersistentRecvRequest:
                    # Waiting on an inactive (never-started) persistent
                    # request is MPI's defined no-op: empty completion.
                    return None
                raise MatchingError("completed receive without a message")
            pool = self.pool
            src = int(pool.src[slot])
            nbytes = int(pool.nbytes[slot])
            arrival = float(pool.arrival[slot])
            if arrival < 0.0:
                # Consumed within its own posting batch: price this one
                # slot scalar; the wave flush overwrites it bit-identically.
                arrival = float(pool.send_time[slot]) + self.network.transfer_time(
                    src, int(pool.dst[slot]), nbytes
                )
                pool.arrival[slot] = arrival
            payload = pool.payload[slot]
            view = request.view = MessageView(
                src, int(pool.tag[slot]), nbytes, arrival, payload
            )
            request.slot = -1
            pool.payload[slot] = None
            pool.kind[slot] = None
            # The slot may still sit on the current pricing/tracing wave:
            # recycle it only after the wave flushes.
            self._deferred_free.append(slot)
            ctx = state.ctx
            if arrival > ctx.clock:
                ctx.clock = arrival
            if self.track_recv_counts:
                channel = (src, state.rank)
                self.recv_counts[channel] = self.recv_counts.get(channel, 0) + 1
            return payload
        return view.payload

    def _complete_wait(self, state: _RankState, request: Request) -> Any:
        """Account virtual time for a completed wait.

        Returns the request itself for single waits (``comm.wait`` reads
        the view off it) and the ordered per-child results for a
        :class:`WaitAllRequest` (payloads for receives, ``None`` for
        sends).
        """
        if request.__class__ is WaitAllRequest:
            consume = self._consume_recv
            return [
                consume(state, child) if isinstance(child, RecvRequest) else None
                for child in request.children
            ]
        if isinstance(request, RecvRequest):
            self._consume_recv(state, request)
        return request

    # -- introspection ---------------------------------------------------------

    @property
    def max_time(self) -> float:
        """Largest rank clock seen so far (the run's virtual makespan)."""
        clocks = [s.ctx.clock for s in self._states if s is not None]
        if not clocks:
            return 0.0
        return max(clocks)

    def rank_times(self) -> list[float]:
        """Per-rank final virtual clocks (after :meth:`run`)."""
        return [s.ctx.clock for s in self._states if s is not None]


def run_program(
    program: RankProgram | Sequence[RankProgram],
    nranks: int,
    *,
    config: EngineConfig | None = None,
    network: NetworkModel | None = None,
    tracer: TraceRecorder | None = None,
) -> list[Any]:
    """One-shot convenience wrapper: build an engine, run, return results."""
    engine = Engine(nranks, config=config, network=network, tracer=tracer)
    return engine.run(program)


__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CollectiveOp",
    "Engine",
    "EngineConfig",
    "KernelLoop",
    "PostRecv",
    "PostSend",
    "StartAll",
    "RankContext",
    "ScheduleTrace",
    "Wait",
    "WaitAll",
    "run_program",
    "nbytes_of",
]
