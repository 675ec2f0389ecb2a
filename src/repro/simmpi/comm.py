"""Communicator: the mpi4py-flavoured user API of the simulated runtime.

A :class:`Communicator` is a view over a subset of world ranks (its
*group*). Point-to-point calls address *local* ranks within the group and
are translated to world ranks before reaching the engine, exactly like MPI
communicators. All communication methods are generator coroutines and must
be invoked with ``yield from`` inside a rank program::

    def program(ctx):
        comm = ctx.comm                        # world communicator
        row = yield from comm.split(color=ctx.rank // 4)
        total = yield from row.allreduce(ctx.rank)
        return total

Steady-state point-to-point patterns can additionally use the persistent
API (:meth:`Communicator.send_init` / :meth:`Communicator.recv_init` /
:meth:`Communicator.start_all` / :meth:`Communicator.waitall`, mirroring
``MPI_Send_init`` / ``MPI_Startall`` / ``MPI_Waitall``): a fixed wave of
requests is described once and re-posted each iteration through a single
engine interaction, with matching, pricing, traces and clocks identical to
the equivalent ``isend``/``irecv``/``wait`` sequence.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.simmpi import collectives as coll
from repro.simmpi.engine import (
    CollectiveOp,
    PostRecv,
    PostSend,
    RankContext,
    StartAll,
    Wait,
    WaitAll,
)
from repro.simmpi.errors import CommunicatorError
from repro.simmpi.request import (
    ANY_SOURCE,
    ANY_TAG,
    PersistentRecvRequest,
    PersistentSendRequest,
    RecvRequest,
    Request,
    Status,
    capture_payload as _capture,
    payload_nbytes as _payload_nbytes,
)

#: Base of the internal tag space used by collectives. User tags must stay
#: below this value; :meth:`Communicator.send` enforces it.
COLL_TAG_BASE: int = 1 << 30
_COLL_TAG_MOD: int = 1 << 20


class Communicator:
    """A group of ranks with isolated point-to-point matching.

    Instances are created through :meth:`world` (by the engine) and
    :meth:`split`; application code never constructs one directly.
    """

    #: Whether the persistent-request wave API (``send_init`` /
    #: ``recv_init`` / ``start_all`` / ``waitall``) is available on this
    #: communicator. Wave-native applications check this before compiling
    #: their steady-state waves; the HydEE replay communicator overrides it
    #: to ``False`` so replay windows transparently fall back to the
    #: per-message exchange (whose messages are what the log serves).
    supports_waves: bool = True

    def __init__(self, ctx: RankContext, comm_id: int, group: Sequence[int]):
        self.ctx = ctx
        self.comm_id = comm_id
        self.group = tuple(group)
        try:
            self.rank = self.group.index(ctx.rank)
        except ValueError:
            raise CommunicatorError(
                f"world rank {ctx.rank} is not a member of group {group}"
            ) from None
        self.size = len(self.group)
        self._coll_seq = 0
        self._split_seq = 0
        self._group_ok: bool | None = None  # cached fast-path membership check
        self._start_ops: dict[int, StartAll] = {}  # start_all's op cache

    # -- construction -------------------------------------------------------

    @classmethod
    def world(cls, ctx: RankContext) -> "Communicator":
        """The world communicator covering every rank (comm id 0).

        The membership tuple is engine-cached: every rank's world
        communicator shares one ``(0, 1, …, nranks-1)`` tuple instead of
        building an O(nranks) tuple per rank.
        """
        engine = ctx.engine
        group = engine._groups[0]
        return cls(ctx, 0, group)

    # -- helpers -------------------------------------------------------------

    def _world_rank(self, local: int) -> int:
        if not 0 <= local < self.size:
            raise CommunicatorError(
                f"rank {local} out of range for communicator of size {self.size}"
            )
        return self.group[local]

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommunicatorError(
                f"root {root} out of range for communicator of size {self.size}"
            )

    def _next_coll_tag(self) -> int:
        tag = COLL_TAG_BASE + (self._coll_seq % _COLL_TAG_MOD)
        self._coll_seq += 1
        return tag

    # -- point-to-point -------------------------------------------------------

    def isend(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        *,
        nbytes: int | None = None,
        kind: str = "p2p",
    ):
        """Nonblocking send; returns a :class:`SendRequest`.

        ``nbytes`` overrides the payload's measured size — pass it with
        ``obj=None`` for synthetic (metadata-only) traffic.
        """
        if tag < 0:
            raise CommunicatorError(f"send tags must be non-negative, got {tag}")
        size = nbytes if nbytes is not None else _payload_nbytes(obj)
        req = yield PostSend(
            dest=self._world_rank(dest),
            tag=tag,
            comm_id=self.comm_id,
            payload=_capture(obj),
            nbytes=int(size),
            kind=kind,
        )
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking receive; returns a :class:`RecvRequest`."""
        world_source = source if source == ANY_SOURCE else self._world_rank(source)
        req = yield PostRecv(source=world_source, tag=tag, comm_id=self.comm_id)
        return req

    def wait(self, request: Request):
        """Wait for one request; returns the payload for receives.

        Waiting on an inactive (never-started) persistent receive is MPI's
        defined no-op and returns ``None``.
        """
        completed = yield Wait(request)
        if isinstance(completed, RecvRequest):
            view = completed.view
            return None if view is None else view.payload
        return None

    def wait_status(self, request: RecvRequest):
        """Wait for a receive; returns ``(payload, Status)``.

        An inactive persistent receive completes immediately with MPI's
        *empty status* (``ANY_SOURCE``, ``ANY_TAG``, zero bytes).
        """
        completed = yield Wait(request)
        if not isinstance(completed, RecvRequest):
            raise CommunicatorError("wait_status() requires a receive request")
        view = completed.view
        if view is None:
            return None, Status(ANY_SOURCE, ANY_TAG, 0)
        return view.payload, completed.status()

    @staticmethod
    def test(request: Request) -> bool:
        """Nonblocking completion check (mirrors ``MPI_Test``).

        Plain method, not a coroutine: posting and matching happen eagerly
        in this engine, so completion state is always current.
        """
        return request.done

    def waitall(self, requests: Sequence[Request]):
        """Wait for every request; returns per-request results in order.

        One engine interaction for the whole set (a single ``WaitAll`` op),
        not one wait per request: the rank blocks until the last request
        completes and receives the ordered payload list (``None`` for
        sends) in one resume. Time accounting is identical to sequential
        waits — each receive still advances the clock to its own arrival.
        """
        results = yield WaitAll(list(requests))
        return results

    # -- persistent requests (MPI_Send_init / MPI_Recv_init shape) -----------

    def send_init(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        *,
        nbytes: int | None = None,
        kind: str = "p2p",
    ) -> PersistentSendRequest:
        """Build a reusable buffered-send recipe (plain method, no yield).

        Each :meth:`start_all` posts one fresh message from the recipe —
        same matching, pricing and tracing as the equivalent
        :meth:`isend`. Mutable payloads are snapshotted per start.
        """
        if tag < 0:
            raise CommunicatorError(f"send tags must be non-negative, got {tag}")
        size = nbytes if nbytes is not None else _payload_nbytes(obj)
        return PersistentSendRequest(
            self.ctx.rank,
            self._world_rank(dest),
            tag,
            self.comm_id,
            obj,
            int(size),
            kind,
        )

    def recv_init(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> PersistentRecvRequest:
        """Build a reusable receive handle (plain method, no yield)."""
        world_source = source if source == ANY_SOURCE else self._world_rank(source)
        return PersistentRecvRequest(
            self.ctx.rank, world_source, tag, self.comm_id
        )

    def start_all(self, requests: Sequence[Request]):
        """Activate a wave of persistent requests in list order.

        One engine interaction posts the whole wave; interleave sends and
        receives in the list exactly as the per-message program would post
        them and the posting-sequence stamps (hence matching, traces and
        clocks) come out identical. Pass the *same tuple(s)* every
        iteration and the engine's compiled posting plans are reused (each
        cached op holds a strong reference to its tuple, so the identity
        check is sound); fresh sequences recompile per call.
        """
        if requests.__class__ is not tuple:
            requests = tuple(requests)
        cache = self._start_ops
        op = cache.get(id(requests))
        if op is None or op.requests is not requests:
            if len(cache) >= 16:
                # A program minting fresh tuples every call gains nothing
                # from caching; keep the table bounded.
                cache.clear()
            op = cache[id(requests)] = StartAll(requests)
        yield op

    def start(self, request: Request):
        """Activate one persistent request (mirrors ``MPI_Start``)."""
        yield StartAll((request,))

    # -- reusable op builders (zero-overhead steady-state waves) -------------

    def start_all_op(self, requests: Sequence[Request]) -> StartAll:
        """Prebuild a reusable ``StartAll`` op for a fixed wave.

        Ops are immutable descriptions, so a steady-state program can build
        one per wave outside its loop and ``yield`` the same object every
        iteration — the leanest possible posting path (no subgenerator, no
        per-iteration allocation)::

            start = comm.start_all_op(wave)
            drain = comm.waitall_op(recvs)
            for _ in range(iterations):
                yield start
                payloads = yield drain
        """
        return StartAll(tuple(requests))

    def waitall_op(self, requests: Sequence[Request]) -> WaitAll:
        """Prebuild a reusable ``WaitAll`` op (see :meth:`start_all_op`);
        yielding it returns the ordered payload list."""
        return WaitAll(tuple(requests))

    def collective_windows_ok(self) -> bool:
        """Whether prebuilt collective ops may be attached to a
        :class:`~repro.simmpi.engine.KernelLoop` window this run.

        True exactly when this communicator's collectives take the
        engine's vectorized fast path (size > 1, registered group, no
        per-message observers, plain :class:`Communicator`). When false,
        apps must fall back to ``yield from`` collectives *after* the
        loop — the generator cascade needs real per-message posting that a
        window cannot replicate.
        """
        return self.size > 1 and self._fast_collective_ok()

    def allreduce_op(self, value: Any, op: Callable = coll.sum_op) -> CollectiveOp:
        """Prebuild an allreduce op for a :class:`KernelLoop` window.

        Consumes exactly the tags the equivalent ``yield from
        comm.allreduce(value, op)`` fast path would (two on non-power-of-
        two groups, whose cascade runs reduce-then-bcast), so a program
        switching between the kernelized and per-iteration paths keeps
        every later collective's tags — and hence traces and clocks —
        aligned. Only legal while :meth:`collective_windows_ok` holds.
        """
        if not self.collective_windows_ok():
            raise CommunicatorError(
                "allreduce_op needs the vectorized collective path "
                "(collective_windows_ok() is false)"
            )
        tag = self._next_coll_tag()
        if not coll._is_pow2(self.size):
            self._next_coll_tag()
        return self._collective_op("allreduce", tag, value, op=op)

    def send(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        *,
        nbytes: int | None = None,
        kind: str = "p2p",
    ):
        """Blocking (buffered) send."""
        req = yield from self.isend(obj, dest, tag, nbytes=nbytes, kind=kind)
        yield from self.wait(req)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload."""
        req = yield from self.irecv(source, tag)
        return (yield from self.wait(req))

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns ``(payload, Status)``."""
        req = yield from self.irecv(source, tag)
        return (yield from self.wait_status(req))

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        *,
        nbytes: int | None = None,
        kind: str = "p2p",
    ):
        """Combined send+receive (deadlock-free); returns the received payload."""
        sreq = yield from self.isend(sendobj, dest, sendtag, nbytes=nbytes, kind=kind)
        rreq = yield from self.irecv(source, recvtag)
        payload = yield from self.wait(rreq)
        yield from self.wait(sreq)
        return payload

    # -- collectives ------------------------------------------------------------

    def _fast_collective_ok(self) -> bool:
        """Whether this collective may take the engine's vectorized path.

        Restricted to plain :class:`Communicator` instances (subclasses —
        e.g. the HydEE replay communicator — always run the generator
        cascade) whose membership is registered with the engine (the world
        communicator and everything created by :meth:`split`), and gated on
        the engine's per-run eligibility (no message log, no receive
        counting, no failure injection, not a
        :class:`~repro.simmpi.reference.ReferenceEngine`).
        """
        engine = self.ctx.engine
        ok = self._group_ok
        if ok is None:
            # Group registrations are immutable (the engine rejects
            # remapping a comm id), so the membership verdict is computed
            # once per communicator instance.
            ok = self._group_ok = (
                self.__class__ is Communicator
                and engine.group_of(self.comm_id) == self.group
            )
        return engine._fast_coll_active and ok

    def _collective_op(self, kind, tag, value, root=0, op=None, trace_kind=None):
        return CollectiveOp(
            kind=kind,
            comm_id=self.comm_id,
            tag=tag,
            value=value,
            root=root,
            op=op,
            trace_kind=kind if trace_kind is None else trace_kind,
        )

    def barrier(self):
        """Dissemination barrier across the group."""
        if self._fast_collective_ok():
            tag = self._next_coll_tag()
            if self.size == 1:
                return None
            return (yield self._collective_op("barrier", tag, None))
        return (yield from coll.barrier(self))

    def bcast(self, obj: Any, root: int = 0):
        """Binomial-tree broadcast; returns the object on every rank."""
        if self._fast_collective_ok():
            self._check_root(root)
            tag = self._next_coll_tag()
            if self.size == 1:
                return obj
            return (yield self._collective_op("bcast", tag, obj, root=root))
        return (yield from coll.bcast(self, obj, root))

    def reduce(self, value: Any, op: Callable = coll.sum_op, root: int = 0):
        """Tree reduction; result on root, ``None`` elsewhere."""
        if self._fast_collective_ok():
            self._check_root(root)
            tag = self._next_coll_tag()
            if self.size == 1:
                return value
            return (yield self._collective_op("reduce", tag, value, root=root, op=op))
        return (yield from coll.reduce(self, value, op, root))

    def allreduce(self, value: Any, op: Callable = coll.sum_op):
        """All-reduce (recursive doubling / reduce+bcast)."""
        if self._fast_collective_ok():
            if self.size == 1:
                return value
            tag = self._next_coll_tag()
            if not coll._is_pow2(self.size):
                # The cascade runs reduce-then-bcast, consuming two tags.
                self._next_coll_tag()
            return (yield self._collective_op("allreduce", tag, value, op=op))
        return (yield from coll.allreduce(self, value, op))

    def gather(self, value: Any, root: int = 0):
        """Gather to root; rank-ordered list on root, ``None`` elsewhere."""
        return (yield from coll.gather(self, value, root))

    def scatter(self, values: list | None, root: int = 0):
        """Scatter from root; returns this rank's element."""
        return (yield from coll.scatter(self, values, root))

    def allgather(self, value: Any):
        """All-gather (recursive doubling / Bruck); rank-ordered list."""
        if self._fast_collective_ok():
            if self.size == 1:
                return [value]
            tag = self._next_coll_tag()
            return (yield self._collective_op("allgather", tag, value))
        return (yield from coll.allgather(self, value))

    def alltoall(self, values: list):
        """Pairwise-exchange all-to-all."""
        if self._fast_collective_ok():
            if len(values) != self.size:
                raise ValueError(
                    f"alltoall needs {self.size} values, got {len(values)}"
                )
            tag = self._next_coll_tag()
            if self.size == 1:
                return [values[0]]
            return (yield self._collective_op("alltoall", tag, values))
        return (yield from coll.alltoall(self, values))

    def scan(self, value: Any, op: Callable = coll.sum_op):
        """Inclusive prefix reduction along rank order."""
        return (yield from coll.scan(self, value, op))

    # -- communicator management ---------------------------------------------

    def split(self, color: int | None, key: int = 0):
        """Split into sub-communicators by ``color`` (``None`` → no membership).

        Ranks with equal color form a new communicator, ordered by
        ``(key, parent rank)`` exactly like ``MPI_Comm_split``.
        """
        seq = self._split_seq
        self._split_seq += 1
        infos = yield from self.allgather((color, key, self.rank))
        # Allocate ids for every color of this split in sorted-color order:
        # each member sees the same allgather result, so the ids (and the
        # registered group memberships) come out identical no matter which
        # member the engine happens to resume first — and identical between
        # the fast-path and cascade schedules. Because every member derives
        # the *same* plan from the same allgather, the first member to get
        # here computes and registers it once; the engine caches it under
        # (parent comm, split sequence) and the other members just look
        # their color up — at 1088 ranks this turns an O(ranks²) init into
        # O(ranks).
        engine = self.ctx.engine
        plan_key = (self.comm_id, seq)
        plan = engine._split_plans.get(plan_key)
        if plan is None:
            by_color: dict[int, list[tuple[int, int]]] = {}
            for c, k, r in infos:
                if c is not None:
                    by_color.setdefault(c, []).append((k, r))
            plan = {}
            for c in sorted(by_color):
                group_world = tuple(
                    self.group[r] for _, r in sorted(by_color[c])
                )
                cid = engine.allocate_comm_id((self.comm_id, seq, c), group_world)
                plan[c] = (cid, group_world)
            engine._split_plans[plan_key] = plan
        if color is None:
            return None
        comm_id, my_group = plan[color]
        return Communicator(self.ctx, comm_id, my_group)

    def translate_rank(self, local: int) -> int:
        """World rank corresponding to ``local`` in this communicator."""
        return self._world_rank(local)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Communicator(id={self.comm_id}, rank={self.rank}/{self.size})"
        )
