"""Message pool, requests and statuses for the simulated MPI runtime.

In-flight point-to-point messages live in a :class:`MessagePool` — a
struct-of-arrays store whose unit of currency is a *slot index* (a plain
``int``), not a per-message Python object. :class:`SendRequest` and
:class:`RecvRequest` mirror MPI's nonblocking handles, the persistent
variants mirror ``MPI_Send_init`` / ``MPI_Recv_init``, and :class:`Status`
mirrors ``MPI_Status`` (source / tag / message size).

Pool invariants
---------------
* a slot is *live* from the send post that allocates it until the matching
  receive's wait consumes it (or :meth:`MessagePool.reset` at the start of
  the next :meth:`Engine.run <repro.simmpi.engine.Engine.run>`);
* while live, the slot's columns (``src``/``dst``/``tag``/``comm_id``/
  ``nbytes``/``send_time``/``arrival``/``seq`` as parallel NumPy arrays,
  ``payload``/``kind`` as parallel lists) describe exactly one message;
* ``arrival[slot] < 0`` means *unpriced*: the engine's batched p2p path
  posts sends with the :data:`UNPRICED` sentinel and prices whole waves
  with one fancy-indexed assignment (see
  :meth:`Engine._price_pending_sends`);
* observers never hold raw slots. Anything that outlives the wait — a
  :class:`Status`, the payload handed back by ``comm.wait`` — is copied
  into an immutable :class:`MessageView` when the slot is consumed, so
  slot reuse can never corrupt completed receives.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Wildcard source rank (mirrors ``MPI_ANY_SOURCE``).
ANY_SOURCE: int = -1
#: Wildcard tag (mirrors ``MPI_ANY_TAG``).
ANY_TAG: int = -1

#: Sentinel stored in ``MessagePool.arrival`` while a send awaits the
#: batched wave pricing (arrival times are physical, hence non-negative).
UNPRICED: float = -1.0

#: Posting-plan entry codes for compiled persistent waves (see
#: ``Engine._compile_start_plan``). A plan is a list of ``(code, data)``
#: pairs: static sends carry their packed ``(dest, tag, comm_id, payload,
#: nbytes, kind)`` argument tuple, capture sends and receives carry the
#: persistent request itself.
PLAN_SEND_STATIC: int = 0
PLAN_SEND_CAPTURE: int = 1
PLAN_RECV: int = 2


def static_wave_columns(plan: list) -> tuple | None:
    """Column-wise view of a compiled wave plan's static sends.

    Returns parallel lists ``(dests, tags, comm_ids, payloads, nbytes,
    kinds)`` — one row per :data:`PLAN_SEND_STATIC` entry, in posting
    order — or ``None`` if the plan contains any capture send (a captured
    payload is re-snapshotted per start, so its column is not static).
    Receive entries are skipped. The steady-state kernel compiler uses
    this to turn a participant's per-iteration send wave into fixed edge
    arrays instead of re-walking the plan every iteration.
    """
    dests: list[int] = []
    tags: list[int] = []
    comm_ids: list[int] = []
    payloads: list[Any] = []
    nbytes: list[int] = []
    kinds: list[str] = []
    for code, data in plan:
        if code == PLAN_SEND_CAPTURE:
            return None
        if code == PLAN_SEND_STATIC:
            dest, tag, comm_id, payload, size, kind = data
            dests.append(dest)
            tags.append(tag)
            comm_ids.append(comm_id)
            payloads.append(payload)
            nbytes.append(size)
            kinds.append(kind)
    return dests, tags, comm_ids, payloads, nbytes, kinds


def nbytes_of(payload: Any) -> int:
    """Best-effort on-the-wire size of ``payload`` in bytes.

    NumPy arrays report their buffer size, ``bytes``/``bytearray`` their
    length, ``None`` is zero (pure-synchronization message), and any other
    Python object falls back to ``sys.getsizeof`` — adequate for traces,
    since the applications we care about send arrays or explicit sizes.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float, complex, np.generic)):
        return 8
    return int(sys.getsizeof(payload))


def payload_nbytes(obj: Any) -> int:
    """Wire size of ``obj``, descending into the containers collectives use."""
    if isinstance(obj, dict):
        return sum(payload_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(v) for v in obj)
    return nbytes_of(obj)


def capture_payload(obj: Any) -> Any:
    """Snapshot mutable payloads at send time (buffered-send semantics).

    NumPy arrays are copied so the sender may reuse its buffer immediately,
    mirroring what a buffered ``MPI_Send`` guarantees. Containers are
    shallow-copied with their array leaves copied.
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, dict):
        return {k: capture_payload(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [capture_payload(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(capture_payload(v) for v in obj)
    return obj


def is_immutable_payload(obj: Any) -> bool:
    """Whether ``obj`` can be shared across receivers without capture.

    Immutable payloads (and containers of immutables) are indistinguishable
    from fresh copies, so the fast collective paths hand the same object to
    every receiver instead of capturing once per rank.
    """
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return True
    if isinstance(obj, (tuple, frozenset)):
        return all(is_immutable_payload(v) for v in obj)
    return False


class MessagePool:
    """Struct-of-arrays store for in-flight point-to-point messages.

    One pool per engine. A send allocates a slot (``post``), matching moves
    the slot index through the per-channel deques, and the receiving wait
    consumes it (``consume`` → :class:`MessageView`, slot returned to the
    free list). Numeric columns are parallel NumPy arrays so the batched
    p2p path can price a whole send wave with one fancy-indexed assignment
    and the tracer can accumulate a wave with one ``np.add.at`` pass;
    ``payload`` and ``kind`` stay Python lists (they hold arbitrary
    objects).

    The pool doubles its capacity when the free list runs dry; capacity is
    retained across :meth:`reset` so steady-state runs never reallocate.
    Pools pickle (the campaign runner ships engines' owners across a
    ``ProcessPoolExecutor``); unpickling restores every column verbatim.
    """

    __slots__ = (
        "capacity",
        "src",
        "dst",
        "tag",
        "comm_id",
        "nbytes",
        "send_time",
        "arrival",
        "seq",
        "payload",
        "kind",
        "free",
    )

    def __init__(self, capacity: int = 512):
        if capacity <= 0:
            raise ValueError(f"pool capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.src = np.zeros(capacity, dtype=np.int64)
        self.dst = np.zeros(capacity, dtype=np.int64)
        self.tag = np.zeros(capacity, dtype=np.int64)
        self.comm_id = np.zeros(capacity, dtype=np.int64)
        self.nbytes = np.zeros(capacity, dtype=np.int64)
        self.send_time = np.zeros(capacity, dtype=np.float64)
        self.arrival = np.zeros(capacity, dtype=np.float64)
        self.seq = np.zeros(capacity, dtype=np.int64)
        self.payload: list[Any] = [None] * capacity
        self.kind: list[str | None] = [None] * capacity
        # LIFO free list: hot slots are reused immediately, keeping the
        # touched region of every column small and cache-resident.
        self.free: list[int] = list(range(capacity - 1, -1, -1))

    # -- lifecycle ---------------------------------------------------------

    def post(
        self,
        src: int,
        dst: int,
        tag: int,
        comm_id: int,
        payload: Any,
        nbytes: int,
        send_time: float,
        arrival: float,
        seq: int,
        kind: str,
    ) -> int:
        """Allocate a slot for one posted send; returns the slot index.

        This is the canonical slot-allocation recipe. The engine's
        ``_post_send`` inlines exactly these writes on its hot path —
        change the two together.
        """
        free = self.free
        if not free:
            self._grow()
            free = self.free
        slot = free.pop()
        self.src[slot] = src
        self.dst[slot] = dst
        self.tag[slot] = tag
        self.comm_id[slot] = comm_id
        self.nbytes[slot] = nbytes
        self.send_time[slot] = send_time
        self.arrival[slot] = arrival
        self.seq[slot] = seq
        self.payload[slot] = payload
        self.kind[slot] = kind
        return slot

    def consume(self, slot: int) -> "MessageView":
        """Copy a slot out into a view; the caller recycles the slot.

        The engine recycles eagerly on the scalar path and *defers*
        recycling to the wave flush on the batched path, so a wave's slots
        always describe the wave's own messages when the flush gathers
        their columns for pricing and tracing. As with :meth:`post`, the
        engine's ``_consume_recv`` inlines this recipe on its hot path —
        change the two together.
        """
        view = MessageView(
            src=int(self.src[slot]),
            tag=int(self.tag[slot]),
            nbytes=int(self.nbytes[slot]),
            arrival_time=float(self.arrival[slot]),
            payload=self.payload[slot],
        )
        self.payload[slot] = None
        self.kind[slot] = None
        return view

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in (
            "src",
            "dst",
            "tag",
            "comm_id",
            "nbytes",
            "send_time",
            "arrival",
            "seq",
        ):
            column = getattr(self, name)
            grown = np.zeros(new, dtype=column.dtype)
            grown[:old] = column
            setattr(self, name, grown)
        self.payload.extend([None] * old)
        self.kind.extend([None] * old)
        self.free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def reset(self) -> None:
        """Return every slot to the free list (start of a fresh run).

        Capacity is kept; payload references are dropped so a reset pool
        never pins application data from the previous run.
        """
        self.payload = [None] * self.capacity
        self.kind = [None] * self.capacity
        self.free = list(range(self.capacity - 1, -1, -1))

    @property
    def live_slots(self) -> int:
        """Slots currently holding an in-flight message."""
        return self.capacity - len(self.free)

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessagePool(capacity={self.capacity}, live={self.live_slots})"


@dataclass(slots=True)
class MessageView:
    """Snapshot of one consumed message — treat as immutable.

    This is the only message shape observers ever see: pool slots are
    recycled once a wait consumes them, so everything downstream of a
    completed receive (``Status``, the returned payload, protocol
    receive-count accounting) reads from the view, never from the pool.
    (Not ``frozen=True``: per-field ``object.__setattr__`` would triple
    construction cost on the receive hot path.)
    """

    src: int
    tag: int
    nbytes: int
    arrival_time: float
    payload: Any


@dataclass(slots=True)
class Status:
    """Completion metadata for a receive (mirrors ``MPI_Status``)."""

    source: int
    tag: int
    nbytes: int


class Request:
    """Base class for nonblocking-operation handles."""

    __slots__ = ("done", "owner")

    def __init__(self, owner: int):
        self.done = False
        self.owner = owner  # world rank that posted the request

    def describe(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class SendRequest(Request):
    """Handle for a posted send.

    The engine models sends as buffered: the payload is captured at post
    time, so a send request is complete the instant it is posted. The
    handle carries no per-message state — the message itself lives in the
    engine's :class:`MessagePool` — which lets the engine hand every send
    the same immortal :data:`COMPLETED_SEND` instance instead of allocating
    one handle per message on the hot path. Programs keep the standard
    post-then-waitall MPI style; waiting on a send is always a no-op.
    """

    __slots__ = ()

    def __init__(self, owner: int = -1):
        super().__init__(owner)
        self.done = True

    def describe(self) -> str:
        return "send (buffered, complete at post)"


#: The shared completed-send handle returned by every send post.
COMPLETED_SEND = SendRequest()


class RecvRequest(Request):
    """Handle for a posted receive; completed by the matching engine.

    Lifecycle: posted (``slot == -1``) → matched (``slot`` holds the
    message's pool slot) → consumed by the first wait (``view`` set, slot
    freed). ``seq`` is the posting-sequence stamp used for wildcard
    arbitration; ``parent`` links the request into an enclosing
    :class:`WaitAllRequest` while one is blocked on it.
    """

    __slots__ = ("source", "tag", "comm_id", "seq", "slot", "view", "parent")

    def __init__(self, owner: int, source: int, tag: int, comm_id: int):
        super().__init__(owner)
        self.source = source
        self.tag = tag
        self.comm_id = comm_id
        self.seq = -1
        self.slot = -1
        self.view: MessageView | None = None
        self.parent: WaitAllRequest | None = None

    def complete(self, slot: int) -> None:
        """Attach the matched message's pool slot and mark the request done."""
        self.slot = slot
        self.done = True
        parent = self.parent
        if parent is not None:
            self.parent = None
            parent.child_completed()

    def status(self) -> Status:
        """Status of the completed receive (raises if not yet consumed).

        Completion metadata lives in the pool until the consuming wait
        copies it into the request's view, so ``status()`` is defined
        *after* the wait — mirroring MPI, where a status is an output of
        ``MPI_Wait``/``MPI_Test``, never a later query on the request.
        Use ``wait_status``/``recv_status`` to get payload and status
        together.
        """
        view = self.view
        if view is None:
            raise RuntimeError("status() before the receive was waited on")
        return Status(view.src, view.tag, view.nbytes)

    def describe(self) -> str:
        src = "ANY" if self.source == ANY_SOURCE else str(self.source)
        tag = "ANY" if self.tag == ANY_TAG else str(self.tag)
        return f"recv from {src} (tag {tag}, comm {self.comm_id})"


class PersistentRecvRequest(RecvRequest):
    """A reusable receive handle (mirrors ``MPI_Recv_init``).

    Created inactive; each ``start_all`` re-arms it (engine resets ``slot``
    / ``view`` and re-enters it into matching). Re-arming is restart-safe:
    the engine refuses to restart a handle still in flight *or* one whose
    matched message was never drained (either restart would drop a
    delivered message and leak its pool slot) — under failure injection a
    dead rank's armed handles simply stay parked in its mailbox until the
    next run's reset, exactly like un-waited plain receives.
    """

    __slots__ = ()

    def __init__(self, owner: int, source: int, tag: int, comm_id: int):
        super().__init__(owner, source, tag, comm_id)
        self.done = True  # inactive until started

    def describe(self) -> str:
        return "persistent " + super().describe()


class PersistentSendRequest(Request):
    """A reusable buffered-send recipe (mirrors ``MPI_Send_init``).

    Stores the resolved world destination, tag, communicator, payload and
    byte count once; every ``start_all`` posts one fresh message from the
    recipe (snapshotting the payload per start, exactly like a buffered
    send). Always ``done`` — buffered sends complete at post.
    """

    __slots__ = ("dest", "tag", "comm_id", "payload", "nbytes", "kind", "capture")

    def __init__(
        self,
        owner: int,
        dest: int,
        tag: int,
        comm_id: int,
        payload: Any,
        nbytes: int,
        kind: str,
    ):
        super().__init__(owner)
        self.done = True
        self.dest = dest
        self.tag = tag
        self.comm_id = comm_id
        self.payload = payload
        self.nbytes = nbytes
        self.kind = kind
        # Immutable payloads are posted as-is on every start; mutable ones
        # are snapshotted per start (buffered-send semantics).
        self.capture = not is_immutable_payload(payload)

    def describe(self) -> str:
        return f"persistent send to {self.dest} (tag {self.tag}, {self.nbytes} B)"


class WaitAllRequest(Request):
    """Aggregate handle: done when every child request is done.

    Backs the engine's ``WaitAll`` op (one scheduler interaction for a
    whole wave of receives instead of one per message). Pending children
    point back here through ``parent`` so the last completion wakes the
    blocked rank.
    """

    __slots__ = ("children", "remaining")

    def __init__(self, owner: int, children: list[Request]):
        super().__init__(owner)
        self.children = children
        remaining = 0
        for child in children:
            # Skip duplicates (parent already points here): one completion
            # must satisfy every listed occurrence, as sequential waits did.
            if not child.done and child.parent is not self:
                child.parent = self  # only RecvRequests can be pending
                remaining += 1
        self.remaining = remaining
        self.done = remaining == 0

    def child_completed(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.done = True

    def describe(self) -> str:
        pending = [c.describe() for c in self.children if not c.done]
        shown = "; ".join(pending[:4])
        if len(pending) > 4:
            shown += f"; … {len(pending) - 4} more"
        return f"waitall ({self.remaining} pending: {shown})"


class CollectiveRequest(Request):
    """Handle for a fast-path collective; completed when all members arrive.

    The engine parks every participating rank on one of these while it
    gathers the remaining members; once the whole communicator has yielded
    its :class:`~repro.simmpi.engine.CollectiveOp`, the engine computes the
    collective in one vectorized pass, stores each rank's ``result`` here
    and wakes the blocked members.
    """

    __slots__ = ("kind", "comm_id", "tag", "result")

    def __init__(self, owner: int, kind: str, comm_id: int, tag: int):
        super().__init__(owner)
        self.kind = kind
        self.comm_id = comm_id
        self.tag = tag
        self.result: Any = None

    def describe(self) -> str:
        return f"collective {self.kind} (comm {self.comm_id}, tag {self.tag})"


class KernelHoldRequest(Request):
    """Handle a rank is held on at a :class:`~repro.simmpi.engine.KernelLoop`
    yield until the scheduler goes quiescent.

    ``op`` is the declared loop; ``result`` is the engine's reply, set when
    the hold completes: ``True`` once the loop ran closed-form, ``False``
    when it was declined and nothing was posted.
    """

    __slots__ = ("op", "result")

    def __init__(self, owner: int, op: Any):
        super().__init__(owner)
        self.op = op
        self.result = False

    def describe(self) -> str:
        return f"kernel loop hold ({self.op.iterations} iterations)"
