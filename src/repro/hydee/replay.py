"""Replay communicator: re-executes failed ranks against the message log.

During recovery, only the failed L1 cluster's ranks re-execute (that is the
whole point of failure containment). Their communication splits three ways:

* **intra-cluster** — both endpoints are replaying: routed through a small
  private engine, regenerating the messages exactly as in the original run;
* **incoming from survivors** — served from the sender-based log, starting
  at the receive positions stored in the checkpoint sidecar;
* **outgoing to survivors** — suppressed (survivors already received them)
  but *captured*, so send-determinism can be verified against the log.

The class subclasses :class:`~repro.simmpi.Communicator` and presents the
*original* rank/size to the application, so unmodified app code (including
collectives, which decompose into point-to-point) replays transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.hydee.logging import LogEntry, ReplayCursor
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import RankContext
from repro.simmpi.request import ANY_SOURCE, ANY_TAG, Request, capture_payload


class _ServedRequest(Request):
    """A receive pre-completed from the log (no engine involvement)."""

    __slots__ = ("payload",)

    def __init__(self, owner: int, payload: Any):
        super().__init__(owner)
        self.payload = payload
        self.done = True

    def describe(self) -> str:
        return "log-served recv"


class _SuppressedSend(Request):
    """A send to a survivor: captured, never transmitted."""

    __slots__ = ()

    def describe(self) -> str:
        return "suppressed send"


@dataclass
class OutboundRecord:
    """One suppressed (replayed) send toward a surviving rank."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int


class ReplayCommunicator(Communicator):
    """Communicator view used by replaying ranks.

    Parameters
    ----------
    ctx:
        Context within the *replay* engine (world of ``len(members)`` ranks).
    members:
        Sorted original ranks being replayed; ``members[ctx.rank]`` is this
        rank's original identity.
    original_size:
        World size of the original run (what ``.size`` must report).
    cursor:
        Log cursor positioned at the checkpointed receive counts.
    outbound:
        Shared list collecting suppressed sends (for verification).
    coll_seq:
        Restored collective counter from the checkpoint sidecar, so replayed
        collective tags match the logged ones exactly.
    """

    #: Replay refuses persistent requests (starts would bypass log serving
    #: and send suppression), so apps run their exchange recipes through
    #: the per-message driver here (:func:`repro.apps.workload.runs_waves`).
    #: That driver posts exactly the messages the original run logged,
    #: whichever driver the original run used: one recipe, two drivers.
    supports_waves = False

    def __init__(
        self,
        ctx: RankContext,
        members: list[int],
        original_size: int,
        cursor: ReplayCursor,
        outbound: list[OutboundRecord],
        *,
        coll_seq: int = 0,
    ):
        # The underlying engine communicator covers the replay world.
        super().__init__(ctx, 0, tuple(range(len(members))))
        self._members = list(members)
        self._member_index = {orig: i for i, orig in enumerate(members)}
        self._original_rank = members[ctx.rank]
        self._original_size = original_size
        self._cursor = cursor
        self._outbound = outbound
        self._coll_seq = coll_seq

    # -- identity seen by the application ------------------------------------

    @property
    def rank(self) -> int:  # type: ignore[override]
        """Original rank of this replaying process."""
        return self._original_rank

    @rank.setter
    def rank(self, value: int) -> None:
        # Base-class __init__ assigns the engine-local rank; ignore it.
        pass

    @property
    def size(self) -> int:  # type: ignore[override]
        """Original world size (what the app decomposes over)."""
        return self._original_size

    @size.setter
    def size(self, value: int) -> None:
        pass

    def _is_member(self, original_rank: int) -> bool:
        return original_rank in self._member_index

    # -- point-to-point overrides ----------------------------------------------

    def isend(self, obj, dest, tag=0, *, nbytes=None, kind="p2p"):
        from repro.simmpi.request import nbytes_of

        if not 0 <= dest < self._original_size:
            from repro.simmpi.errors import CommunicatorError

            raise CommunicatorError(
                f"rank {dest} out of range for world of {self._original_size}"
            )
        if self._is_member(dest):
            local = self._member_index[dest]
            req = yield from Communicator.isend(
                self, obj, local, tag, nbytes=nbytes, kind=kind
            )
            return req
        size = nbytes if nbytes is not None else nbytes_of(obj)
        self._outbound.append(
            OutboundRecord(
                src=self._original_rank,
                dst=dest,
                tag=tag,
                # Buffered-send semantics: the app may repack its buffer.
                payload=capture_payload(obj),
                nbytes=int(size),
            )
        )
        return _SuppressedSend(self.ctx.rank)

    def irecv(self, source=ANY_SOURCE, tag=ANY_TAG):
        if source == ANY_SOURCE:
            from repro.simmpi.errors import CommunicatorError

            raise CommunicatorError(
                "replay cannot serve wildcard-source receives: the log is "
                "channel-ordered (send-deterministic apps use explicit sources)"
            )
        if self._is_member(source):
            local = self._member_index[source]
            req = yield from Communicator.irecv(self, local, tag)
            return req
        entry: LogEntry = self._cursor.next_message(
            source,
            self._original_rank,
            expected_tag=None if tag == ANY_TAG else tag,
        )
        if False:
            yield  # keep generator semantics without engine interaction
        return _ServedRequest(self.ctx.rank, entry.payload)

    def wait(self, request):
        if isinstance(request, _ServedRequest):
            if False:
                yield
            return request.payload
        if isinstance(request, _SuppressedSend):
            if False:
                yield
            return None
        return (yield from Communicator.wait(self, request))

    def waitall(self, requests):
        """Sequential waits: log-served and suppressed requests never reach
        the engine, so the base class's single ``WaitAll`` op (which only
        understands engine-native requests) cannot drain a replay's mix."""
        results = []
        for request in requests:
            results.append((yield from self.wait(request)))
        return results

    def wait_status(self, request):
        if isinstance(request, _ServedRequest):
            from repro.simmpi.errors import CommunicatorError

            raise CommunicatorError(
                "wait_status on log-served receives is not supported"
            )
        return (yield from Communicator.wait_status(self, request))

    # -- unsupported during replay ----------------------------------------------

    def _no_persistent_replay(self):
        from repro.simmpi.errors import CommunicatorError

        raise CommunicatorError(
            "persistent requests are not supported during replay: starts "
            "would bypass log serving (receives from survivors) and send "
            "suppression (sends to survivors) — replay windows use the "
            "per-message isend/irecv/wait API"
        )

    def send_init(self, obj, dest, tag=0, *, nbytes=None, kind="p2p"):
        self._no_persistent_replay()

    def recv_init(self, source=ANY_SOURCE, tag=ANY_TAG):
        self._no_persistent_replay()

    def start_all(self, requests):
        self._no_persistent_replay()
        if False:
            yield

    def start(self, request):
        self._no_persistent_replay()
        if False:
            yield

    def start_all_op(self, requests):
        self._no_persistent_replay()

    def waitall_op(self, requests):
        self._no_persistent_replay()

    def split(self, color, key=0):
        from repro.simmpi.errors import CommunicatorError

        raise CommunicatorError(
            "communicator creation during replay is not supported: replay "
            "windows contain application steps only"
        )
        if False:
            yield

    def _world_rank(self, local: int) -> int:
        # Point-to-point address translation happens in isend/irecv; the
        # base-class helpers must see engine-local ranks unchanged.
        if not 0 <= local < len(self._members):
            from repro.simmpi.errors import CommunicatorError

            raise CommunicatorError(
                f"internal replay rank {local} out of range"
            )
        return self.group[local]
