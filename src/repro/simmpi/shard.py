"""Sharded multi-process trace engine: conservative-window parallel DES.

The single-process :class:`~repro.simmpi.engine.Engine` runs the whole
world in one scheduler; this module partitions the simulated world into
per-shard subworlds and runs each in its own process, exchanging only
boundary messages and partial-collective gathers at window boundaries.
The design exploits the engine's buffered-send semantics: a send
completes at post time and its arrival is priced from
the *sender's* clock, so a boundary message carries its own timing — no
clock-lookahead constraint is needed, and the conservative window is
simply "drain every shard until all owned ranks are blocked on external
input or finished, then exchange".

Equivalence with the single-process engine is exact, not approximate:

* **traces** are order-independent integer byte sums, recorded once per
  message (boundary p2p at the sending shard, collectives at the
  coordinator) — merging the per-shard recorders reproduces the dense
  matrices byte-for-byte;
* **clocks** depend only on the match assignment and on per-message
  arrival times. Arrivals are ``send_time + transfer_time(src, dst,
  nbytes)`` — the same scalar the single-process engine computes (its
  vectorized wave pricing is bit-identical to the scalar path by the
  :class:`~repro.simmpi.network.NetworkModel` contract). Match
  assignment is preserved because per-channel FIFO survives sharding
  (boundary messages are injected in a deterministic global order:
  origin shard ascending, outbox position ascending — i.e. posting
  order) and because wildcard receives stay *intra-shard* when the
  partition respects the workload's :meth:`~repro.apps.workload.Workload.
  shard_atoms` (an FTI node's ``ANY_SOURCE`` ready-gather and every
  candidate sender share an atom). The BSP drain order is just another
  legal MPI schedule; workloads whose observables are schedule-invariant
  (all in-tree workloads — the nightly interleaving sweep pins this)
  observe byte-identical traces and bit-identical clocks.

Cross-shard fast-path collectives decompose: a shard's partially-gathered
:class:`~repro.simmpi.engine._PendingCollective` never completes locally
(its count can't reach the group size), so at each window boundary the
shard exports the newly-arrived members' ``(group rank, value, op,
clock)`` contributions. The coordinator gathers them across shards and,
once a group is complete, runs the very same
:func:`~repro.simmpi.collectives.execute_fast_collective` the
single-process engine would — same results, same clock updates, same
trace records — then ships each member's ``(result, clock)`` back to its
owning shard. Slow-path (cascade) collectives need nothing special: they
are boundary p2p. ``Communicator.split`` works unchanged because every
member derives the identical plan from the identical (coordinator-
completed) allgather and id allocation walks colors in sorted order;
the one documented limitation is *concurrent* splits on disjoint
communicators, whose registration order — and hence comm ids — could
differ across shards.

Deadlock detection is global and free: every shard is fully drained
between windows, so if a round routes no boundary messages and completes
no collective while ranks remain unfinished, no future round can differ —
the coordinator gathers each shard's blocked descriptions, enriches
partially-gathered collectives with its *global* gather state (the shard
only sees its local members), and raises the same
:class:`~repro.simmpi.errors.DeadlockError` the single engine would.

``ShardedEngine(shards=1)`` exercises the full machinery (partition,
windows, merge) and degenerates to the single-process results exactly;
``workers=0`` runs every shard in-process over the identical protocol,
which is what makes worker-count invariance a tested property rather
than a hope.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import pickle
import traceback
from typing import Any, Sequence

import numpy as np

from repro.simmpi import collectives as _coll
from repro.simmpi.config import EngineConfig
from repro.simmpi.engine import Engine
from repro.simmpi.errors import DeadlockError, MatchingError
from repro.simmpi.network import NetworkModel, zero_latency_network
from repro.simmpi.request import CollectiveRequest
from repro.simmpi.tracing import TraceRecorder


# --------------------------------------------------------------------------
# Partitioner
# --------------------------------------------------------------------------


def partition_workload(workload, shards: int) -> list[tuple[int, ...]]:
    """Cut the workload's rank set into ``shards`` contiguous atom groups.

    Atoms (:meth:`~repro.apps.workload.Workload.shard_atoms`) are the
    workload's indivisible rank groups *in communication order*: grid
    workloads enumerate ranks row-major so contiguous runs are grid
    bands (the minimum-cut direction of a stencil), and the FTI world
    yields one atom per node block so every wildcard gather stays with
    its candidate senders. Cutting contiguous runs of atoms therefore
    cuts along the workload's comm graph; the split is balanced by rank
    count (greedy nearest-boundary) and fully deterministic.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    atoms = [tuple(a) for a in workload.shard_atoms()]
    nranks = workload.nranks
    flat = [r for atom in atoms for r in atom]
    if sorted(flat) != list(range(nranks)):
        raise ValueError(
            f"shard_atoms() must cover ranks 0..{nranks - 1} exactly once, "
            f"got {atoms}"
        )
    if shards > len(atoms):
        raise ValueError(
            f"cannot cut {len(atoms)} indivisible atom(s) into {shards} "
            f"shards (the workload's shard_atoms() bound parallelism)"
        )
    parts: list[tuple[int, ...]] = []
    at = 0
    consumed = 0
    for s in range(shards):
        remaining_shards = shards - s - 1
        target_end = (s + 1) * nranks / shards
        ranks: list[int] = list(atoms[at])
        consumed += len(atoms[at])
        at += 1
        while at < len(atoms) - remaining_shards:
            size = len(atoms[at])
            # Take the next atom only while it moves the boundary closer
            # to this shard's ideal cumulative rank count.
            if abs(consumed + size - target_end) > abs(consumed - target_end):
                break
            ranks.extend(atoms[at])
            consumed += size
            at += 1
        parts.append(tuple(ranks))
    return parts


# --------------------------------------------------------------------------
# Shard-side engine
# --------------------------------------------------------------------------


def _tracer_spec(tracer) -> tuple | None:
    """Describe a recorder so workers can build their own of the same shape."""
    if tracer is None:
        return None
    if isinstance(tracer, TraceRecorder):
        return (tracer.nranks, tracer.by_kind)
    raise TypeError(
        f"sharded runs need a mergeable TraceRecorder, got {type(tracer).__name__}"
    )


def _tracer_from_spec(spec: tuple | None):
    if spec is None:
        return None
    nranks, by_kind = spec
    return TraceRecorder(nranks, by_kind=by_kind)


class ShardEngine(Engine):
    """An :class:`Engine` that owns a subset of the world's ranks.

    Owned ranks run exactly like in the single-process engine; a send to
    an external rank records its trace and parks on the outbox instead of
    entering local matching, and :meth:`inject_boundary` enters messages
    from other shards with their sender-side timing intact. The window
    loop around :meth:`~Engine._drain` lives in :class:`_ShardRunner`.
    """

    def __init__(
        self,
        nranks: int,
        owned_ranks: Sequence[int],
        *,
        config: EngineConfig | None = None,
        network: NetworkModel | None = None,
        tracer=None,
    ):
        super().__init__(nranks, config=config, network=network, tracer=tracer)
        self._owned = tuple(sorted(owned_ranks))
        self._owned_set = frozenset(self._owned)
        if not self._owned:
            raise ValueError("a shard must own at least one rank")
        bad = [r for r in self._owned if not 0 <= r < nranks]
        if bad:
            raise ValueError(f"owned ranks {bad} outside world of {nranks}")
        # Boundary sends accumulated during the current window, in posting
        # order: (src, dst, tag, comm_id, nbytes, send_time, payload, kind).
        self._outbox: list[tuple] = []
        # Group ranks already exported per pending cross-shard collective.
        self._coll_exported: dict[tuple[int, int], set[int]] = {}

    def _ranks_to_run(self) -> Sequence[int]:
        return self._owned

    def _setup_run(self, program, *, comm_factory=None) -> None:
        super()._setup_run(program, comm_factory=comm_factory)
        self._outbox = []
        self._coll_exported = {}

    def _post_send(self, state, dst, tag, comm_id, payload, nbytes, kind) -> None:
        if dst in self._owned_set:
            super()._post_send(state, dst, tag, comm_id, payload, nbytes, kind)
            return
        # Boundary send: buffered semantics make this complete-at-post just
        # like a local send. Record the trace here (the receiving shard
        # never records injected messages), stamp the posting sequence so
        # local ordering invariants hold, and carry the sender clock — the
        # receiving shard prices arrival from it with the same scalar
        # transfer_time the single-process engine uses.
        src = state.rank
        seq = self._seq
        self._seq = seq + 1
        if self.tracer is not None:
            self.tracer.record(src, dst, nbytes, kind=kind)
        if self.message_log is not None and self.message_log.wants(src, dst):
            self.message_log.record(src, dst, tag, payload, nbytes, kind)
        self._outbox.append(
            (src, dst, tag, comm_id, int(nbytes), state.ctx.clock, payload, kind)
        )

    def inject_boundary(self, messages: Sequence[tuple]) -> None:
        """Enter boundary messages from other shards into local matching.

        ``messages`` arrive in the deterministic global order the
        coordinator constructed (origin shard ascending, outbox position
        ascending); each gets a fresh pool slot, a receiver-side posting
        stamp in that order, and a scalar-priced arrival — then the
        engine's own :meth:`~Engine._deliver_slot` does matching,
        wildcard arbitration and wake-up exactly as for a local post.
        """
        pool = self.pool
        transfer_time = self.network.transfer_time
        for src, dst, tag, comm_id, nbytes, send_time, payload, kind in messages:
            seq = self._seq
            self._seq = seq + 1
            slot = pool.post(
                src,
                dst,
                tag,
                comm_id,
                payload,
                nbytes,
                send_time,
                send_time + transfer_time(src, dst, nbytes),
                seq,
                kind,
            )
            self._deliver_slot(src, dst, tag, comm_id, slot)

    # -- cross-shard collectives -------------------------------------------

    def export_partial_collectives(self) -> list[tuple]:
        """Incremental member contributions of cross-shard collectives.

        For every pending collective whose group has external members,
        export each locally-arrived member not exported in an earlier
        window: ``(key, (kind, root, trace_kind, group), [(group rank,
        value, op, clock), ...])``. A blocked member's clock is frozen
        until its result lands, so the clock exported at arrival is the
        clock :meth:`~Engine._complete_collective` would have read.
        """
        exports: list[tuple] = []
        owned = self._owned_set
        states = self._states
        for key, entry in self._pending_colls.items():
            if owned.issuperset(entry.group):
                continue  # purely local: completes (or deadlocks) here
            sent = self._coll_exported.setdefault(key, set())
            members = []
            for grank, req in enumerate(entry.requests):
                if req is not None and grank not in sent:
                    sent.add(grank)
                    world = entry.group[grank]
                    members.append(
                        (
                            grank,
                            entry.values[grank],
                            entry.op_fns[grank],
                            states[world].ctx.clock,
                        )
                    )
            if members:
                exports.append(
                    (key, (entry.kind, entry.root, entry.trace_kind, entry.group), members)
                )
        return exports

    def apply_collective_results(self, completions: Sequence[tuple]) -> None:
        """Apply coordinator-computed collective results to local members.

        ``completions`` is ``[(key, [(group rank, result, clock), ...])]``
        covering exactly this shard's members; the application mirrors
        :meth:`~Engine._complete_collective` line for line — set the
        member's clock, complete its request, wake it if it blocks on it.
        """
        states = self._states
        for key, members in completions:
            entry = self._pending_colls.pop(key, None)
            self._coll_exported.pop(key, None)
            if entry is None:
                raise MatchingError(
                    f"coordinator completed unknown collective {key}"
                )
            for grank, result, clock in members:
                req = entry.requests[grank]
                world = entry.group[grank]
                state = states[world]
                state.ctx.clock = clock
                req.result = result
                req.done = True
                if state.blocked_on is req:
                    self._make_runnable(world)

    # -- reporting ----------------------------------------------------------

    def blocked_ranks(self) -> list[tuple[int, str, tuple | None]]:
        """Attribution input for the coordinator's global deadlock report.

        Per unfinished rank: ``(rank, description, collective key or
        None)``. Purely-local collectives get the engine's own enrichment
        (the local gather state is the whole truth); cross-shard ones
        return the raw description plus their key so the coordinator can
        attach the *global* gather state.
        """
        out = []
        for rank in self._owned:
            state = self._states[rank]
            if state is None or state.finished:
                continue
            request = state.blocked_on
            key = None
            if request is not None and request.__class__ is CollectiveRequest:
                entry = self._pending_colls.get((request.comm_id, request.tag))
                if entry is not None and not self._owned_set.issuperset(entry.group):
                    key = (request.comm_id, request.tag)
            if key is not None:
                desc = request.describe()
            else:
                desc = self._describe_blocked(state)
            out.append((rank, desc, key))
        return out


class _ShardRunner:
    """Drives one :class:`ShardEngine` through the window protocol."""

    def __init__(self, nranks, owned, config, network, tracer_spec, programs):
        self.engine = ShardEngine(
            nranks,
            owned,
            config=config,
            network=network,
            tracer=_tracer_from_spec(tracer_spec),
        )
        self.programs = programs

    def start(self) -> dict:
        eng = self.engine
        eng._setup_run(self.programs)
        return self._drain_and_report(eng._initial_batch())

    def window(self, injections, completions) -> dict:
        eng = self.engine
        eng.apply_collective_results(completions)
        eng.inject_boundary(injections)
        batch = eng._next_runnable
        batch.sort()
        eng._next_runnable = []
        eng._in_next = set()
        return self._drain_and_report(batch)

    def _drain_and_report(self, batch) -> dict:
        eng = self.engine
        resume_gc = gc.isenabled()
        if resume_gc:
            gc.disable()
        try:
            eng._drain(batch)
        finally:
            if resume_gc:
                gc.enable()
            if eng._wave_slots or eng._deferred_free:
                eng._price_pending_sends()
        outbox = eng._outbox
        eng._outbox = []
        return {
            "outbox": outbox,
            "colls": eng.export_partial_collectives(),
            "unfinished": any(
                not eng._states[rank].finished for rank in eng._owned
            ),
        }

    def describe(self) -> list[tuple]:
        return self.engine.blocked_ranks()

    def finish(self) -> dict:
        eng = self.engine
        report = {
            "results": {
                r: eng._states[r].result for r in eng._owned
            },
            "clocks": {r: eng._states[r].ctx.clock for r in eng._owned},
            "tracer": eng.tracer,
            "counters": {
                "fast_collectives_run": eng.fast_collectives_run,
                "kernel_runs": eng.kernel_runs,
                "kernel_iterations": eng.kernel_iterations,
                "kernel_deopts": dict(eng.kernel_deopts),
            },
        }
        eng._release_run()
        return report


# --------------------------------------------------------------------------
# Shard hosts: in-process or one worker process for several shards
# --------------------------------------------------------------------------


def _build_programs(workload, nranks: int, owned: Sequence[int]) -> list:
    """Instantiate only the owned ranks' programs (lazily per shard)."""
    programs: list = [None] * nranks
    for rank in owned:
        programs[rank] = workload.build_program(rank)
    return programs


class _InlineHost:
    """Runs its shards in-process (``workers=0``) over the same protocol."""

    def __init__(self):
        self.runners: dict[int, _ShardRunner] = {}

    def add_shard(self, sidx, nranks, owned, config, network, tracer_spec, workload):
        self.runners[sidx] = _ShardRunner(
            nranks,
            owned,
            config,
            network,
            tracer_spec,
            _build_programs(workload, nranks, owned),
        )

    def init(self) -> None:
        pass

    def start(self, sidxs) -> dict[int, dict]:
        return {s: self.runners[s].start() for s in sidxs}

    def window(self, work) -> dict[int, dict]:
        return {
            s: self.runners[s].window(inj, comp) for s, inj, comp in work
        }

    def describe(self, sidxs) -> dict[int, list]:
        return {s: self.runners[s].describe() for s in sidxs}

    def finish(self, sidxs) -> dict[int, dict]:
        return {s: self.runners[s].finish() for s in sidxs}

    def close(self) -> None:
        # A deadlocked or failed run never reaches finish(); its shards
        # still hold their tracers and must not survive the call.
        for runner in self.runners.values():
            runner.engine._release_run()


def _worker_main(conn) -> None:
    """Worker-process loop: host several shard runners behind one pipe."""
    runners: dict[int, _ShardRunner] = {}
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "init":
                for sidx, nranks, owned, config, network, spec, workload in msg[1]:
                    runners[sidx] = _ShardRunner(
                        nranks,
                        owned,
                        config,
                        network,
                        spec,
                        _build_programs(workload, nranks, owned),
                    )
                conn.send(("ok", None))
            elif op == "start":
                conn.send(("ok", {s: runners[s].start() for s in msg[1]}))
            elif op == "window":
                conn.send(
                    ("ok", {s: runners[s].window(inj, comp) for s, inj, comp in msg[1]})
                )
            elif op == "describe":
                conn.send(("ok", {s: runners[s].describe() for s in msg[1]}))
            elif op == "finish":
                conn.send(("ok", {s: runners[s].finish() for s in msg[1]}))
            elif op == "stop":
                return
    except EOFError:
        return
    except BaseException as exc:
        # Forward the original exception when it pickles (so e.g. a
        # RankFailedError surfaces identically to the in-process path);
        # fall back to the formatted traceback otherwise.
        try:
            payload = pickle.dumps(exc)
            conn.send(("raise", payload))
        except Exception:
            conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _ProcessHost:
    """One worker process hosting several shards behind a duplex pipe."""

    def __init__(self):
        self._payloads: list[tuple] = []
        self._proc = None
        self._conn = None

    def add_shard(self, sidx, nranks, owned, config, network, tracer_spec, workload):
        self._payloads.append(
            (sidx, nranks, owned, config, network, tracer_spec, workload)
        )

    def init(self) -> None:
        ctx = mp.get_context()
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self._proc.start()
        child.close()
        self._request(("init", self._payloads))
        self._payloads = []

    def _request(self, msg):
        self._conn.send(msg)
        status, payload = self._conn.recv()
        if status == "raise":
            raise pickle.loads(payload)
        if status == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        return payload

    def start(self, sidxs) -> dict[int, dict]:
        return self._request(("start", list(sidxs)))

    def window(self, work) -> dict[int, dict]:
        return self._request(("window", list(work)))

    def describe(self, sidxs) -> dict[int, list]:
        return self._request(("describe", list(sidxs)))

    def finish(self, sidxs) -> dict[int, dict]:
        return self._request(("finish", list(sidxs)))

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            self._proc.join(timeout=5)
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc = None


# --------------------------------------------------------------------------
# Coordinator
# --------------------------------------------------------------------------


class _GlobalColl:
    """Coordinator-side gathering state of one cross-shard collective."""

    __slots__ = (
        "kind",
        "root",
        "trace_kind",
        "group",
        "grank_of",
        "values",
        "op_fns",
        "clocks",
        "gathered",
    )

    def __init__(self, header):
        kind, root, trace_kind, group = header
        size = len(group)
        self.kind = kind
        self.root = root
        self.trace_kind = trace_kind
        self.group = tuple(group)
        self.grank_of = {w: g for g, w in enumerate(self.group)}
        self.values: list[Any] = [None] * size
        self.op_fns: list = [None] * size
        self.clocks = np.zeros(size, dtype=np.float64)
        self.gathered: set[int] = set()  # group ranks exported so far

    def missing_members(self) -> list[int]:
        """World ranks of members no shard has exported yet."""
        return [
            w for g, w in enumerate(self.group) if g not in self.gathered
        ]


class ShardedEngine:
    """Run a :class:`~repro.apps.workload.Workload` across shard subworlds.

    Parameters
    ----------
    shards:
        Number of subworlds. ``shards=1`` exercises the full machinery
        (partition, window protocol, trace merge) and reproduces the
        single-process engine's results exactly.
    workers:
        Worker processes. ``0`` runs every shard in-process (the default,
        and the only mode that accepts non-picklable
        :class:`~repro.apps.workload.ProgramsWorkload` closures);
        ``N >= 1`` spawns ``min(N, shards)`` long-lived processes and
        distributes shards round-robin. Results are invariant to the
        worker count: the window protocol is identical either way.
    config:
        The shared :class:`~repro.simmpi.config.EngineConfig`, replicated
        onto every shard. Interleaving exploration is single-process-only
        and is rejected here.
    network / tracer:
        As on :class:`~repro.simmpi.engine.Engine`. The tracer must be a
        :class:`~repro.simmpi.tracing.TraceRecorder`; shards record their
        own traffic and the merge lands on this instance.
    """

    def __init__(
        self,
        shards: int,
        *,
        workers: int = 0,
        config: EngineConfig | None = None,
        network: NetworkModel | None = None,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        config = config if config is not None else EngineConfig()
        if config.schedule_seed is not None or config.schedule_trace is not None:
            raise ValueError(
                "interleaving exploration (schedule_seed/schedule_trace) is "
                "single-process only; run it on Engine directly"
            )
        self.shards = shards
        self.workers = workers
        self.config = config
        self.network = network if network is not None else zero_latency_network()
        self.tracer = tracer
        self.partitions: list[tuple[int, ...]] | None = None
        self.windows_run = 0
        self.fast_collectives_run = 0
        self.kernel_runs = 0
        self.kernel_iterations = 0
        self.kernel_deopts: dict[str, int] = {}
        self._rank_times: list[float] = []

    def run(self, workload) -> list[Any]:
        """Execute the workload; return per-rank results in world order."""
        from repro.apps.workload import Workload

        if not isinstance(workload, Workload):
            raise TypeError(
                f"ShardedEngine.run needs a Workload (got "
                f"{type(workload).__name__}); wrap explicit programs in "
                f"repro.apps.workload.ProgramsWorkload (workers=0 only)"
            )
        nranks = workload.nranks
        if self.tracer is not None and self.tracer.nranks != nranks:
            raise ValueError(
                f"tracer covers {self.tracer.nranks} ranks but the workload "
                f"has {nranks}"
            )
        parts = partition_workload(workload, self.shards)
        self.partitions = parts
        rank_shard = {}
        for sidx, ranks in enumerate(parts):
            for r in ranks:
                rank_shard[r] = sidx
        spec = _tracer_spec(self.tracer)

        if self.workers:
            try:
                pickle.dumps((workload, self.config, self.network))
            except Exception as exc:
                raise TypeError(
                    "multi-process sharding ships the workload, config and "
                    "network to workers by pickling; use a picklable "
                    "Workload adapter (or workers=0 for in-process shards): "
                    f"{exc}"
                ) from exc
            hosts = [_ProcessHost() for _ in range(min(self.workers, len(parts)))]
        else:
            hosts = [_InlineHost()]
        host_of = {}
        for sidx, ranks in enumerate(parts):
            host = hosts[sidx % len(hosts)]
            host.add_shard(
                sidx, nranks, ranks, self.config, self.network, spec, workload
            )
            host_of[sidx] = host
        shards_of: dict[Any, list[int]] = {}
        for sidx in range(len(parts)):
            shards_of.setdefault(host_of[sidx], []).append(sidx)

        # The coordinator's own recorder books completed cross-shard
        # collectives (execute_fast_collective's record_many), exactly as
        # the single-process engine's tracer would have.
        coll_tracer = _tracer_from_spec(spec)
        global_colls: dict[tuple[int, int], _GlobalColl] = {}

        try:
            for host in hosts:
                host.init()
            reports: dict[int, dict] = {}
            for host in hosts:
                reports.update(host.start(shards_of[host]))
            unfinished = {s: reports[s]["unfinished"] for s in reports}

            while sum(unfinished.values()):
                injections: dict[int, list] = {}
                completions: dict[int, list] = {}
                # Boundary routing in deterministic global order: origin
                # shard ascending, outbox position ascending — posting
                # order, which preserves per-channel FIFO at the receiver.
                for sidx in sorted(reports):
                    for message in reports[sidx]["outbox"]:
                        dest = rank_shard[message[1]]
                        injections.setdefault(dest, []).append(message)
                    for key, header, members in reports[sidx]["colls"]:
                        entry = global_colls.get(key)
                        if entry is None:
                            entry = global_colls[key] = _GlobalColl(header)
                        elif (
                            entry.kind != header[0]
                            or entry.root != header[1]
                            or entry.group != tuple(header[3])
                        ):
                            raise MatchingError(
                                f"collective {key} gathered with inconsistent "
                                f"shape across shards"
                            )
                        for grank, value, op_fn, clock in members:
                            if grank in entry.gathered:
                                raise MatchingError(
                                    f"collective {key} member {grank} "
                                    f"exported twice"
                                )
                            entry.values[grank] = value
                            entry.op_fns[grank] = op_fn
                            entry.clocks[grank] = clock
                            entry.gathered.add(grank)
                for key in [
                    k
                    for k, e in global_colls.items()
                    if len(e.gathered) == len(e.group)
                ]:
                    entry = global_colls.pop(key)
                    results, new_clocks = _coll.execute_fast_collective(
                        entry.kind,
                        values=entry.values,
                        op_fns=entry.op_fns,
                        root=entry.root,
                        trace_kind=entry.trace_kind,
                        clocks=entry.clocks,
                        group=np.asarray(entry.group, dtype=np.int64),
                        network=self.network,
                        tracer=coll_tracer,
                    )
                    self.fast_collectives_run += 1
                    new_times = new_clocks.tolist()
                    for grank, world in enumerate(entry.group):
                        completions.setdefault(rank_shard[world], []).append(
                            (key, grank, results[grank], new_times[grank])
                        )

                touched = sorted(set(injections) | set(completions))
                if not touched:
                    raise self._global_deadlock(
                        hosts, shards_of, unfinished, global_colls, rank_shard
                    )
                work: dict[Any, list] = {}
                for sidx in touched:
                    per_key: dict[tuple, list] = {}
                    for key, grank, result, clock in completions.get(sidx, []):
                        per_key.setdefault(key, []).append((grank, result, clock))
                    work.setdefault(host_of[sidx], []).append(
                        (sidx, injections.get(sidx, []), list(per_key.items()))
                    )
                self.windows_run += 1
                reports = {}
                for host, batch in work.items():
                    reports.update(host.window(batch))
                for sidx in reports:
                    unfinished[sidx] = reports[sidx]["unfinished"]

            finishes: dict[int, dict] = {}
            for host in hosts:
                finishes.update(host.finish(shards_of[host]))
        finally:
            for host in hosts:
                host.close()

        results: list[Any] = [None] * nranks
        clocks: list[float] = [0.0] * nranks
        for sidx, payload in finishes.items():
            for rank, value in payload["results"].items():
                results[rank] = value
            for rank, clock in payload["clocks"].items():
                clocks[rank] = clock
            if self.tracer is not None and payload["tracer"] is not None:
                self.tracer.merge(payload["tracer"])
            counters = payload["counters"]
            self.fast_collectives_run += counters["fast_collectives_run"]
            self.kernel_runs += counters["kernel_runs"]
            self.kernel_iterations += counters["kernel_iterations"]
            for reason, n in counters["kernel_deopts"].items():
                self.kernel_deopts[reason] = self.kernel_deopts.get(reason, 0) + n
        if self.tracer is not None and coll_tracer is not None:
            self.tracer.merge(coll_tracer)
        self._rank_times = clocks
        return results

    def rank_times(self) -> list[float]:
        """Per-rank final virtual clocks, in world order (after :meth:`run`)."""
        return list(self._rank_times)

    def _global_deadlock(self, hosts, shards_of, unfinished, global_colls, rank_shard):
        """Merge per-shard blocked descriptions into one DeadlockError.

        Cross-shard collectives get the coordinator's global gather state
        (the shard only sees local arrivals): same format as the single
        engine's attribution — group rank, gathered count, missing world
        ranks.
        """
        blocked: dict[int, str] = {}
        for host in hosts:
            stuck = [s for s in shards_of[host] if unfinished[s]]
            if not stuck:
                continue
            for sidx, entries in host.describe(stuck).items():
                for rank, desc, key in entries:
                    if key is not None:
                        entry = global_colls.get(key)
                        if entry is not None:
                            group = entry.group
                            missing = entry.missing_members()
                            shown = ", ".join(map(str, missing[:8]))
                            if len(missing) > 8:
                                shown += f", … {len(missing) - 8} more"
                            grank = entry.grank_of.get(rank)
                            desc += (
                                f" — group rank {grank}/{len(group)}, "
                                f"gathered {len(entry.gathered)}/"
                                f"{len(group)}, missing world rank(s) "
                                f"[{shown}]"
                            )
                    blocked[rank] = desc
        return DeadlockError(blocked)


__all__ = [
    "ShardEngine",
    "ShardedEngine",
    "partition_workload",
]
