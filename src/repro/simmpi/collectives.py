"""Collective algorithms implemented over simulated point-to-point.

Collectives are implemented the way MPICH2 implements them — as trees and
distance-doubling exchanges over point-to-point messages — because the
*trace* of a collective matters to the paper: Fig. 5b explicitly identifies
the power-of-two diagonals of MPICH2's ``MPI_Allgather`` (used by FTI during
initialization). Running these algorithms through the tracer reproduces the
same diagonals.

All generator functions in the first half of this module operate on a
:class:`~repro.simmpi.comm.Communicator`; they must be invoked with
``yield from``. Every collective draws a fresh internal tag from the
communicator so that back-to-back collectives never cross-match.

Fast paths
----------
The second half holds the *fast paths*: closed-form emulations of the same
algorithms that the engine runs in one vectorized pass once every member of
the communicator — the world communicator or any split sub-communicator
whose membership is registered with the engine — has reached the
collective. All algorithm arithmetic runs in *group-rank* space (the
member's rank within the communicator); world ranks appear only at the
network-model and tracer boundary, translated through the group's
rank→world vector. Each fast path runs one collective per call: a
steady-state kernel carries no collective (closed-form or declined; the
program's loop is the only interpreter), so a reduction after a kernel
loop is an ordinary collective call.

**Byte-identical trace** means the fast path emits exactly the per-message
records the cascade would have: the same (source, destination, nbytes,
kind) tuples in the same per-(src, dst) multiplicity, so every
:class:`~repro.simmpi.tracing.TraceRecorder` matrix (bytes, counts,
per-kind) is equal element for element. **Bit-identical clocks** means the
per-rank virtual times after the collective are equal as IEEE doubles —
the recurrences below replay the cascade's ``max(local, sender + transfer)``
chains level by level with the same operation order, and
:meth:`~repro.simmpi.network.NetworkModel.transfer_times` matches the
scalar :meth:`~repro.simmpi.network.NetworkModel.transfer_time` bit for
bit. Results are also identical, including the per-rank operator
application order of the reductions and buffered-send copy semantics.

The engine dispatches here only when no per-message observer is active (no
payload message log, no receive-count tracking, no failure injection) —
any of those forces the generator cascade so the observer sees every
individual message; see :mod:`repro.simmpi.engine` ("Fast-path
collectives") for the eligibility rules.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.simmpi.request import (
    capture_payload,
    is_immutable_payload,
    payload_nbytes,
)


def sum_op(a, b):
    """Commutative elementwise sum (NumPy arrays or scalars)."""
    return a + b


def max_op(a, b):
    """Commutative elementwise maximum (NumPy arrays or scalars)."""
    return np.maximum(a, b)


def min_op(a, b):
    """Commutative elementwise minimum (NumPy arrays or scalars)."""
    return np.minimum(a, b)


def prod_op(a, b):
    """Commutative elementwise product (NumPy arrays or scalars)."""
    return a * b


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# broadcast / barrier
# ---------------------------------------------------------------------------


def bcast(comm, obj: Any, root: int = 0, *, kind: str = "bcast"):
    """Binomial-tree broadcast; returns the broadcast object on every rank."""
    comm._check_root(root)
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size

    data = obj
    mask = 1
    while mask < size:
        if vrank & mask:
            src = (vrank - mask + root) % size
            data = yield from comm.recv(source=src, tag=tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            dst = (vrank + mask + root) % size
            yield from comm.send(data, dest=dst, tag=tag, kind=kind)
        mask >>= 1
    return data


def barrier(comm, *, kind: str = "barrier"):
    """Dissemination barrier (log2(size) rounds of 0-byte messages)."""
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    step = 1
    while step < size:
        dst = (rank + step) % size
        src = (rank - step) % size
        yield from comm.isend(None, dest=dst, tag=tag, kind=kind)
        yield from comm.recv(source=src, tag=tag)
        step <<= 1


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def reduce(comm, value: Any, op: Callable = sum_op, root: int = 0, *, kind: str = "reduce"):
    """Binomial-tree reduction to ``root``; ``op`` must be commutative.

    Returns the reduced value on the root and ``None`` elsewhere.
    """
    comm._check_root(root)
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size

    result = value
    mask = 1
    while mask < size:
        if vrank & mask:
            dst = (vrank - mask + root) % size
            yield from comm.send(result, dest=dst, tag=tag, kind=kind)
            return None
        partner = vrank + mask
        if partner < size:
            src = (partner + root) % size
            partial = yield from comm.recv(source=src, tag=tag)
            result = op(result, partial)
        mask <<= 1
    return result


def allreduce(comm, value: Any, op: Callable = sum_op, *, kind: str = "allreduce"):
    """All-reduce: recursive doubling when size is a power of two, otherwise
    binomial reduce followed by binomial broadcast (MPICH2's fallback)."""
    size = comm.size
    if size == 1:
        return value
    if _is_pow2(size):
        tag = comm._next_coll_tag()
        rank = comm.rank
        result = value
        mask = 1
        while mask < size:
            partner = rank ^ mask
            yield from comm.isend(result, dest=partner, tag=tag, kind=kind)
            other = yield from comm.recv(source=partner, tag=tag)
            result = op(result, other)
            mask <<= 1
        return result
    partial = yield from reduce(comm, value, op, root=0, kind=kind)
    return (yield from bcast(comm, partial, root=0, kind=kind))


# ---------------------------------------------------------------------------
# gathers / scatters
# ---------------------------------------------------------------------------


def gather(comm, value: Any, root: int = 0, *, kind: str = "gather"):
    """Linear gather; returns the rank-ordered list on root, None elsewhere."""
    comm._check_root(root)
    tag = comm._next_coll_tag()
    if comm.rank == root:
        out: list[Any] = [None] * comm.size
        out[root] = value
        for src in range(comm.size):
            if src != root:
                out[src] = yield from comm.recv(source=src, tag=tag)
        return out
    yield from comm.send(value, dest=root, tag=tag, kind=kind)
    return None


def scatter(comm, values: list | None, root: int = 0, *, kind: str = "scatter"):
    """Linear scatter of ``values`` (length ``size``) from root."""
    comm._check_root(root)
    tag = comm._next_coll_tag()
    if comm.rank == root:
        if values is None or len(values) != comm.size:
            raise ValueError(
                f"scatter root needs a list of {comm.size} values, got "
                f"{None if values is None else len(values)}"
            )
        for dst in range(comm.size):
            if dst != root:
                yield from comm.send(values[dst], dest=dst, tag=tag, kind=kind)
        return values[root]
    return (yield from comm.recv(source=root, tag=tag))


def allgather(comm, value: Any, *, kind: str = "allgather"):
    """All-gather; returns the rank-ordered list of contributions.

    Power-of-two sizes use MPICH2's recursive doubling (partners at XOR
    distances 1, 2, 4, …); other sizes use Bruck's algorithm (partners at
    ± power-of-two ring distances). Both place traffic on power-of-two
    diagonals of the communication matrix — the pattern the paper calls out
    in Fig. 5b.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return [value]
    tag = comm._next_coll_tag()
    blocks: list[Any] = [None] * size
    blocks[rank] = value

    if _is_pow2(size):
        mask = 1
        while mask < size:
            partner = rank ^ mask
            base = rank & ~(mask - 1)  # start of my contiguous block run
            send_chunk = {i: blocks[i] for i in range(base, base + mask)}
            yield from comm.isend(send_chunk, dest=partner, tag=tag, kind=kind)
            recv_chunk = yield from comm.recv(source=partner, tag=tag)
            for i, blk in recv_chunk.items():
                blocks[i] = blk
            mask <<= 1
        return blocks

    # Bruck: after round k I hold blocks rank..rank+2^k-1 (mod size).
    have = 1
    pofk = 1
    while have < size:
        count = min(pofk, size - have)
        dst = (rank - pofk) % size
        src = (rank + pofk) % size
        send_chunk = {
            (rank + i) % size: blocks[(rank + i) % size] for i in range(count)
        }
        yield from comm.isend(send_chunk, dest=dst, tag=tag, kind=kind)
        recv_chunk = yield from comm.recv(source=src, tag=tag)
        for i, blk in recv_chunk.items():
            blocks[i] = blk
        have += count
        pofk <<= 1
    return blocks


def alltoall(comm, values: list, *, kind: str = "alltoall"):
    """Pairwise-exchange all-to-all; ``values[i]`` goes to local rank ``i``."""
    size, rank = comm.size, comm.rank
    if len(values) != size:
        raise ValueError(f"alltoall needs {size} values, got {len(values)}")
    tag = comm._next_coll_tag()
    out: list[Any] = [None] * size
    out[rank] = values[rank]
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        yield from comm.isend(values[dst], dest=dst, tag=tag, kind=kind)
        out[src] = yield from comm.recv(source=src, tag=tag)
    return out


def scan(comm, value: Any, op: Callable = sum_op, *, kind: str = "scan"):
    """Inclusive prefix reduction along rank order (linear chain)."""
    tag = comm._next_coll_tag()
    rank, size = comm.rank, comm.size
    acc = value
    if rank > 0:
        upstream = yield from comm.recv(source=rank - 1, tag=tag)
        acc = op(upstream, value)
    if rank < size - 1:
        yield from comm.send(acc, dest=rank + 1, tag=tag, kind=kind)
    return acc


# ===========================================================================
# Fast paths: vectorized emulations of the cascades above (any communicator)
# ===========================================================================
#
# Each function takes the per-member inputs the engine gathered — ``values``
# (indexed by *group rank*, i.e. the member's rank within the communicator),
# ``op_fns`` (each member's reduction callable), ``root`` (group-local), the
# per-member ``clocks`` at collective entry — plus ``group`` (the
# communicator's members as a vector of *world* ranks, in group-rank order),
# the network model and optional tracer, and returns ``(results,
# new_clocks)`` in group-rank order. All algorithm arithmetic (partners,
# trees, rings) happens in group-rank space exactly like the generator
# cascades; ``group[...]`` translates to world ranks only at the network /
# tracer boundary, so a split communicator prices its messages over its own
# slice of the placement. For the world communicator ``group`` is the
# identity permutation. The timing recurrences mirror the engine's
# virtual-time rules exactly: buffered sends are free, a receive completes
# at ``max(local clock, sender clock at post + transfer time)``, and every
# algorithm's send happens at the sender's clock *entering* that round.


def _trace(tracer, srcs, dsts, nbytes, kind) -> None:
    if tracer is not None:
        tracer.record_many(srcs, dsts, nbytes, kind)


def _fast_bcast(values, op_fns, root, kind, clocks, group, network, tracer):
    n = clocks.size
    data = values[root]
    if n == 1:
        return [data], clocks.copy()
    nb = payload_nbytes(data)
    perm = (np.arange(n) + root) % n  # group rank of each virtual rank
    ready = clocks[perm].copy()
    # Binomial tree: vrank v receives from v with its lowest set bit
    # cleared; levels are processed by descending lowest-set-bit so every
    # parent's ready time is final before its children read it.
    mask = 1 << ((n - 1).bit_length() - 1)
    while mask:
        children = np.arange(mask, n, 2 * mask)
        parents = children - mask
        ws, wd = group[perm[parents]], group[perm[children]]
        t = network.transfer_times(ws, wd, nb)
        ready[children] = np.maximum(ready[children], ready[parents] + t)
        _trace(tracer, ws, wd, float(nb), kind)
        mask >>= 1
    shared = is_immutable_payload(data)
    results = [
        data if (g == root or shared) else capture_payload(data)
        for g in range(n)
    ]
    new_clocks = np.empty(n, dtype=np.float64)
    new_clocks[perm] = ready
    return results, new_clocks


def _fast_reduce(values, op_fns, root, kind, clocks, group, network, tracer):
    n = clocks.size
    if n == 1:
        return [values[0]], clocks.copy()
    perm = (np.arange(n) + root) % n
    c = clocks[perm].copy()
    vals: list[Any] = [values[int(perm[v])] for v in range(n)]
    mask = 1
    while mask < n:
        senders = np.arange(mask, n, 2 * mask)  # vranks whose lsb == mask
        if senders.size:
            receivers = senders - mask
            nb = np.fromiter(
                (payload_nbytes(vals[s]) for s in senders),
                dtype=np.float64,
                count=senders.size,
            )
            ws, wd = group[perm[senders]], group[perm[receivers]]
            t = network.transfer_times(ws, wd, nb)
            c[receivers] = np.maximum(c[receivers], c[senders] + t)
            for s, r in zip(senders.tolist(), receivers.tolist()):
                vals[r] = op_fns[perm[r]](vals[r], capture_payload(vals[s]))
            _trace(tracer, ws, wd, nb, kind)
        mask <<= 1
    results: list[Any] = [None] * n
    results[root] = vals[0]
    new_clocks = np.empty(n, dtype=np.float64)
    new_clocks[perm] = c
    return results, new_clocks


def _fast_allreduce(values, op_fns, root, kind, clocks, group, network, tracer):
    n = clocks.size
    if n == 1:
        return [values[0]], clocks.copy()
    if not _is_pow2(n):
        # MPICH2's fallback: binomial reduce to 0, then binomial bcast.
        partials, c = _fast_reduce(
            values, op_fns, 0, kind, clocks, group, network, tracer
        )
        bvals: list[Any] = [None] * n
        bvals[0] = partials[0]
        return _fast_bcast(bvals, op_fns, 0, kind, c, group, network, tracer)
    idx = np.arange(n)
    c = clocks.copy()
    vals = list(values)
    mask = 1
    while mask < n:
        partner = idx ^ mask
        nb = np.fromiter(
            (payload_nbytes(v) for v in vals), dtype=np.float64, count=n
        )
        t = network.transfer_times(group[partner], group, nb[partner])
        c = np.maximum(c, c[partner] + t)
        _trace(tracer, group, group[partner], nb, kind)
        vals = [
            op_fns[r](vals[r], capture_payload(vals[r ^ mask])) for r in range(n)
        ]
        mask <<= 1
    return vals, c


def _allgather_results(values) -> list[list[Any]]:
    """Per-rank rank-ordered block lists with buffered-send copy semantics."""
    n = len(values)
    immut = [is_immutable_payload(v) for v in values]
    if all(immut):
        template = list(values)
        return [template.copy() for _ in range(n)]
    return [
        [
            values[i] if (i == r or immut[i]) else capture_payload(values[i])
            for i in range(n)
        ]
        for r in range(n)
    ]


def _fast_allgather(values, op_fns, root, kind, clocks, group, network, tracer):
    n = clocks.size
    if n == 1:
        return [[values[0]]], clocks.copy()
    b = np.fromiter(
        (payload_nbytes(v) for v in values), dtype=np.float64, count=n
    )
    idx = np.arange(n)
    c = clocks.copy()
    if _is_pow2(n):
        # Recursive doubling: partner r^mask, each side sends its
        # contiguous block run [base, base + mask).
        prefix = np.concatenate([[0.0], np.cumsum(b)])
        mask = 1
        while mask < n:
            partner = idx ^ mask
            base = idx & ~(mask - 1)
            chunk = prefix[base + mask] - prefix[base]
            t = network.transfer_times(group[partner], group, chunk[partner])
            c = np.maximum(c, c[partner] + t)
            _trace(tracer, group, group[partner], chunk, kind)
            mask <<= 1
    else:
        # Bruck: after round k rank r holds blocks r … r+2^k-1 (mod n) and
        # ships the first `count` of them pofk ranks down the ring.
        prefix2 = np.concatenate([[0.0], np.cumsum(np.concatenate([b, b]))])
        have = 1
        pofk = 1
        while have < n:
            count = min(pofk, n - have)
            window = prefix2[idx + count] - prefix2[idx]
            src = (idx + pofk) % n
            dst = (idx - pofk) % n
            t = network.transfer_times(group[src], group, window[src])
            c = np.maximum(c, c[src] + t)
            _trace(tracer, group, group[dst], window, kind)
            have += count
            pofk <<= 1
    return _allgather_results(values), c


def _fast_alltoall(values, op_fns, root, kind, clocks, group, network, tracer):
    n = clocks.size
    if n == 1:
        return [[values[0][0]]], clocks.copy()
    nbytes = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        row = values[s]
        for d in range(n):
            nbytes[s, d] = payload_nbytes(row[d])
    idx = np.arange(n)
    c = clocks.copy()
    for step in range(1, n):
        src = (idx - step) % n
        dst = (idx + step) % n
        t = network.transfer_times(group[src], group, nbytes[src, idx])
        c = np.maximum(c, c[src] + t)
        _trace(tracer, group, group[dst], nbytes[idx, dst], kind)
    results = [
        [
            values[s][r] if s == r else capture_payload(values[s][r])
            for s in range(n)
        ]
        for r in range(n)
    ]
    return results, c


def _fast_barrier(values, op_fns, root, kind, clocks, group, network, tracer):
    n = clocks.size
    c = clocks.copy()
    if n == 1:
        return [None], c
    idx = np.arange(n)
    zeros = np.zeros(n, dtype=np.float64)
    step = 1
    while step < n:
        src = (idx - step) % n
        dst = (idx + step) % n
        t = network.transfer_times(group[src], group, zeros)
        c = np.maximum(c, c[src] + t)
        _trace(tracer, group, group[dst], zeros, kind)
        step <<= 1
    return [None] * n, c


#: Collectives with a vectorized fast path (any communicator whose group is
#: registered with the engine). Linear gather/scatter and scan keep the
#: generator cascade only — they are cheap and rare in the workloads this
#: engine runs.
FAST_COLLECTIVES: dict[str, Callable] = {
    "bcast": _fast_bcast,
    "reduce": _fast_reduce,
    "allreduce": _fast_allreduce,
    "allgather": _fast_allgather,
    "alltoall": _fast_alltoall,
    "barrier": _fast_barrier,
}


def execute_fast_collective(
    kind: str,
    *,
    values: list,
    op_fns: list,
    root: int,
    trace_kind: str,
    clocks: np.ndarray,
    group: np.ndarray,
    network,
    tracer,
):
    """Run one gathered collective; returns ``(results, new_clocks)``.

    ``values``/``op_fns``/``clocks`` are indexed by group rank, ``root`` is
    group-local, and ``group`` maps group rank → world rank (the identity
    for the world communicator).
    """
    return FAST_COLLECTIVES[kind](
        values, op_fns, root, trace_kind, clocks, group, network, tracer
    )

