"""Fixtures shared by the engine-equivalence suites.

A clock-sensitive network, the ring recipe and its two programs, the hand-written
halo exchange every driver of the app recipe is checked against, and one
run-and-compare helper: :func:`assert_matches_reference` runs a program on
:class:`~repro.simmpi.ReferenceEngine` and on the production
:class:`~repro.simmpi.Engine` and asserts equal results, ``==`` clocks
and byte-identical bytes / count / per-kind matrices.
"""

import numpy as np

from repro.apps.stencil import HALO_TAG_BASE
from repro.simmpi import (
    Engine,
    LinkParameters,
    NetworkModel,
    Post,
    ReferenceEngine,
    TraceRecorder,
)

RING_TAG = 7
RING_BYTES = 1 << 14


def _four_per_node(rank: int) -> int:
    return rank // 4


def two_level_network() -> NetworkModel:
    """Four ranks per node, distinct intra/inter links — clock-sensitive.

    The locator is a module-level function, so the model pickles into the
    sharded engine's worker processes.
    """
    return NetworkModel(
        intra_node=LinkParameters(1e-7, 2e9),
        inter_node=LinkParameters(7e-6, 1e8),
        locator=_four_per_node,
    )


def ring_recipe(comm, members=None):
    """Ring exchange recipe: send right, receive from the left — over the
    whole communicator, or over the ring of ``members`` (ranks of it)."""
    if members is None:
        members = range(comm.size)
    at = members.index(comm.rank)
    right = members[(at + 1) % len(members)]
    left = members[(at - 1) % len(members)]
    return (
        Post(True, right, RING_TAG, RING_BYTES, "ring"),
        Post(False, left, RING_TAG),
    )


def kernel_ring_program(iterations):
    """The ring loop offered to the engine through ``Communicator.repeat``."""

    def program(ctx):
        yield from ctx.comm.repeat(ring_recipe(ctx.comm), iterations)
        return ctx.rank

    return program


def interpreted_ring_program(iterations):
    """The same ring loop written out over the recipe's wave ops."""

    def program(ctx):
        start, drain = ctx.comm.wave(ring_recipe(ctx.comm))
        for _ in range(iterations):
            yield start
            yield drain
        return ctx.rank

    return program


def hand_halo_exchange(comm, grid, fields=None, *, nfields=1, kind="halo"):
    """One halo exchange written out by hand: the independent oracle.

    Per existing neighbor in N, E, S, W order an ``isend`` of the packed
    edge (``None`` plus a byte count when ``fields`` is ``None``) and an
    ``irecv`` of the ghost, then one ``wait`` per receive in posting order,
    unpacking real payloads into the ghost layers. It shares nothing with
    :class:`repro.apps.stencil.HaloExchange` but the grid and the tags.
    """
    north, east, south, west = grid.neighbors_of(comm.rank)
    tx, ty = grid.tile_nx, grid.tile_ny
    inner = slice(1, -1)
    # (neighbor, send tag, receive tag, edge slice, ghost slice, edge cells)
    sides = (
        (north, 0, 2, (slice(1, 2), inner), (slice(0, 1), inner), tx),
        (east, 1, 3, (inner, slice(-2, -1)), (inner, slice(-1, None)), ty),
        (south, 2, 0, (slice(-2, -1), inner), (slice(-1, None), inner), tx),
        (west, 3, 1, (inner, slice(1, 2)), (inner, slice(0, 1)), ty),
    )
    recvs = []
    for neighbor, send_tag, recv_tag, edge, ghost, cells in sides:
        if neighbor is None:
            continue
        if fields is None:
            payload, nbytes = None, nfields * cells * 8
        else:
            payload = np.concatenate([f[edge].ravel() for f in fields])
            nbytes = payload.nbytes
        yield from comm.isend(
            payload, dest=neighbor, tag=HALO_TAG_BASE + send_tag,
            nbytes=nbytes, kind=kind,
        )
        req = yield from comm.irecv(source=neighbor, tag=HALO_TAG_BASE + recv_tag)
        recvs.append((req, ghost))
    for req, ghost in recvs:
        payload = yield from comm.wait(req)
        if fields is not None:
            n = fields[0][ghost].size
            for i, f in enumerate(fields):
                f[ghost] = payload[i * n : (i + 1) * n].reshape(f[ghost].shape)


def run_engine(program, size, *, engine_cls=Engine, config=None):
    """Run ``program`` on a fresh ``engine_cls`` over the two-level network
    with a by-kind tracer; return the run's record."""
    tracer = TraceRecorder(size, by_kind=True)
    engine = engine_cls(
        size, network=two_level_network(), tracer=tracer, config=config
    )
    results = engine.run(program)
    return {
        "results": results,
        "clocks": engine.rank_times(),
        "tracer": tracer,
        "engine": engine,
    }


def _structurally_equal(a, b) -> bool:
    """``==`` that also compares NumPy arrays and requires equal types."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and bool((a == b).all())
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _structurally_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_structurally_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def assert_runs_equal(ref, other, what):
    """Two run records are indistinguishable: equal results, ``==``
    clocks, byte-identical bytes / count / per-kind matrices."""
    assert _structurally_equal(ref["results"], other["results"]), (
        f"{what}: results diverge"
    )
    assert ref["clocks"] == other["clocks"], f"{what}: clocks diverge"
    a, b = ref["tracer"], other["tracer"]
    np.testing.assert_array_equal(a.bytes_matrix, b.bytes_matrix)
    np.testing.assert_array_equal(a.count_matrix, b.count_matrix)
    a_kinds, b_kinds = a.kind_matrices, b.kind_matrices
    assert sorted(a_kinds) == sorted(b_kinds)
    for kind, mat in a_kinds.items():
        np.testing.assert_array_equal(mat, b_kinds[kind])
    assert (a.total_messages, a.total_bytes) == (b.total_messages, b.total_bytes)


def assert_matches_reference(program, size, *, config=None):
    """Run ``program`` on ``ReferenceEngine`` and on ``Engine`` (both with
    ``config``) and assert the runs indistinguishable; the reference must
    take no fast path. Returns ``(reference, engine)`` records."""
    ref = run_engine(program, size, engine_cls=ReferenceEngine, config=config)
    got = run_engine(program, size, config=config)
    assert_runs_equal(ref, got, "Engine vs ReferenceEngine")
    assert ref["engine"].fast_collectives_run == ref["engine"].kernel_runs == 0
    return ref, got


def assert_collectives_match(program, size):
    """:func:`assert_matches_reference` for a collective program whose
    production run must actually take the fast collective path."""
    ref, fast = assert_matches_reference(program, size)
    assert fast["engine"].fast_collectives_run > 0, "fast path never engaged"
    return ref, fast
