"""Fixtures shared by the engine-equivalence suites.

A clock-sensitive network, the persistent ring programs, and one
run-and-compare helper: :func:`assert_matches_reference` runs a program on
:class:`~repro.simmpi.ReferenceEngine` and on the production
:class:`~repro.simmpi.Engine` and asserts equal results, ``==`` clocks
and byte-identical bytes / count / per-kind matrices.
"""

import numpy as np

from repro.simmpi import (
    Engine,
    KernelLoop,
    LinkParameters,
    NetworkModel,
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


def ring_ops(comm, members=None):
    """Persistent ring wave: send right, receive from the left — over the
    whole communicator, or over the ring of ``members`` (ranks of it)."""
    if members is None:
        members = range(comm.size)
    at = members.index(comm.rank)
    right = members[(at + 1) % len(members)]
    left = members[(at - 1) % len(members)]
    send = comm.send_init(
        None, dest=right, tag=RING_TAG, nbytes=RING_BYTES, kind="ring"
    )
    recv = comm.recv_init(source=left, tag=RING_TAG)
    start = comm.start_all_op((send, recv))
    drain = comm.waitall_op((recv,))
    return start, drain


def kernel_ring_program(iterations):
    def program(ctx):
        start, drain = ring_ops(ctx.comm)
        results = yield KernelLoop(start, drain, iterations)
        return results

    return program


def interpreted_ring_program(iterations):
    def program(ctx):
        start, drain = ring_ops(ctx.comm)
        results = None
        for _ in range(iterations):
            yield start
            results = yield drain
        return results

    return program


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
