"""Trace-recorder tests: accumulation, views, persistence, properties."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import TraceRecorder, tracing


class TestRecord:
    def test_orientation_receiver_rows(self):
        """Matrix is [receiver, sender], matching Fig. 5's axes."""
        t = TraceRecorder(4)
        t.record(src=1, dst=2, nbytes=100)
        assert t.bytes_matrix[2, 1] == 100
        assert t.bytes_matrix[1, 2] == 0

    def test_accumulation(self):
        t = TraceRecorder(2)
        t.record(0, 1, 10)
        t.record(0, 1, 5)
        assert t.bytes_matrix[1, 0] == 15
        assert t.count_matrix[1, 0] == 2
        assert t.total_messages == 2
        assert t.total_bytes == 15

    def test_symmetric_view(self):
        t = TraceRecorder(3)
        t.record(0, 1, 10)
        t.record(1, 0, 4)
        sym = t.symmetric_bytes()
        assert sym[0, 1] == sym[1, 0] == 14

    def test_zoom(self):
        t = TraceRecorder(8)
        t.record(0, 1, 7)
        t.record(6, 7, 9)
        z = t.zoom(4)
        assert z.shape == (4, 4)
        assert z[1, 0] == 7

    def test_zoom_bounds(self):
        t = TraceRecorder(4)
        with pytest.raises(ValueError):
            t.zoom(5)
        with pytest.raises(ValueError):
            t.zoom(0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            TraceRecorder(0)

    def test_kind_matrices(self):
        t = TraceRecorder(2, by_kind=True)
        t.record(0, 1, 10, kind="p2p")
        t.record(0, 1, 20, kind="allgather")
        assert t.kind_bytes("p2p")[1, 0] == 10
        assert t.kind_bytes("allgather")[1, 0] == 20
        assert t.kind_bytes("missing").sum() == 0

    def test_kind_requires_flag(self):
        t = TraceRecorder(2)
        with pytest.raises(RuntimeError):
            t.kind_bytes("p2p")


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        t = TraceRecorder(4, by_kind=True)
        t.record(0, 1, 100, kind="p2p")
        t.record(2, 3, 50, kind="bcast")
        path = tmp_path / "trace.npz"
        t.save(path)
        loaded = TraceRecorder.load(path)
        np.testing.assert_array_equal(loaded.bytes_matrix, t.bytes_matrix)
        np.testing.assert_array_equal(loaded.count_matrix, t.count_matrix)
        np.testing.assert_array_equal(
            loaded.kind_bytes("bcast"), t.kind_bytes("bcast")
        )
        assert loaded.total_messages == 2
        assert loaded.total_bytes == 150

    def test_roundtrip_after_mixed_recording(self, tmp_path):
        t = TraceRecorder(6, by_kind=True)
        t.record(0, 1, 100, kind="p2p")
        t.record_many([1, 2, 2], [0, 3, 3], [8, 9, 9], kind="halo", repeats=2)
        t.record_many([], [], [], kind="barrier")
        other = TraceRecorder(6)
        other.record(5, 4, 11)  # kind-less traffic
        t.merge(other)
        t.save(tmp_path / "trace.npz")
        loaded = TraceRecorder.load(tmp_path / "trace.npz")
        np.testing.assert_array_equal(loaded.bytes_matrix, t.bytes_matrix)
        np.testing.assert_array_equal(loaded.count_matrix, t.count_matrix)
        assert sorted(loaded.kind_matrices) == ["barrier", "halo", "p2p"]
        for kind in t.kind_matrices:
            np.testing.assert_array_equal(loaded.kind_bytes(kind), t.kind_bytes(kind))
        assert loaded.total_messages == t.total_messages == 8
        assert loaded.total_bytes == t.total_bytes


class TestMerge:
    def test_dense_merge_sums_everything(self):
        a = TraceRecorder(3, by_kind=True)
        b = TraceRecorder(3, by_kind=True)
        a.record(0, 1, 10, kind="p2p")
        b.record(0, 1, 5, kind="p2p")
        b.record(2, 0, 7, kind="bcast")
        a.merge(b)
        assert a.bytes_matrix[1, 0] == 15
        assert a.count_matrix[1, 0] == 2
        assert a.kind_bytes("p2p")[1, 0] == 15
        assert a.kind_bytes("bcast")[0, 2] == 7
        assert a.total_messages == 3
        assert a.total_bytes == 22

    def test_merge_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            TraceRecorder(3).merge(TraceRecorder(4))

class TestSparseRecorder:
    """The recorder keeps only populated cells; dense views exist on read."""

    def test_records_without_dense_allocation(self):
        tracemalloc.start()
        try:
            t = TraceRecorder(1_000_000, by_kind=True)  # dense would be 8 TB
            t.record(0, 999_999, 64)
            t.record_many([0, 5], [999_999, 7], 64, kind="bcast", repeats=3)
            other = TraceRecorder(1_000_000, by_kind=True)
            other.record(999_999, 0, 1, kind="halo")
            t.merge(other)
            keys, nb, counts = t._entries()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert t.total_messages == 8
        assert t.total_bytes == 64 + 6 * 64 + 1
        assert keys.size == 4 and counts.sum() == 8 and nb.sum() == t.total_bytes
        assert sorted(t.kind_matrices) == ["bcast", "halo", "p2p"]

    def test_to_dense_matches_dense_recording(self):
        """Every dense view equals an ``np.add.at`` reference."""
        events = [(0, 1, 10, "p2p"), (2, 3, 5, "bcast"), (0, 1, 3, "p2p")]
        t = TraceRecorder(4, by_kind=True)
        ref = np.zeros((4, 4))
        for src, dst, n, kind in events:
            t.record(src, dst, n, kind=kind)
            np.add.at(ref, (dst, src), n)
        np.testing.assert_array_equal(t.bytes_matrix, ref)
        assert t.bytes_matrix.dtype == np.float64
        assert t.count_matrix.dtype == np.int64
        assert t.count_matrix[1, 0] == 2
        assert t.kind_bytes("p2p")[1, 0] == 13
        assert t.kind_bytes("bcast")[3, 2] == 5

    def test_sparse_merge_sparse(self):
        a = TraceRecorder(8)
        b = TraceRecorder(8)
        a.record(0, 1, 10)
        b.record(0, 1, 1)
        b.record(5, 6, 2)
        a.merge(b)
        assert a.total_bytes == 13
        assert a.total_messages == 3
        assert a.bytes_matrix[1, 0] == 11
        assert a.count_matrix[6, 5] == 1

    def test_record_many(self):
        bulk = TraceRecorder(4)
        scalar = TraceRecorder(4)
        srcs = np.array([0, 1, 1])
        dsts = np.array([2, 3, 3])
        nbytes = np.array([4.0, 8.0, 8.0])
        bulk.record_many(srcs, dsts, nbytes)
        for src, dst, n in zip(srcs, dsts, nbytes):
            scalar.record(int(src), int(dst), int(n))
        np.testing.assert_array_equal(bulk.bytes_matrix, scalar.bytes_matrix)
        np.testing.assert_array_equal(bulk.count_matrix, scalar.count_matrix)

    def test_recording_after_a_read_keeps_accumulating(self):
        t = TraceRecorder(3, by_kind=True)
        t.record(0, 1, 5)
        assert t.bytes_matrix[1, 0] == 5
        t.record_many([0], [1], [7])
        assert t.bytes_matrix[1, 0] == 12
        assert t.kind_bytes("p2p")[1, 0] == 12

    def test_zero_byte_kinds_are_listed(self):
        t = TraceRecorder(3, by_kind=True)
        t.record_many([], [], [], kind="barrier")
        t.record(0, 1, 0, kind="sync")
        assert "barrier" in t.kind_matrices and "sync" in t.kind_matrices
        assert "p2p" not in t.kind_matrices
        assert t.kind_matrices["barrier"].sum() == 0
        with pytest.raises(KeyError):
            t.kind_matrices["p2p"]

    def test_compaction_bounds_pending_entries(self):
        """Many scalar records of a few cells hold O(cells + one chunk)."""
        t = TraceRecorder(1_000, by_kind=True)
        cells = [(0, 1), (2, 3), (4, 5)]
        for i in range(5 * tracing._CHUNK):
            src, dst = cells[i % 3]
            t.record(src, dst, 2, kind="p2p" if i % 2 else "halo")
            assert t._pending <= tracing._CHUNK
            assert len(t._buf_keys) < tracing._CHUNK
        assert t._keys.size <= 6
        assert t.total_messages == 5 * tracing._CHUNK
        assert t.count_matrix.sum() == t.total_messages
        assert t.bytes_matrix[1, 0] == 2 * t.count_matrix[1, 0]

    def test_kindless_traffic_merges_into_by_kind_recorder(self):
        a = TraceRecorder(3, by_kind=True)
        b = TraceRecorder(3)
        a.record(0, 1, 4, kind="halo")
        b.record(0, 1, 6)
        a.merge(b)
        assert a.bytes_matrix[1, 0] == 10
        assert a.kind_bytes("halo")[1, 0] == 4
        assert list(a.kind_matrices) == ["halo"]


_NRANKS = 5
_KINDS = ("p2p", "bcast", "barrier")
_rank = st.integers(0, _NRANKS - 1)
_kind = st.sampled_from(_KINDS)
_record = st.tuples(st.just("record"), _rank, _rank, st.integers(0, 1000), _kind)
_many = st.integers(0, 6).flatmap(
    lambda size: st.tuples(
        st.just("many"),
        st.lists(_rank, min_size=size, max_size=size),
        st.lists(_rank, min_size=size, max_size=size),
        st.one_of(
            st.integers(0, 1000),
            st.lists(st.integers(0, 1000), min_size=size, max_size=size),
        ),
        _kind,
        st.integers(1, 4),
    )
)
_op = st.one_of(
    _record,
    _many,
    st.tuples(st.just("merge"), st.lists(st.one_of(_record, _many), max_size=5)),
    st.tuples(st.just("read")),
)


class _DenseReference:
    """The old dense recorder, as ``np.add.at`` over full matrices."""

    def __init__(self):
        self.bytes = np.zeros((_NRANKS, _NRANKS))
        self.counts = np.zeros((_NRANKS, _NRANKS), dtype=np.int64)
        self.kinds: dict[str, np.ndarray] = {}
        self.messages = 0

    def apply(self, tracer, op):
        if op[0] == "record":
            _, src, dst, n, kind = op
            tracer.record(src, dst, n, kind=kind)
            srcs, dsts, nb, repeats = [src], [dst], np.array([n], float), 1
        else:
            _, srcs, dsts, nbytes, kind, repeats = op
            tracer.record_many(srcs, dsts, nbytes, kind, repeats=repeats)
            nb = np.broadcast_to(np.asarray(nbytes, float), (len(srcs),)) * repeats
        self.kinds.setdefault(kind, np.zeros((_NRANKS, _NRANKS)))
        np.add.at(self.bytes, (dsts, srcs), nb)
        np.add.at(self.kinds[kind], (dsts, srcs), nb)
        np.add.at(self.counts, (dsts, srcs), repeats)
        self.messages += len(srcs) * repeats

    def check(self, tracer):
        np.testing.assert_array_equal(tracer.bytes_matrix, self.bytes)
        np.testing.assert_array_equal(tracer.count_matrix, self.counts)
        assert tracer.total_messages == self.messages
        assert tracer.total_bytes == self.bytes.sum()
        if tracer.by_kind:
            assert sorted(tracer.kind_matrices) == sorted(self.kinds)
            for kind, mat in self.kinds.items():
                np.testing.assert_array_equal(tracer.kind_bytes(kind), mat)
        else:
            assert len(tracer.kind_matrices) == 0


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.integers(0, 10_000),
            ),
            max_size=50,
        )
    )
    def test_totals_are_conserved(self, events):
        """Sum of the matrix always equals the sum of recorded sizes."""
        t = TraceRecorder(8)
        for src, dst, n in events:
            t.record(src, dst, n)
        assert t.bytes_matrix.sum() == sum(n for _, _, n in events)
        assert t.count_matrix.sum() == len(events)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 100)),
            max_size=30,
        )
    )
    def test_symmetric_bytes_is_symmetric(self, events):
        t = TraceRecorder(6)
        for src, dst, n in events:
            t.record(src, dst, n)
        sym = t.symmetric_bytes()
        np.testing.assert_array_equal(sym, sym.T)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_op, max_size=25),
        st.booleans(),
        st.sampled_from([1, 3, 1 << 14]),
    )
    def test_matches_dense_reference(self, ops, by_kind, chunk):
        """Any interleaving of records, merges and reads equals a dense
        ``np.add.at`` reference, for every chunk/compaction size."""
        ref = _DenseReference()
        with mock.patch.object(tracing, "_CHUNK", chunk):
            t = TraceRecorder(_NRANKS, by_kind=by_kind)
            for op in ops:
                if op[0] == "read":
                    ref.check(t)
                elif op[0] == "merge":
                    other = TraceRecorder(_NRANKS, by_kind=by_kind)
                    for inner in op[1]:
                        ref.apply(other, inner)
                    t.merge(other)
                else:
                    ref.apply(t, op)
            ref.check(t)
