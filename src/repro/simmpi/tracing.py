"""Communication tracing for the simulated MPI runtime.

The paper's whole evaluation pipeline starts from "the communication graph
obtained by executing a tsunami simulation" (§III). The tracer records
per-(dst, src) bytes and message counts — receiver rows, sender columns,
exactly like Fig. 5a/5b — plus optional per-kind bytes so the benchmark for
Fig. 5b can separate stencil traffic from the MPICH2-style ``Allgather``
pattern and from checkpoint-encoder traffic.

Traffic is sparse (the 1088-rank Fig. 5 world fills 1.3 % of its cells), so
nothing dense is kept while recording. Every message is an entry keyed
``kind_id * n**2 + dst * n + src``: :meth:`~TraceRecorder.record_many`
appends whole arrays as one chunk, :meth:`~TraceRecorder.record` appends to
a small buffer that is flushed as one chunk. Pending chunks are reduced
(``np.unique`` + ``np.bincount``) into a sorted set of unique keys whenever
they outgrow it, and on every read, so memory stays O(populated cells + one
chunk) however many messages a run sends. The dense ``n x n`` views are
built on each read.

Per-message and bulk recording are exactly equivalent: byte counts are
integers, so accumulation order cannot perturb the float sums, and every
path produces byte-identical matrices.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from pathlib import Path

import numpy as np

# Scalar records buffered before they become a chunk; also the least number
# of pending entries that triggers a compaction.
_CHUNK = 1 << 14


class TraceRecorder:
    """Accumulates per-(src, dst) communicated bytes and message counts.

    Parameters
    ----------
    nranks:
        World size; fixes the matrix dimensions.
    by_kind:
        If true, keep bytes per message ``kind`` (``"p2p"``, ``"bcast"``,
        ``"allgather"`` …) in addition to the total.
    """

    def __init__(self, nranks: int, *, by_kind: bool = False):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.by_kind = by_kind
        self.total_messages = 0
        self.total_bytes = 0.0
        self._cells = nranks * nranks
        # kind -> id >= 1; id 0 holds traffic recorded without a kind.
        self._kind_ids: dict[str, int] = {}
        # Reduced entries: sorted unique keys with their byte and count sums.
        self._keys = np.empty(0, dtype=np.int64)
        self._bytes = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending = 0
        self._buf_keys: list[int] = []
        self._buf_bytes: list[int] = []

    def _kind_id(self, kind: str) -> int:
        if not self.by_kind:
            return 0
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = self._kind_ids[kind] = len(self._kind_ids) + 1
        return kid

    def record(self, src: int, dst: int, nbytes: int, kind: str = "p2p") -> None:
        """Record one message. Self-messages are recorded too (diagonal)."""
        self._buf_keys.append(
            self._kind_id(kind) * self._cells + dst * self.nranks + src
        )
        self._buf_bytes.append(nbytes)
        self.total_messages += 1
        self.total_bytes += nbytes
        if len(self._buf_keys) >= _CHUNK:
            self._flush()

    def record_many(self, srcs, dsts, nbytes, kind: str = "p2p", *, repeats: int = 1) -> None:
        """Record a whole batch of messages in one vectorized pass.

        ``srcs``/``dsts``/``nbytes`` are parallel arrays (``nbytes`` may be
        a scalar); duplicated (src, dst) pairs accumulate exactly as
        repeated :meth:`record` calls would. ``repeats`` records the same
        batch that many times over — the steady-state kernel uses it to
        book K identical iterations in one pass; since per-message byte
        counts are integers well below 2**53, ``nbytes * repeats`` is
        exact and the result is byte-identical to K separate calls.
        """
        keys = np.asarray(dsts, dtype=np.int64) * self.nranks
        keys += np.asarray(srcs, dtype=np.int64)
        keys += self._kind_id(kind) * self._cells
        nb = np.broadcast_to(np.asarray(nbytes, dtype=np.float64) * repeats, keys.shape)
        self._append(keys, nb, np.broadcast_to(np.int64(repeats), keys.shape))
        self.total_messages += int(keys.size) * repeats
        self.total_bytes += float(nb.sum())

    # -- accumulation -----------------------------------------------------

    def _flush(self) -> None:
        keys = np.array(self._buf_keys, dtype=np.int64)
        nb = np.array(self._buf_bytes, dtype=np.float64)
        self._buf_keys, self._buf_bytes = [], []
        self._append(keys, nb, np.broadcast_to(np.int64(1), keys.shape))

    def _append(self, keys, nb, counts) -> None:
        if keys.size:
            self._chunks.append((keys, nb, counts))
            self._pending += keys.size
            if self._pending > max(self._keys.size, _CHUNK):
                self._compact()

    def _compact(self) -> None:
        """Reduce the pending chunks into the sorted unique-key entries."""
        chunks = [(self._keys, self._bytes, self._counts), *self._chunks]
        self._keys, inverse = np.unique(
            np.concatenate([c[0] for c in chunks]), return_inverse=True
        )
        self._bytes = np.bincount(
            inverse, weights=np.concatenate([c[1] for c in chunks])
        )
        self._counts = np.bincount(
            inverse, weights=np.concatenate([c[2] for c in chunks])
        ).astype(np.int64)
        self._chunks, self._pending = [], 0

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All traffic as reduced ``(keys, bytes, counts)``; cached until
        the next record."""
        if self._buf_keys:
            self._flush()
        if self._chunks:
            self._compact()
        return self._keys, self._bytes, self._counts

    def __getstate__(self) -> dict:
        self._entries()  # a shard's recorder crosses the pipe reduced
        return self.__dict__

    # -- merging -----------------------------------------------------------

    def merge(self, other: TraceRecorder) -> None:
        """Accumulate another recorder's traffic into this one.

        The sharded engine's trace story: every message is recorded by
        exactly one shard recorder (the sender's, for boundary p2p), so
        summing the per-shard recorders reproduces the single-process
        matrices byte-for-byte — entries are order-independent integer
        byte sums.
        """
        if other.nranks != self.nranks:
            raise ValueError(
                f"cannot merge tracer of {other.nranks} ranks into {self.nranks}"
            )
        keys, nb, counts = other._entries()
        remap = np.zeros(len(other._kind_ids) + 1, dtype=np.int64)
        for kind, kid in other._kind_ids.items():
            remap[kid] = self._kind_id(kind)
        self._append(remap[keys // self._cells] * self._cells + keys % self._cells, nb, counts)
        self.total_messages += other.total_messages
        self.total_bytes += other.total_bytes

    # -- views (each read builds a fresh dense array) ----------------------

    def _dense(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self._cells, dtype=values.dtype)
        np.add.at(out, keys % self._cells, values)
        return out.reshape(self.nranks, self.nranks)

    @property
    def bytes_matrix(self) -> np.ndarray:
        """``(nranks, nranks)`` float64 bytes, ``[receiver, sender]``."""
        keys, nb, _ = self._entries()
        return self._dense(keys, nb)

    @property
    def count_matrix(self) -> np.ndarray:
        """``(nranks, nranks)`` int64 message counts, ``[receiver, sender]``."""
        keys, _, counts = self._entries()
        return self._dense(keys, counts)

    @property
    def kind_matrices(self) -> Mapping[str, np.ndarray]:
        """Read-only ``kind -> byte matrix`` mapping over every recorded
        kind, including kinds that carried zero bytes (empty unless
        ``by_kind``)."""
        return _KindMatrices(self)

    def kind_bytes(self, kind: str) -> np.ndarray:
        """Byte matrix restricted to one message kind (requires by_kind)."""
        if not self.by_kind:
            raise RuntimeError("tracer was not created with by_kind=True")
        keys, nb, _ = self._entries()
        lo = hi = 0
        kid = self._kind_ids.get(kind)
        if kid is not None:
            lo, hi = np.searchsorted(keys, [kid * self._cells, (kid + 1) * self._cells])
        return self._dense(keys[lo:hi], nb[lo:hi])

    def symmetric_bytes(self) -> np.ndarray:
        """Undirected traffic matrix ``B + B.T`` (used by the partitioner)."""
        matrix = self.bytes_matrix
        return matrix + matrix.T

    def zoom(self, n: int) -> np.ndarray:
        """Top-left ``n x n`` corner of the byte matrix (Fig. 5b's view)."""
        if not 0 < n <= self.nranks:
            raise ValueError(f"zoom size must be in [1, {self.nranks}], got {n}")
        return self.bytes_matrix[:n, :n].copy()

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the dense matrices to an ``.npz`` archive."""
        payload = {"bytes": self.bytes_matrix, "counts": self.count_matrix}
        for kind, mat in self.kind_matrices.items():
            payload[f"kind_{kind}"] = mat
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load(cls, path: str | Path) -> TraceRecorder:
        """Load a tracer previously stored with :meth:`save`."""
        with np.load(Path(path)) as data:
            total = data["bytes"]
            counts = data["counts"].ravel()
            tracer = cls(total.shape[0], by_kind=True)
            rest = total.ravel().astype(np.float64)
            for name in data.files:
                if name.startswith("kind_"):
                    kbytes = data[name].ravel()
                    rest -= kbytes
                    cell = np.flatnonzero(kbytes)
                    kid = tracer._kind_id(name[len("kind_"):])
                    tracer._append(
                        kid * tracer._cells + cell, kbytes[cell], np.zeros_like(cell)
                    )
        # Bytes outside every kind, and all the counts, stay kind-less.
        cell = np.flatnonzero((rest != 0) | (counts != 0))
        tracer._append(cell, rest[cell], counts[cell])
        tracer.total_messages = int(counts.sum())
        tracer.total_bytes = float(total.sum())
        return tracer


class _KindMatrices(Mapping):
    """:attr:`TraceRecorder.kind_matrices`: each lookup builds its matrix."""

    def __init__(self, tracer: TraceRecorder):
        self._tracer = tracer

    def __contains__(self, kind: object) -> bool:
        return kind in self._tracer._kind_ids

    def __getitem__(self, kind: str) -> np.ndarray:
        if kind not in self:
            raise KeyError(kind)
        return self._tracer.kind_bytes(kind)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tracer._kind_ids)

    def __len__(self) -> int:
        return len(self._tracer._kind_ids)
