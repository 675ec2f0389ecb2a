"""The reference engine: the production engine with every fast path off.

:class:`ReferenceEngine` is what the equivalence suites, the sharded
suite and the fuzzer's ``engine_divergence`` oracle compare
:class:`~repro.simmpi.engine.Engine` against (equal results, bit-identical
clocks, byte-identical traces). It overrides two existing methods, and the
engine never asks which class it is: ``_setup_run`` clears both per-run
fast-path gates (collectives run the point-to-point cascade, a
``KernelLoop`` its interpreted expansion) and ``_post_send`` flushes the
one-slot pricing wave after every send (scalar ``transfer_time``,
per-message ``TraceRecorder.record``). A reference run therefore never
reaches ``transfer_times`` or ``record_many``
(``tests/simmpi/test_reference_engine.py`` pins this).
"""

from __future__ import annotations

from repro.simmpi.engine import Engine


class ReferenceEngine(Engine):
    """An :class:`~repro.simmpi.engine.Engine` with every fast path off."""

    def _setup_run(self, program, *, comm_factory=None) -> None:
        super()._setup_run(program, comm_factory=comm_factory)
        self._fast_coll_active = self._kernel_fast_ok = False

    def _post_send(self, state, dst, tag, comm_id, payload, nbytes, kind) -> None:
        super()._post_send(state, dst, tag, comm_id, payload, nbytes, kind)
        self._price_pending_sends()


__all__ = ["ReferenceEngine"]
