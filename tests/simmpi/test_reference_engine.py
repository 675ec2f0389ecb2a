"""``ReferenceEngine`` keeps the equivalence suites honest.

Every equivalence suite compares the production engine with
``ReferenceEngine``. If the reference ever took a fast path, those suites
would compare the fast path with itself and pass vacuously. On the fig5
smoke shape — kernels, fast collectives, waves and wildcard gathers all
live in the production run — the reference must price and trace every
message one at a time and report no fast collective and no kernel run.
"""

import pytest

from repro.apps import fig5_workload
from repro.simmpi import NetworkModel, ReferenceEngine, TraceRecorder

from networks import assert_runs_equal, run_engine

#: Vectorized entry points (never reached by the reference) and their
#: scalar counterparts (the reference's only pricing/tracing path).
SPIED = (
    (NetworkModel, "transfer_times"),
    (TraceRecorder, "record_many"),
    (NetworkModel, "transfer_time"),
    (TraceRecorder, "record"),
)


@pytest.fixture
def calls(monkeypatch):
    """Per-method call counts of the pricing and tracing entry points."""
    counts = dict.fromkeys((name for _, name in SPIED), 0)
    for owner, name in SPIED:

        def spy(*args, _original=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return counts


def test_reference_takes_no_fast_path_on_fig5(calls):
    workload = fig5_workload(
        nodes=4, app_per_node=4, iterations=20, checkpoint_every=5
    )
    ref = run_engine(
        workload.build_programs(), workload.nranks, engine_cls=ReferenceEngine
    )
    ref_calls = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    fast = run_engine(workload.build_programs(), workload.nranks)

    assert ref_calls["transfer_times"] == ref_calls["record_many"] == 0
    assert ref_calls["transfer_time"] > 0 and ref_calls["record"] > 0
    assert ref["engine"].fast_collectives_run == ref["engine"].kernel_runs == 0
    # The same spies see the production engine's vectorized paths, so the
    # reference's zeros above are not an artifact of the spying.
    assert calls["transfer_times"] > 0 and calls["record_many"] > 0
    assert fast["engine"].fast_collectives_run > 0
    assert fast["engine"].kernel_runs > 0
    assert_runs_equal(ref, fast, "fig5 smoke")
