"""Perf-trajectory gate: tier-1 re-measures the recorded hot paths.

``benchmarks/record_bench.py`` appends one record per PR to
``BENCH_montecarlo.json`` / ``BENCH_simmpi.json``, including small ``gate``
probes measured on the same machine class that runs the tests. These tests
re-run exactly those probes and fail when the live rate drops below half
the last recorded one — a >2× regression of either hot path breaks verify
instead of silently bending the in-tree curve.

The 2× slack absorbs timer noise and container jitter; the probes take
well under a second each. Tests skip cleanly when an artifact has not been
recorded yet (fresh clones, partial checkouts), and on CI runners
(``CI`` set without ``PERF_GATE``): the recorded baselines describe the
machine class that records the trajectory, not arbitrary shared runners —
a hosted machine half as fast would fail every push with no code change.
Set ``PERF_GATE=1`` to force the gates anywhere.
"""

import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REGRESSION_FACTOR = 2.0

pytestmark = pytest.mark.skipif(
    bool(os.environ.get("CI")) and not os.environ.get("PERF_GATE"),
    reason="perf-gate baselines are recorded on the dev machine class; "
    "set PERF_GATE=1 to run them on CI anyway",
)


def _load_bench(module_path: Path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("record_bench", module_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def record_bench():
    path = ROOT / "benchmarks" / "record_bench.py"
    if not path.exists():
        pytest.skip("benchmarks/record_bench.py not present")
    return _load_bench(path)


def _last_record(artifact: Path) -> dict:
    if not artifact.exists():
        pytest.skip(f"{artifact.name} not recorded yet")
    trajectory = json.loads(artifact.read_text())
    if not trajectory:
        pytest.skip(f"{artifact.name} is empty")
    return trajectory[-1]


class TestPerfGate:
    def test_batched_montecarlo_not_regressed(self, record_bench):
        record = _last_record(ROOT / "BENCH_montecarlo.json")
        recorded = record["montecarlo"].get(
            "gate_batched_samples_per_s",
            record["montecarlo"]["batched_samples_per_s"],
        )
        floor = recorded / REGRESSION_FACTOR
        # The probe is a ~40 ms measurement and this host class has slow
        # phases (noisy neighbours, up to ~1 s) that read ~0.65x for every
        # repeat inside them. Each attempt rebuilds the scenario (~0.6 s),
        # so three attempts outlast such a phase; a real >2x regression
        # fails all of them.
        current = 0.0
        for _ in range(3):
            current = max(
                current, record_bench.measure_batched_montecarlo(n_samples=2000)
            )
            if current >= floor:
                break
        assert current >= floor, (
            f"batched Monte-Carlo at {current:.0f} samples/s, below "
            f"{floor:.0f} (last recorded {recorded}, {REGRESSION_FACTOR}x slack)"
        )

    def test_simmpi_fast_path_not_regressed(self, record_bench):
        record = _last_record(ROOT / "BENCH_simmpi.json")
        gate = record["simmpi"]["gate"]
        current = record_bench.measure_simmpi(
            nodes=gate["nodes"],
            app_per_node=gate["app_per_node"],
            iterations=gate["iterations"],
        )
        floor = gate["ranks_per_s"] / REGRESSION_FACTOR
        assert current >= floor, (
            f"simmpi fast path at {current:.0f} rank-iters/s, below "
            f"{floor:.0f} (last recorded {gate['ranks_per_s']}, "
            f"{REGRESSION_FACTOR}x slack)"
        )

    def test_simmpi_split_fast_path_not_regressed(self, record_bench):
        record = _last_record(ROOT / "BENCH_simmpi.json")
        gate = record["simmpi"]["gate"]
        recorded = gate.get("split_ranks_per_s")
        if recorded is None:
            pytest.skip("split gate not recorded yet")
        current = record_bench.measure_simmpi_split()
        floor = recorded / REGRESSION_FACTOR
        assert current >= floor, (
            f"split-communicator fast path at {current:.0f} rank-iters/s, "
            f"below {floor:.0f} (last recorded {recorded}, "
            f"{REGRESSION_FACTOR}x slack)"
        )

    def test_fig5_kernel_path_not_regressed(self, record_bench):
        record = _last_record(ROOT / "BENCH_simmpi.json")
        gate = record["simmpi"]["gate"]
        recorded = gate.get("fig5_kernel_ranks_per_s")
        if recorded is None:
            pytest.skip("kernel gate not recorded yet")
        current = record_bench.measure_simmpi(
            nodes=gate["nodes"],
            app_per_node=gate["app_per_node"],
            iterations=gate["iterations"],
            use_kernels=True,
        )
        floor = recorded / REGRESSION_FACTOR
        assert current >= floor, (
            f"kernelized fig5 path at {current:.0f} rank-iters/s, below "
            f"{floor:.0f} (last recorded {recorded}, "
            f"{REGRESSION_FACTOR}x slack)"
        )

    def test_p2p_wave_path_not_regressed(self, record_bench):
        record = _last_record(ROOT / "BENCH_simmpi.json")
        gate = record["simmpi"]["gate"]
        recorded = gate.get("p2p_wave_msgs_per_s")
        if recorded is None:
            pytest.skip("p2p wave gate not recorded yet")
        current = record_bench.measure_p2p_wave()
        floor = recorded / REGRESSION_FACTOR
        assert current >= floor, (
            f"p2p wave path at {current:.0f} msgs/s, below {floor:.0f} "
            f"(last recorded {recorded}, {REGRESSION_FACTOR}x slack)"
        )
