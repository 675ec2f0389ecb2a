import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
from spans import SpanRecorder, covered

LEDGER = Path(__file__).resolve().parent.parent
REPO = LEDGER.parent.parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_catalogue_names_and_counts():
    manifest = metrics.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in manifest["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    for layer in metrics.PER_LAYER:
        assert layer.moves and set(layer.owners) <= set(metrics.WORKLOADS)
    assert set(run.WORKLOADS) == set(metrics.WORKLOADS)


def test_benchmark_json_is_the_catalogue():
    assert json.loads((REPO / "BENCHMARK.json").read_text()) == metrics.manifest()


def test_percentile_is_nearest_rank_from_below():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 95) == 95
    assert metrics.percentile(values, 99) == 99
    # A short run's slowest operation is left out of its p95.
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 90.0], 95) == 8.0
    assert metrics.percentile([3.0, 1.0, 2.0], 95) == 2.0
    assert metrics.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_median_of_rounds_ignores_one_slow_round():
    assert metrics.median_rate([(10, 1.0), (10, 1.0), (10, 5.0)]) == 10.0
    assert metrics.median_rate([(8, 2.0), (0, 0.0), (12, 2.0)]) == 5.0
    with pytest.raises(ValueError):
        metrics.median_rate([(0, 0.0)])


def test_p95_needs_ten_separately_timed_operations_beyond_it():
    from harness import Outcome

    few = Outcome(samples=[1.0, 1.1, 1.2, 1.3, 9.0], rounds=[(5, 13.6)])
    assert few.end_to_end()["op_p95_ms"] == few.end_to_end()["op_p50_ms"] == 1200.0
    # A fuzz cycle's scenarios share one aggregate timing: 64 samples, 2 timings.
    shared = Outcome(samples=[0.05] * 32 + [0.06] * 32, rounds=[(32, 1.6), (32, 1.92)])
    assert shared.end_to_end()["op_p95_ms"] == shared.end_to_end()["op_p50_ms"]
    many = Outcome(samples=[i / 1000 for i in range(1, 201)], rounds=[(200, 20.1)])
    assert many.end_to_end()["op_p95_ms"] == pytest.approx(190.0)
    assert many.end_to_end()["op_p50_ms"] == pytest.approx(100.5)


def test_median_round_of_a_set():
    def result(value, failed=0, exit_code=0):
        return {
            "correct": not failed, "attempted": 10, "failed": failed, "exit": exit_code,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}},
        }

    merged = run.median_round([result(5.0), result(9.0), result(6.0)])
    rounds = [5.0, 9.0, 6.0]
    assert merged["metrics"]["ops_per_s"] == {"value": 6.0, "unit": "1/s", "rounds": rounds}
    assert merged["correct"] and merged["attempted"] == 30 and merged["exit"] == 0
    bad = run.median_round([result(5.0), result(9.0, failed=2, exit_code=1), result(6.0)])
    assert not bad["correct"] and bad["failed"] == 2 and bad["exit"] == 1


def test_spread_and_worse_by():
    values = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    assert metrics.spread(values) == pytest.approx(5.5 / 104.5)
    assert metrics.worse_by("lower", 10.0, 11.0) == pytest.approx(0.1)
    assert metrics.worse_by("higher", 10.0, 11.0) == pytest.approx(-0.1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_self_time_counts_overlapping_children_once():
    assert covered([(0, 4), (2, 6), (8, 9)]) == 7
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    parent = rec.begin("parent")  # 0 .. 10
    clock.now = 1.0
    first = rec.begin("child")  # 1 .. 5
    clock.now = 2.0
    nested = rec.begin("grandchild")  # 2 .. 3
    clock.now = 3.0
    rec.end(nested)
    clock.now = 5.0
    rec.end(first)
    rec.end(parent)
    # A second child recorded by another thread overlaps the first: 4 .. 8.
    rec.spans.append(["child", 4.0, 8.0, parent, None])
    rec.spans[parent][2] = 10.0
    selfs = rec.self_times()
    assert selfs[parent] == pytest.approx(10.0 - 7.0)  # children cover 1..8 once
    assert selfs[first] == pytest.approx(4.0 - 1.0)
    assert selfs[nested] == pytest.approx(1.0)
    assert rec.durations("child") == [pytest.approx(4.0), pytest.approx(4.0)]


def test_threads_never_share_a_span_index():
    import threading

    rec = SpanRecorder()

    def work():
        for _ in range(2000):
            with rec.span("s"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(rec.spans) == 8000 and all(s[2] is not None and s[2] >= s[1] for s in rec.spans)


def test_instrument_reaches_from_imports_and_restores():
    import repro.fuzz.actors as actors
    import repro.fuzz.autopilot as autopilot

    original = actors.compose_scenario
    rec = SpanRecorder()
    rec.instrument(actors, "compose_scenario", "fuzz.compose_scenario")
    assert autopilot.compose_scenario is actors.compose_scenario is not original
    rec.restore()
    assert autopilot.compose_scenario is actors.compose_scenario is original


def test_open_loop_charges_latency_from_the_due_time():
    from serve import open_loop

    clock = FakeClock()
    sent = open_loop(
        [0.0, 1.0, 2.0, 10.0],
        lambda i: clock.sleep(1.5),
        senders=1,
        clock=clock,
        sleep=clock.sleep,
    )
    latencies = [round(latency, 9) for latency, _ in sent]
    lags = [round(lag, 9) for _, lag in sent]
    # Each send takes 1.5 s; the second and third were due while the
    # generator was still busy, so they pay the wait as well as the service.
    assert latencies == [1.5, 2.0, 2.5, 1.5]
    assert lags == [0.0, 0.5, 1.0, 0.0]


def _args(workload, trace):
    return argparse.Namespace(
        workload=workload, seed=1, seconds=0.2, smoke=True, trace=trace, out=None
    )


def test_corrupted_pin_fails_the_run(capsys):
    pins = json.loads((LEDGER / "expected.json").read_text())
    good = run.run_one(_args("sim-heat", 0), pins)
    assert good["correct"] and good["failed"] == 0
    pins["sim-heat"]["smoke"]["clock_sha256"] = "0" * 64
    bad = run.run_one(_args("sim-heat", 0), pins)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] > 0
    assert "clock_sha256" in bad["failures"][0]
    assert run.print_run(_args("sim-heat", 0), bad) == 1
    capsys.readouterr()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_agree_with_benchmark_json(trace, key, tmp_path):
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *manifest["command"][1:], "--workload", "sim-heat", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        cwd=REPO, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in manifest[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_compare_verdicts():
    spec = next(m for m in metrics.END_TO_END if m.name == "op_p50_ms")
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(spec, steady, [100.2, 100.4, 99.9, 100.1, 100.0])[1] == "unchanged"
    assert run.verdict(spec, steady, [80.0, 81.0, 79.0, 80.5, 79.5])[1] == "improved"
    assert run.verdict(spec, steady, [130.0, 131.0, 129.0, 130.5, 129.5])[1] == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0, 90.0]
    assert run.verdict(spec, noisy, [95.0, 135.0, 75.0, 110.0, 85.0])[1] == "unresolved"
    assert run.verdict(spec, noisy, [60.0, 61.0, 59.0, 62.0, 58.0])[1] == "improved"
