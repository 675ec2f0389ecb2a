"""What every workload shares: the run context, the cycle loop, set-up timing,
resident-set readings and the record header."""

from __future__ import annotations

import datetime
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from metrics import median_rate, percentile

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
#: Span dumps and set files land here unless ``--out`` says otherwise; the
#: benchmark may only write inside its checkout, so not the system temp dir.
DEFAULT_OUT = REPO / ".ledger_out"

clock = time.perf_counter


@dataclass
class Context:
    """One run of one workload."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    pins: dict
    started: float
    recorder: object | None = None  # SpanRecorder when tracing

    @property
    def shape(self) -> str:
        return "smoke" if self.smoke else "full"


#: Fewest separately timed operations of which ten lie beyond the p95.
TAIL_SAMPLES = 200


@dataclass
class Outcome:
    """What a workload hands back: op samples, per-round (correct ops, busy
    seconds), counts, and — from a traced run — its per-layer numbers."""

    samples: list[float] = field(default_factory=list)
    rounds: list[tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def end_to_end(self) -> dict[str, float]:
        p50 = statistics.median(self.samples)
        # The driver wants every end-to-end metric from every run, but a window
        # of fewer than TAIL_SAMPLES separately timed operations (every workload
        # but serve-*) has no 95th percentile worth gating: it repeats its
        # median rather than call its slowest operation a tail.
        tail = len(set(self.samples)) >= TAIL_SAMPLES
        return {
            "setup_s": self.setup_s,
            "ops_per_s": median_rate(self.rounds),
            "op_p50_ms": 1e3 * p50,
            "op_p95_ms": 1e3 * (percentile(self.samples, 95) if tail else p50),
            "peak_rss_mb": self.peak_rss_mb,
        }


def repeat_setup(ctx: Context, build, repeats: int = 3):
    """Run ``build`` ``repeats`` times and charge set-up with the median, on
    top of what the process spent before the first build (interpreter and
    imports, which cannot be repeated in one process). Returns the last
    build's result and the set-up seconds."""
    before = clock() - ctx.started
    times = []
    result = None
    for _ in range(1 if ctx.smoke else repeats):
        t0 = clock()
        result = build()
        times.append(clock() - t0)
    return result, before + statistics.median(times)


def run_cycles(out: Outcome, seconds: float, cycle, *, min_cycles: int, read_rss=None) -> None:
    """Call ``cycle(index)`` until ``seconds`` have passed and ``min_cycles``
    cycles have run. A cycle returns one ``(seconds, failure-or-None)`` per
    operation; each cycle is one round of the median-of-rounds rate, its busy
    time the sum of its operations (checking outputs happens between
    operations and is not charged). Peak resident set is read after cycle
    ``min_cycles``, so the reading does not depend on how many more cycles a
    fast host fits into the window."""
    deadline = clock() + seconds
    index = 0
    while index < min_cycles or clock() < deadline:
        ops = cycle(index)
        good = 0
        for took, failure in ops:
            out.attempted += 1
            out.samples.append(took)
            if failure is None:
                good += 1
            else:
                out.fail(failure)
        out.rounds.append((good, sum(took for took, _ in ops)))
        index += 1
        if read_rss is not None and index == min_cycles:
            out.peak_rss_mb = read_rss()


def median_seconds(call, repeats: int = 3) -> float:
    """Median wall time of ``call()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        call()
        times.append(clock() - t0)
    return statistics.median(times)


def own_peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (and, with ``children``, of the
    largest child it has waited for) in MiB; ``ru_maxrss`` is KiB on Linux."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def load1() -> float:
    return os.getloadavg()[0]


def git_rev() -> tuple[str | None, bool | None]:
    """Short revision and dirty flag, or ``(None, None)`` outside a git
    checkout (the benchmark driver runs from an exported tree)."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO, capture_output=True, text=True, timeout=10,
        )
        return rev.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def header(seed: int, load_before: float) -> dict:
    """The common record header (ROADMAP item 1: host, cores, python/numpy, rev)."""
    import numpy

    rev, dirty = git_rev()
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rev": rev,
        "dirty": dirty,
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "load1_before": load_before,
        "load1_after": load1(),
    }


def child_env() -> dict:
    """Environment for the server process: the caller's, with ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python() -> str:
    return sys.executable or "python3"
