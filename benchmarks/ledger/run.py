"""The repo's perf ledger: one command, seven workloads, every metric by name.

One run of one workload (what the benchmark driver calls; the last line of
stdout is the result object)::

    python3 benchmarks/ledger/run.py --workload sim-fig5 --seed 1 --seconds 10 --trace 0

A set — every workload, each in a fresh process — with options::

    python3 benchmarks/ledger/run.py                  # untraced set: 3 interleaved rounds
    python3 benchmarks/ledger/run.py --traced         # plus the per-layer run
    python3 benchmarks/ledger/run.py --smoke --traced # shrunken shapes, all checks live
    python3 benchmarks/ledger/run.py --repeat 5       # same seed 5x: spreads against the bounds
    python3 benchmarks/ledger/run.py --record         # append to records.jsonl
    python3 benchmarks/ledger/run.py --repin          # rewrite expected.json
    python3 benchmarks/ledger/run.py compare A.jsonl B.jsonl

See README.md beside this file.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import metrics  # noqa: E402

PINS = HERE / "expected.json"
RECORDS = HERE / "records.jsonl"
OWNERS = {m.name: m.owners for m in metrics.PER_LAYER}


#: Workload → (module, function); the module — and with it the part of the
#: program under test that workload needs — is imported only when it runs.
WORKLOADS = {
    "sim-fig5": ("sim", "sim_fig5"),
    "sim-heat": ("sim", "sim_heat"),
    "sim-sharded": ("sim", "sim_sharded"),
    "serve-hot": ("serve", "serve_hot"),
    "serve-miss": ("serve", "serve_miss"),
    "fuzz-campaign": ("fuzzw", "fuzz_campaign"),
    "paper-exhibits": ("exhibits", "paper_exhibits"),
}


# -- one run of one workload -----------------------------------------------------


def run_one(args, pins: dict | None = None) -> dict:
    """Run ``args.workload`` in this process; returns the result object plus
    a ``header`` and any failure messages."""
    import harness
    from spans import SpanRecorder

    load_before = harness.load1()
    traced = bool(args.trace)
    out_dir = Path(args.out) if args.out else harness.DEFAULT_OUT
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        pins=json.loads(PINS.read_text()) if pins is None else pins,
        started=STARTED,
        recorder=SpanRecorder() if traced else None,
    )
    module, function = WORKLOADS[args.workload]
    out = getattr(importlib.import_module(module), function)(ctx)
    head = harness.header(args.seed, load_before)
    if traced:
        out.layers["trace.spans"] = len(ctx.recorder.spans)
        values = {m.name: out.layers.get(m.name, 0) for m in metrics.PER_LAYER}
        unknown = set(out.layers) - set(values)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from the catalogue: {sorted(unknown)}")
        units = {m.name: m.unit for m in metrics.PER_LAYER}
        out_dir.mkdir(parents=True, exist_ok=True)
        ctx.recorder.dump(out_dir / f"spans-{args.workload}-{args.seed}.json", head)
    else:
        values = out.end_to_end()
        units = {m.name: m.unit for m in metrics.END_TO_END}
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "header": head,
        "failures": out.failures,
    }


def print_run(args, result: dict) -> int:
    head = result.pop("header")
    failures = result.pop("failures")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(head)}")
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{'failed_share':44s} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    for why in failures:
        print(f"FAILED: {why}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- a set: every workload, each in a fresh process -------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool, out) -> dict:
    import harness

    cmd = [
        harness.python(), str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    if out:
        cmd += ["--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if done.returncode != 0 or not result["correct"]:
        sys.stderr.write(done.stderr[-4000:])
    result["exit"] = done.returncode
    return result


#: Untraced runs of each workload in a full set, interleaved round-robin.
ROUNDS = 3


def median_round(results: list[dict]) -> dict:
    """One result from a workload's rounds: every metric's median over the
    rounds (which are kept beside it), counts summed, the worst exit code."""
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "exit": max(r["exit"] for r in results),
        "metrics": {},
    }
    for name, entry in results[0]["metrics"].items():
        rounds = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        merged["metrics"][name] = {
            "value": statistics.median(rounds), "unit": entry["unit"], "rounds": rounds
        }
    return merged


def run_sets(args, workloads, seed: int, count: int) -> list[dict]:
    """``count`` sets of every workload, each run in a fresh process. A burst
    of interference on this host outlasts a run (and often a whole round), so
    a full set is :data:`ROUNDS` untraced runs per workload and reports each
    metric's median round, and the runs go round-robin: round 1 of every
    workload of every set, then round 2, ... — one burst shorter than a third
    of the session costs each set at most one round."""
    import harness

    load_before = harness.load1()
    rounds = 1 if args.smoke else ROUNDS
    sets = range(count)
    jobs = [(k, name, 0) for _ in range(rounds) for k in sets for name in workloads]
    if args.traced:
        jobs += [(k, name, 1) for k in sets for name in workloads]

    def job(numbered):
        index, (_, name, trace) = numbered
        print(f"[{index + 1}/{len(jobs)}] {name} trace={trace}", file=sys.stderr)
        result = run_child(name, seed, args.seconds, trace, args.smoke, args.out)
        if trace:  # a set keeps only the per-layer metrics this workload owns
            result["metrics"] = {
                k: v for k, v in result["metrics"].items() if name in OWNERS[k]
            }
        return result

    # A smoke set checks, it does not measure: its runs may share the cores.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = list(pool.map(job, enumerate(jobs)))
    header = harness.header(seed, load_before)
    records = []
    for k in sets:
        runs: dict = {}
        for name in workloads:
            mine = [r for j, r in zip(jobs, results) if j == (k, name, 0)]
            runs[name] = {"untraced": median_round(mine)}
            if args.traced:
                runs[name]["traced"] = results[jobs.index((k, name, 1))]
        records.append({"header": header, "smoke": args.smoke, "runs": runs})
    return records


def print_set(record: dict) -> bool:
    print(f"# {json.dumps(record['header'])}")
    ok = True
    for name, pair in record["runs"].items():
        for kind, result in pair.items():
            ok = ok and result["exit"] == 0 and result["correct"]
            share = result["failed"] / max(1, result["attempted"])
            print(f"\n{name} [{kind}] failed_share={share:.4g} exit={result['exit']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
    return ok


def repeat_table(records: list[dict]) -> bool:
    """Per workload × end-to-end metric: median, quartiles, spread and the
    largest deviation from the median against the bound; exact counts must
    repeat exactly."""
    ok = True
    print(f"\n{'workload':15s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'max dev':>8s} {'bound':>6s}  verdict")
    bounds = {m.name: m for m in metrics.END_TO_END}
    for name in records[0]["runs"]:
        for metric, spec in bounds.items():
            values = [r["runs"][name]["untraced"]["metrics"][metric]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            max_dev = max(abs(v - median) for v in values) / median
            # Set-up time is reported but, as in the driver's contract, not gated on spread.
            within = max_dev <= spec.bound or metric == "setup_s"
            ok = ok and within
            print(f"{name:15s} {metric:12s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{(q3 - q1) / median:8.3f} {max_dev:8.3f} {spec.bound:6.2f}  "
                  f"{'ok' if within else 'OUTSIDE BOUND'}")
    exact = [m.name for m in metrics.PER_LAYER if m.exact]
    for name, pair in records[0]["runs"].items():
        if "traced" not in pair:
            continue
        for metric in exact:
            if name not in OWNERS[metric]:
                continue
            seen = {r["runs"][name]["traced"]["metrics"][metric]["value"] for r in records}
            if len(seen) > 1:
                ok = False
                print(f"{name}: exact count {metric} differs across sets: {sorted(seen)}")
    return ok


# -- compare two recorded sets -------------------------------------------------------


def verdict(spec, parent: list[float], change: list[float]) -> tuple[float, str]:
    """``(worse-by share, word)`` for one workload × metric: ``worse`` beyond
    the bound, ``unresolved`` when the parent's own spread exceeds the bound
    (unless every run of the change beats every run of the parent),
    ``improved`` when the medians differ by more than that spread."""
    base, new = statistics.median(parent), statistics.median(change)
    worse = metrics.worse_by(spec.better, base, new)
    noise = metrics.spread(parent) if len(parent) >= 2 else spec.bound
    if noise > spec.bound:
        lower = spec.better == "lower"
        clean_win = max(change) < min(parent) if lower else min(change) > max(parent)
        return worse, "improved" if clean_win else "unresolved"
    if worse > spec.bound:
        return worse, "worse"
    return worse, "improved" if -worse > noise else "unchanged"


def load_sets(path: str) -> list[dict]:
    """The sets of a JSON-lines file: a set file or ``records.jsonl``."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def compare(path_a: str, path_b: str) -> int:
    parent, change = load_sets(path_a), load_sets(path_b)
    print(f"parent: {path_a} ({len(parent)} set(s), rev {parent[0]['header']['rev']})")
    print(f"change: {path_b} ({len(change)} set(s), rev {change[0]['header']['rev']})")
    print(f"\n{'workload':15s} {'metric':12s} {'parent':>12s} {'change':>12s} {'ratio':>18s} "
          f"{'bound':>6s}  verdict")
    worst = 0
    for name in parent[0]["runs"]:
        for spec in metrics.END_TO_END:
            def values(sets):
                return [
                    s["runs"][name]["untraced"]["metrics"][spec.name]["value"]
                    for s in sets
                    if spec.name in s["runs"].get(name, {}).get("untraced", {}).get("metrics", {})
                ]

            a, b = values(parent), values(change)
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            _, word = verdict(spec, a, b)
            worst = max(worst, word == "worse")
            ratio = f"{new / base:.3f}x of {base:.4g}"
            print(f"{name:15s} {spec.name:12s} {base:12.5g} {new:12.5g} {ratio:>18s} "
                  f"{spec.bound:6.2f}  {word}")
    return int(worst)


# -- pins -----------------------------------------------------------------------------


def repin() -> int:
    """Rewrite ``expected.json`` from this checkout. Legal only in a
    ``benchmark``-archetype PR: pins exist so that perf and simplicity PRs
    cannot change simulated statistics or exhibit text."""
    import exhibits
    import sim

    pins: dict = {"sim-fig5": {}, "sim-heat": {}, "paper-exhibits": {}}
    for shape_name in ("full", "smoke"):
        fig5 = sim.FIG5[shape_name]
        network = sim.tsubame2_fti_machine(fig5["nodes"], fig5["app_per_node"]).network
        engine, tracer, _ = sim.engine_op(lambda: sim.fig5_workload(**fig5), network)
        pins["sim-fig5"][shape_name] = sim.digest(tracer, engine.rank_times())
        heat = sim.HEAT[shape_name]
        engine, tracer, _ = sim.engine_op(
            lambda: sim.HeatWorkload(sim.HeatConfig(**heat)), sim.heat_network(heat)
        )
        pins["sim-heat"][shape_name] = sim.digest(tracer, engine.rank_times())
    for name, argv in exhibits.exhibit_argvs(exhibits.DEFAULT_SEED).items():
        code, sha, _ = exhibits.regenerate(argv)
        if code != 0:
            raise RuntimeError(f"exhibit {name} exited {code}")
        pins["paper-exhibits"][name] = sha
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {PINS}")
    return 0


# -- command line ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process and end with the result object")
    parser.add_argument("--traced", action="store_true", help="sets also make the traced run")
    parser.add_argument("--smoke", action="store_true", help="shrunken shapes, 1 s windows")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--record", action="store_true", help=f"append sets to {RECORDS.name}")
    parser.add_argument("--repin", action="store_true")
    parser.add_argument("--out", default=None, help="directory for span dumps and set files")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(metrics.RUN_SECONDS)
    if args.repin:
        return repin()
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        args.workload = args.workload[0]
        return print_run(args, run_one(args))

    import harness

    workloads = args.workload or list(metrics.WORKLOADS)
    records = run_sets(args, workloads, args.seed, args.repeat)
    ok = all([print_set(record) for record in records])
    if args.repeat > 1 and ok:  # a failed run printed no metrics to tabulate
        ok = repeat_table(records)
    out_dir = Path(args.out) if args.out else harness.DEFAULT_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = "".join(json.dumps(record) + "\n" for record in records)
    path = out_dir / f"set-{records[0]['header']['utc'].replace(':', '')}.jsonl"
    path.write_text(lines)
    print(f"\nwrote {path}")
    if args.record:
        with RECORDS.open("a") as fh:
            fh.write(lines)
        print(f"appended {len(records)} set(s) to {RECORDS}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
