"""The two served workloads: ``serve-hot`` and ``serve-miss``.

The server is ``python -m repro serve`` in its own process; the load comes
from this process over stdlib ``http.client`` with the harness's own query
mixes, so refactors of ``repro.service.loadgen`` / ``repro.service.client``
cannot change the load. Closed loop: each of the two clients waits for its
reply before sending again, like a dashboard caller. The traced run adds
client-side spans per request, ``/stats`` deltas, the same query timed at each
public entry point (peeling) and, on the hot mix, an open-loop rate ladder.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import re
import signal
import socket
import statistics
import subprocess
import threading
import time

from harness import (
    Context,
    Outcome,
    child_env,
    clock,
    median_seconds,
    python,
)
from metrics import percentile
from repro.core.query import (
    ClusteringSpec,
    MachineSpec,
    QueryResult,
    ReliabilityQuery,
    build_tables,
    run_query,
    run_query_batch,
)
from repro.service.engine import QueryEngine

CLIENTS = 2
STALL_S = 0.100
OPEN_RATES = (100, 200, 300)
OPEN_LIMIT_MS = 20.0
MISS_CACHE_MB = 32


# -- the harness's own query mixes -------------------------------------------


def hot_mix(seed: int) -> list[ReliabilityQuery]:
    """41 queries at 1024 ranks over four cached tables: the traffic of a
    planning dashboard. Query seeds are offset by the workload seed."""
    machine = MachineSpec(preset="tsubame2", nnodes=128, procs_per_node=8)
    strategies = [
        ClusteringSpec(strategy="naive", cluster_size=32),
        ClusteringSpec(strategy="size-guided", cluster_size=8),
        ClusteringSpec(strategy="distributed", cluster_size=16),
        ClusteringSpec(strategy="consecutive", cluster_size=64),
    ]
    base = 1000 * seed
    mix = [
        ReliabilityQuery(
            metric="montecarlo", machine=machine, clustering=c, n_samples=2000, seed=base + s
        )
        for c in strategies
        for s in range(8)
    ]
    for i, c in enumerate(strategies):
        mix.append(
            ReliabilityQuery(
                metric="expected_waste", machine=machine, clustering=c,
                n_campaigns=3, seed=base + 100 + i,
            )
        )
        mix.append(
            ReliabilityQuery(metric="campaign", machine=machine, clustering=c, seed=base + 200 + i)
        )
    mix.append(ReliabilityQuery(metric="survival", machine=machine, clustering=strategies[0]))
    return mix


def miss_mix(seed: int) -> list[ReliabilityQuery]:
    """12 table keys at full TSUBAME2 scale (11 264 ranks; bundles of ~15 / 7 /
    4 MB, ~104 MB in all) cycled round-robin under a 32 MiB budget, so every
    request misses the LRU."""
    machine = MachineSpec(preset="tsubame2", nnodes=1408, procs_per_node=8)
    return [
        ReliabilityQuery(
            metric="montecarlo", machine=machine,
            clustering=ClusteringSpec(strategy=strategy, cluster_size=size),
            n_samples=2000, seed=1000 * seed + i,
        )
        for i, (strategy, size) in enumerate(
            itertools.product(("naive", "size-guided", "distributed", "consecutive"), (32, 64, 128))
        )
    ]


def sweep_query(seed: int) -> ReliabilityQuery:
    """A 12-point checkpoint-interval sweep for the streaming endpoint."""
    return ReliabilityQuery(
        metric="waste_curve",
        machine=MachineSpec(preset="tsubame2", nnodes=128, procs_per_node=8),
        clustering=ClusteringSpec(strategy="naive", cluster_size=32),
        sweep=tuple(900.0 * (i + 1) for i in range(12)),
        n_campaigns=2,
        seed=1000 * seed + 7,
    )


# -- the server process ---------------------------------------------------------


class Server:
    """``python -m repro serve --port 0`` between :meth:`start` and :meth:`stop`."""

    def __init__(self, cache_mb: int | None = None):
        self.args = [python(), "-u", "-m", "repro", "serve", "--port", "0"]
        if cache_mb is not None:
            self.args += ["--cache-mb", str(cache_mb)]
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, one_arena: bool = False) -> None:
        env = child_env()
        if one_arena:
            env["MALLOC_ARENA_MAX"] = "1"
        self.proc = subprocess.Popen(self.args, stdout=subprocess.PIPE, env=env, text=True)
        try:
            line = self.proc.stdout.readline()
            found = re.search(r"http://([\d.]+):(\d+)", line)
            if not found:
                raise RuntimeError(f"server did not announce its port: {line!r}")
            self.host, self.port = found.group(1), int(found.group(2))
            deadline = clock() + 30
            while True:
                try:
                    status, _ = request(self.address, "GET", "/healthz")
                    if status == 200:
                        return
                except OSError:
                    pass
                if clock() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self.proc = None

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stats(self) -> dict:
        status, body = request(self.address, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)


def request(address, method: str, path: str, body: bytes | None = None, rec=None):
    """One request on a fresh connection (the server answers ``Connection:
    close``); returns ``(status, body bytes)``. With a recorder, the three
    client-visible stages are spanned."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    try:
        if rec is None:
            conn.request(method, path, body, headers)
            response = conn.getresponse()
            return response.status, response.read()
        with rec.span("service.http.send"):
            conn.request(method, path, body, headers)
        with rec.span("service.http.first_byte"):
            response = conn.getresponse()
        with rec.span("service.http.read"):
            return response.status, response.read()
    finally:
        conn.close()


# -- load generators ------------------------------------------------------------


def _run_threads(threads) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(address, bodies, seconds: float, rec=None, clients: int = CLIENTS):
    """``clients`` threads, each sending its next request only after the
    previous reply; requests walk ``bodies`` round-robin across all clients.
    Returns ``[(body index, start, end, status, payload)]``."""
    ticket = itertools.count()
    deadline = clock() + seconds
    results: list[list] = [[] for _ in range(clients)]

    def client(mine: list) -> None:
        while True:
            n = next(ticket)
            start = clock()
            if start >= deadline:
                return
            index = n % len(bodies)
            try:
                if rec is None:
                    status, payload = request(address, "POST", "/query", bodies[index])
                else:
                    with rec.operation(n, "service.http.request"):
                        status, payload = request(address, "POST", "/query", bodies[index], rec)
            except (OSError, http.client.HTTPException) as err:
                status, payload = -1, repr(err).encode()
            mine.append((index, start, clock(), status, payload))

    _run_threads([threading.Thread(target=client, args=(r,)) for r in results])
    return sorted(itertools.chain.from_iterable(results), key=lambda r: r[1])


def open_loop(due_times, send, *, senders: int = 8, clock=clock, sleep=time.sleep):
    """Send request ``i`` at ``due_times[i]`` whether or not earlier replies
    have arrived. Latency is charged from the *due* time, so a stall is paid
    by every request that queued behind it; ``lag`` is how late the generator
    itself started the send. Returns ``[(latency, lag)]`` in due order."""
    ticket = itertools.count()
    out: list = [None] * len(due_times)

    def sender() -> None:
        while True:
            i = next(ticket)
            if i >= len(due_times):
                return
            due = due_times[i]
            now = clock()
            if now < due:
                sleep(due - now)
                now = clock()
            send(i)
            out[i] = (clock() - due, now - due)

    _run_threads([threading.Thread(target=sender) for _ in range(senders)])
    return out


def arrivals(rate: float, seconds: float, rng: random.Random, start: float) -> list[float]:
    """Seeded exponential gaps at ``rate`` per second for ``seconds``."""
    times, t = [], start
    while True:
        t += rng.expovariate(rate)
        if t >= start + seconds:
            return times
        times.append(t)


# -- checking and accounting ------------------------------------------------------


def verify(out: Outcome, results, expected: list[QueryResult], window: tuple[float, float]) -> None:
    """Count every request; a 200 must carry, float for float, the in-process
    answer. Throughput is the median count of correct replies per full second
    of the window."""
    start, end = window
    bins = [0] * max(1, int(end - start))
    for index, t0, t1, status, payload in results:
        out.attempted += 1
        out.samples.append(t1 - t0)
        if status != 200:
            out.fail(f"query {index}: status {status}: {payload[:120]!r}")
            continue
        try:
            got = QueryResult.from_dict(json.loads(payload))
        except (ValueError, KeyError) as err:
            out.fail(f"query {index}: unreadable result: {err}")
            continue
        if got != expected[index]:
            out.fail(f"query {index}: result differs from in-process run_query")
            continue
        second = int(t1 - start)
        if second < len(bins):
            bins[second] += 1
    out.rounds.extend((count, 1.0) for count in bins)


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after if isinstance(after[k], (int, float))}


def _p50_ms(results) -> float:
    return 1e3 * statistics.median(end - start for _, start, end, _, _ in results)


# -- the workloads ----------------------------------------------------------------


def _served(ctx: Context, queries, cache_mb, warm) -> Outcome:
    """Common body: reference answers, server up, warm-up, window, checks."""
    out = Outcome()
    rec = ctx.recorder
    bodies = [q.to_json().encode() for q in queries]
    server = Server(cache_mb)

    def setup(one_arena: bool):
        t0 = clock()
        expected = [run_query(q, tables=build_tables(q)) for q in queries]
        server.start(one_arena)
        warm(server, bodies)
        return expected, clock() - t0

    try:
        # Set-up runs twice and the median is charged. The measured server is
        # the second, in the caller's environment. Its peak resident set hinges
        # on how many executor threads, each with a glibc arena of its own, a
        # start-up race leaves it with (serve-miss: 420 to 620 MiB), so
        # `peak_rss_mb` is read from the first, which runs on one arena; the
        # measured server's own peak is `service.cache.rss_over_budget`.
        imports_s = clock() - ctx.started
        _, first_s = setup(one_arena=True)
        out.peak_rss_mb = server.peak_rss_mb()
        server.stop()
        expected, second_s = setup(one_arena=False)
        out.setup_s = imports_s + statistics.median((first_s, second_s))
        before = server.stats()
        seconds = ctx.seconds if rec is None else ctx.seconds / 2
        start = clock()
        results = closed_loop(server.address, bodies, seconds, rec)
        verify(out, results, expected, (start, start + seconds))
        if rec is not None:
            _service_layers(ctx, out, server, queries, bodies, expected, before, cache_mb)
    finally:
        server.stop()
    return out


def serve_hot(ctx: Context) -> Outcome:
    warm_s = 0.5 if ctx.smoke else 1.0

    def warm(server, bodies):
        closed_loop(server.address, bodies, warm_s)

    return _served(ctx, hot_mix(ctx.seed), None, warm)


def serve_miss(ctx: Context) -> Outcome:
    cycles = 2 if ctx.smoke else 8

    def warm(server, bodies):
        # The first cycles are 5-10x slower while the server's heap grows.
        for body in bodies * cycles:
            request(server.address, "POST", "/query", body)

    return _served(ctx, miss_mix(ctx.seed), MISS_CACHE_MB, warm)


# -- per-layer numbers (traced run) ---------------------------------------------------


def _service_layers(ctx, out, server, queries, bodies, expected, before, cache_mb) -> None:
    rec = ctx.recorder
    layers = out.layers
    address = server.address
    reps = 3 if ctx.smoke else 10
    hot = cache_mb is None
    budget_mb = 256 if hot else cache_mb  # `repro serve` defaults to 256 MiB

    after = server.stats()
    engine = _delta(after, before)
    cache = _delta(after["cache"], before["cache"])
    lookups = cache["hits"] + cache["misses"]
    layers.update(
        {
            "service.cache.hits": cache["hits"],
            "service.cache.misses": cache["misses"],
            "service.cache.evictions": cache["evictions"],
            "service.cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
            "service.cache.bytes_mb": after["cache"]["bytes"] / 2**20,
            "service.cache.rss_over_budget": server.peak_rss_mb() / budget_mb,
            "service.dispatch.batches": engine["batches"],
            "service.dispatch.largest_batch": after["dispatcher"]["largest_batch"],
            "service.dispatch.coalesced": engine["coalesced"],
            "service.dispatch.scoring_passes": engine["scoring_passes"],
        }
    )
    served_p50_ms = 1e3 * statistics.median(out.samples)
    probe_s = 0.3 if ctx.smoke else 1.0
    untraced_ms = _p50_ms(closed_loop(address, bodies, probe_s))
    layers["trace.overhead_share"] = served_p50_ms / untraced_ms - 1.0
    layers["service.http.p99_ms"] = 1e3 * percentile(out.samples, 99)
    layers["service.http.stalls"] = sum(1 for s in out.samples if s > STALL_S)
    for stage in ("send", "first_byte", "read"):
        layers[f"service.http.{stage}_ms"] = 1e3 * statistics.median(
            rec.durations(f"service.http.{stage}")
        )
    layers["service.http.connect_ms"] = 1e3 * median_seconds(
        lambda: socket.create_connection(address, timeout=10).close(), 10 * reps
    )
    layers["service.http.healthz_ms"] = 1e3 * median_seconds(
        lambda: request(address, "GET", "/healthz"), 10 * reps
    )

    # Peeling: the same queries at each public entry point, innermost first
    # (wire format -> run_query -> QueryEngine.execute -> POST /query); each
    # layer's cost is the difference between adjacent entry points.
    wire = []
    for body, result in zip(bodies, expected):
        t0 = clock()
        ReliabilityQuery.from_json(body).to_json()
        QueryResult.from_dict(result.to_dict())
        wire.append(clock() - t0)
    wire_ms = 1e3 * statistics.median(wire)
    layers["core.query.wire_us"] = 1e3 * wire_ms
    if hot:
        run_ms = _hot_layers(ctx, layers, address, queries, bodies, reps)
    else:
        run_ms = _miss_layers(layers, queries, reps)
    execute = []
    with QueryEngine(workers=0, cache_bytes=budget_mb << 20) as engine:
        for _ in range(reps + 1):  # the first pass fills the cache / grows the heap
            execute = []
            for query in queries:
                t0 = clock()
                engine.execute([query])
                execute.append(clock() - t0)
    execute_ms = 1e3 * statistics.median(execute)
    layers["service.engine.execute_ms"] = execute_ms - run_ms
    # One client at a time, so no request waits behind another: what HTTP,
    # the event loop and the dispatcher add to one query.
    alone_ms = _p50_ms(closed_loop(address, bodies, probe_s, clients=1))
    layers["service.http.overhead_ms"] = alone_ms - execute_ms - wire_ms
    layers["service.http.overhead_share"] = layers["service.http.overhead_ms"] / alone_ms
    layers["service.http.queue_ms"] = served_p50_ms - alone_ms


def _hot_layers(ctx, layers, address, queries, bodies, reps) -> float:
    """Hot-mix probes; returns the warm ``run_query`` p50 (ms) over the mix."""
    rec = ctx.recorder
    by_kind: dict[str, list[ReliabilityQuery]] = {}
    for query in queries + [sweep_query(ctx.seed)]:
        by_kind.setdefault(query.metric, []).append(query)
    tables = {q.table_key(): build_tables(q) for q in queries}
    mix_times = []
    for kind, group in by_kind.items():
        for query in group:  # warm the per-length run caches
            run_query(query, tables=tables[query.table_key()])
        times = []
        for _ in range(reps if kind != "waste_curve" else 1):
            for query in group:
                t0 = clock()
                run_query(query, tables=tables[query.table_key()])
                times.append(clock() - t0)
        layers[f"core.query.score_ms.{kind}"] = 1e3 * statistics.median(times)
        if kind != "waste_curve":
            mix_times += times
    keys = {q.table_key(): q for q in queries}
    layers["core.query.build_ms"] = statistics.median(
        1e3 * median_seconds(lambda q=q: build_tables(q), reps) for q in keys.values()
    )
    layers["core.tables.nbytes_mb.hot"] = sum(t.nbytes() for t in tables.values()) / 2**20

    same = [q for q in queries if q.metric == "montecarlo"][:8] * 4
    resolver = lambda q: tables[q.table_key()]  # noqa: E731
    singles = 1e3 * median_seconds(lambda: [run_query(q, tables=resolver(q)) for q in same], reps)
    batched = 1e3 * median_seconds(lambda: run_query_batch(same, resolver=resolver), reps)
    layers["core.query.coalesce_ratio"] = batched / singles

    # One streamed sweep: time to the first chunk and to the last byte.
    body = sweep_query(ctx.seed).to_json().encode()
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        with rec.operation("stream", "service.http.stream"):
            t0 = clock()
            conn.request("POST", "/query/stream", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.readline()
            first = clock() - t0
            response.read()
            total = clock() - t0
    finally:
        conn.close()
    layers["service.http.stream_first_chunk_ms"] = 1e3 * first
    layers["service.http.stream_total_ms"] = 1e3 * total

    # Open-loop ladder on the hot mix.
    rng = random.Random(ctx.seed)
    seconds = 0.5 if ctx.smoke else 0.3 * ctx.seconds
    lags, best = [], 0.0
    for rate in OPEN_RATES:
        due = arrivals(rate, seconds, rng, clock() + 0.05)
        failures = []

        def send(i):
            try:
                status, _ = request(address, "POST", "/query", bodies[i % len(bodies)])
            except (OSError, http.client.HTTPException):
                status = -1
            if status != 200:
                failures.append(i)

        sent = open_loop(due, send)
        latency_ms = [1e3 * lat for lat, _ in sent]
        lag_ms = [1e3 * lag for _, lag in sent]
        lags += lag_ms
        layers[f"service.open.p50_ms.r{rate}"] = statistics.median(latency_ms)
        layers[f"service.open.p99_ms.r{rate}"] = percentile(latency_ms, 99)
        third = max(1, len(lag_ms) // 3)
        growing = statistics.mean(lag_ms[-third:]) > statistics.mean(lag_ms[:third]) + 5.0
        if not failures and not growing and percentile(latency_ms, 99) <= OPEN_LIMIT_MS:
            best = float(rate)
    layers["service.open.lag_p99_ms"] = percentile(lags, 99)
    layers["service.open.max_rate_ok"] = best
    return 1e3 * statistics.median(mix_times)


def _miss_layers(layers, queries, reps) -> float:
    """Miss-path probes; returns build + first-touch p50 (ms), what
    ``QueryEngine.execute`` pays per request when nothing is cached."""
    for _ in range(reps + 1):  # keep the last pass: the first one grows the heap
        build, touch, sizes = [], [], 0
        for query in queries:
            t0 = clock()
            tables = build_tables(query)
            t1 = clock()
            run_query(query, tables=tables)
            t2 = clock()
            build.append(t1 - t0)
            touch.append(t2 - t1)
            sizes += tables.nbytes()
    layers["core.query.build_big_ms"] = 1e3 * statistics.median(build)
    layers["core.query.first_touch_ms"] = 1e3 * statistics.median(touch)
    layers["core.tables.nbytes_mb.big"] = sizes / 2**20
    survival = ReliabilityQuery(
        metric="survival", machine=queries[0].machine, clustering=queries[0].clustering
    )
    tables = build_tables(survival)
    t0 = clock()
    run_query(survival, tables=tables)
    layers["core.query.survival_cold_ms"] = 1e3 * (clock() - t0)
    return 1e3 * statistics.median(b + t for b, t in zip(build, touch))
