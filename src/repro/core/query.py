"""Unified reliability-query API: one picklable object per question.

Every reliability question the repo can answer — "what does this
clustering waste over a month?", "what fraction of cascades survive?",
"what do 2000 sampled failures measure?" — is expressed as a frozen
:class:`ReliabilityQuery` and answered as a frozen :class:`QueryResult`.
The CLI, the experiments, the benchmarks, the fuzzer's oracle and the
HTTP service (:mod:`repro.service`) all construct the same object; the
JSON wire format (``to_json``/``from_json``, versioned ``"v": 1``) *is*
the in-process API, so a query posted over the wire and a query built in
a test are literally interchangeable. The live-object functions the
executors stand on (``montecarlo_scores``,
``CampaignSimulator.expected_waste``) stay public for what a wire query
cannot carry — live ``numpy`` Generators, tolerance callables,
``workers > 1`` — and agree with the query path seed for seed.

Queries are cheap value objects; the heavy per-(clustering, placement)
lookup tables they need are resolved once into a :class:`QueryTables`
bundle and memoized — in-process behind :func:`resolve_query`, and with
an explicit byte budget behind the service's
:class:`repro.service.cache.TableCache`. Monte-Carlo queries that share
a table bundle are *coalesced*: :func:`run_query_batch` concatenates
their sampled event batches and scores them in one vectorized pass.
Scoring is element-wise array indexing (:mod:`repro.core.tables`), so
the coalesced pass is bit-identical to scoring each query alone — the
property the service's micro-batching dispatcher and its equivalence
tests rely on.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from threading import Lock

import numpy as np

from repro.clustering.base import Clustering
from repro.clustering.strategies import (
    consecutive_clustering,
    distributed_clustering,
    naive_clustering,
    size_guided_clustering,
)
from repro.failures.catastrophic import (
    CatastrophicModel,
    MonteCarloEstimator,
    rs_half_tolerance,
    xor_tolerance,
)
from repro.failures.events import PAPER_TAXONOMY, FailureEvent, FailureTaxonomy
from repro.machine.machine import Machine
from repro.machine.placement import BlockPlacement
from repro.machine.tsubame2 import tsubame2_machine
from repro.models.campaign import CampaignConfig, CampaignSimulator
from repro.util.rng import resolve_rng

#: Wire-format version accepted by ``from_json``/``from_dict``.
QUERY_VERSION = 1

#: Erasure-encoding names ↔ the tolerance callables of the analytic model.
ENCODINGS = {"rs": rs_half_tolerance, "xor": xor_tolerance}
_ENCODING_OF_TOLERANCE = {rs_half_tolerance: "rs", xor_tolerance: "xor"}

METRICS = ("montecarlo", "expected_waste", "campaign", "survival", "waste_curve")

#: Metrics priced by :class:`CampaignSimulator`, whose erasure configuration
#: is fixed to FTI's Reed–Solomon setup.
_CAMPAIGN_METRICS = ("expected_waste", "campaign", "waste_curve")

#: Metrics whose curve points are independent — safe to split into chunks
#: (the service streams them as partial results).
STREAMABLE_METRICS = ("survival", "waste_curve")

MACHINE_PRESETS = ("tsubame2", "generic")

CLUSTERING_STRATEGIES = (
    "naive",
    "size-guided",
    "consecutive",
    "distributed",
    "labels",
)


def _check_unknown(data: dict, what: str, allowed) -> None:
    """Reject unknown wire fields loudly instead of silently ignoring them."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown field(s) in {what}: {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )


def _dataclass_from_dict(cls, data, what: str):
    """Strict dict → frozen-dataclass conversion (used for the nested
    taxonomy/campaign payloads, whose classes predate the wire format)."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    names = [f.name for f in fields(cls)]
    _check_unknown(data, what, names)
    return cls(**data)


# ---------------------------------------------------------------------------
# Machine + clustering specs: declarative, picklable, JSON-able
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """Declarative machine description a query carries instead of a
    :class:`~repro.machine.machine.Machine` (which holds live storage
    devices and is not wire-friendly)."""

    preset: str = "tsubame2"
    nnodes: int = 128
    procs_per_node: int = 8

    def __post_init__(self) -> None:
        if self.preset not in MACHINE_PRESETS:
            raise ValueError(
                f"unknown machine preset {self.preset!r} "
                f"(expected one of {MACHINE_PRESETS})"
            )
        if self.nnodes < 1:
            raise ValueError(f"nnodes must be >= 1, got {self.nnodes}")
        if self.procs_per_node < 1:
            raise ValueError(
                f"procs_per_node must be >= 1, got {self.procs_per_node}"
            )

    @property
    def nranks(self) -> int:
        """Application processes hosted by the described machine."""
        return self.nnodes * self.procs_per_node

    def build(self) -> Machine:
        """Materialize the machine (fresh storage devices)."""
        if self.preset == "tsubame2":
            return tsubame2_machine(self.nnodes, self.procs_per_node)
        return Machine(self.nnodes, self.procs_per_node)

    @staticmethod
    def from_machine(machine: Machine) -> "MachineSpec":
        """Describe an existing block-placement machine."""
        if type(machine.placement) is not BlockPlacement:
            raise ValueError(
                "only block-placement machines are expressible as a "
                f"MachineSpec, got {type(machine.placement).__name__}"
            )
        return MachineSpec(
            preset="tsubame2",
            nnodes=machine.nnodes,
            procs_per_node=machine.procs_per_node,
        )

    def key(self) -> str:
        """Canonical cache-key fragment (stable across processes)."""
        return f"{self.preset}:{self.nnodes}x{self.procs_per_node}"

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "nnodes": self.nnodes,
            "procs_per_node": self.procs_per_node,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        return _dataclass_from_dict(cls, data, "machine")


@dataclass(frozen=True)
class ClusteringSpec:
    """Declarative clustering description: one of the paper's parametric
    strategies, or explicit L1/L2 label vectors for anything else (the
    hierarchical partitioner's output, fuzz shapes, hand-built layouts)."""

    strategy: str = "naive"
    cluster_size: int = 32
    name: str | None = None
    l1: tuple[int, ...] = ()
    l2: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.strategy not in CLUSTERING_STRATEGIES:
            raise ValueError(
                f"unknown clustering strategy {self.strategy!r} "
                f"(expected one of {CLUSTERING_STRATEGIES})"
            )
        object.__setattr__(self, "l1", tuple(int(x) for x in self.l1))
        if self.l2 is not None:
            object.__setattr__(self, "l2", tuple(int(x) for x in self.l2))
        if self.strategy == "labels":
            if not self.l1:
                raise ValueError("labels clustering requires a non-empty l1")
        else:
            if self.l1 or self.l2 is not None:
                raise ValueError(
                    f"label vectors are only valid with strategy='labels', "
                    f"not {self.strategy!r}"
                )
            if self.cluster_size < 1:
                raise ValueError(
                    f"cluster_size must be >= 1, got {self.cluster_size}"
                )

    def build(self, machine: Machine) -> Clustering:
        """Materialize the clustering for ``machine``."""
        n = machine.nranks
        if self.strategy == "naive":
            return naive_clustering(n, self.cluster_size)
        if self.strategy == "size-guided":
            return size_guided_clustering(n, self.cluster_size)
        if self.strategy == "consecutive":
            return consecutive_clustering(n, self.cluster_size, name=self.name)
        if self.strategy == "distributed":
            return distributed_clustering(
                machine.placement, self.cluster_size, name=self.name
            )
        if len(self.l1) != n:
            raise ValueError(
                f"label clustering covers {len(self.l1)} processes, "
                f"machine hosts {n}"
            )
        return Clustering(
            self.name or "labels",
            np.asarray(self.l1, dtype=np.int64),
            None if self.l2 is None else np.asarray(self.l2, dtype=np.int64),
        )

    @staticmethod
    def from_clustering(clustering: Clustering) -> "ClusteringSpec":
        """Describe an existing clustering exactly (as explicit labels)."""
        return ClusteringSpec(
            strategy="labels",
            name=clustering.name,
            l1=tuple(int(x) for x in clustering.l1_labels),
            l2=tuple(int(x) for x in clustering.l2_labels),
        )

    def key(self) -> str:
        """Canonical cache-key fragment. Label vectors are digested so the
        key stays short; the digest is stable across processes (unlike
        ``hash()``, which is salted)."""
        if self.strategy != "labels":
            return f"{self.strategy}:{self.cluster_size}:{self.name or ''}"
        digest = hashlib.sha256(
            np.asarray(self.l1, dtype=np.int64).tobytes()
            + b"|"
            + np.asarray(self.l2 if self.l2 is not None else self.l1,
                         dtype=np.int64).tobytes()
        ).hexdigest()[:16]
        return f"labels:{self.name or ''}:{digest}"

    def to_dict(self) -> dict:
        data: dict = {"strategy": self.strategy}
        if self.strategy == "labels":
            data["l1"] = list(self.l1)
            if self.l2 is not None:
                data["l2"] = list(self.l2)
        else:
            data["cluster_size"] = self.cluster_size
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ClusteringSpec":
        return _dataclass_from_dict(cls, data, "clustering")


# ---------------------------------------------------------------------------
# The query and its result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityQuery:
    """One reliability question, fully specified and picklable.

    ``metric`` selects what is computed:

    * ``"montecarlo"`` — sample ``n_samples`` failures and measure restart
      fraction + catastrophic rate (the batched
      ``montecarlo_scores`` pipeline, bit-identical draws under ``seed``);
    * ``"campaign"`` — one simulated failure campaign
      (:meth:`CampaignSimulator.run` under ``seed``), full cost breakdown;
    * ``"expected_waste"`` — mean waste fraction over ``n_campaigns``
      campaigns drawn serially from one generator (the historical
      ``expected_waste(workers=1)`` path, seed-for-seed identical);
    * ``"survival"`` — deterministic survival curve: for each cascade
      length ``f`` in ``sweep`` (default ``1..max_simultaneous``), the
      fraction of length-``f`` node runs the erasure configuration
      absorbs;
    * ``"waste_curve"`` — ``expected_waste`` swept over the checkpoint
      intervals in ``sweep``; every point draws from a fresh
      ``seed``-derived generator, so points are independent and the curve
      may be computed in chunks (streamed) without changing a bit.
    """

    metric: str
    machine: MachineSpec = MachineSpec()
    clustering: ClusteringSpec = ClusteringSpec()
    encoding: str = "rs"
    taxonomy: FailureTaxonomy = PAPER_TAXONOMY
    campaign: CampaignConfig = CampaignConfig()
    n_samples: int = 2000
    n_campaigns: int = 5
    seed: int = 0
    sweep: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r} (expected one of {METRICS})"
            )
        if self.encoding not in ENCODINGS:
            raise ValueError(
                f"unknown encoding {self.encoding!r} "
                f"(expected one of {tuple(ENCODINGS)})"
            )
        if self.metric in _CAMPAIGN_METRICS and self.encoding != "rs":
            raise ValueError(
                f"metric {self.metric!r} is priced by the campaign "
                "simulator, whose erasure configuration is fixed to "
                "Reed-Solomon; use encoding='rs'"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_campaigns < 1:
            raise ValueError(
                f"n_campaigns must be >= 1, got {self.n_campaigns}"
            )
        object.__setattr__(
            self, "sweep", tuple(float(x) for x in self.sweep)
        )
        for x in self.sweep:
            if not math.isfinite(x) or x <= 0:
                raise ValueError(
                    f"sweep values must be finite and > 0, got {x!r}"
                )
        if self.metric == "waste_curve" and not self.sweep:
            raise ValueError(
                "waste_curve needs a sweep of checkpoint intervals (seconds)"
            )
        if self.metric == "survival":
            for x in self.sweep:
                if x != int(x):
                    raise ValueError(
                        f"survival sweeps over integer cascade lengths, "
                        f"got {x!r}"
                    )

    # -- cache / batch identity ------------------------------------------

    def table_key(self) -> str:
        """Canonical identity of the lookup-table bundle this query needs.

        Stable across processes (no salted ``hash()``) — the service
        routes queries to cache shards by hashing this string.
        """
        tax = self.taxonomy
        return "|".join(
            (
                f"m={self.machine.key()}",
                f"c={self.clustering.key()}",
                f"enc={self.encoding}",
                f"tax={tax.p_soft!r},{tax.p_multi!r},"
                f"{tax.escalation!r},{tax.max_simultaneous}",
            )
        )

    def batch_key(self) -> str | None:
        """Coalescing identity: queries with equal keys may be scored in
        one vectorized pass. Only Monte-Carlo queries coalesce (their
        per-event scoring is element-wise); ``None`` means "run alone"."""
        if self.metric != "montecarlo":
            return None
        return self.table_key()

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict:
        tax, cfg = self.taxonomy, self.campaign
        return {
            "v": QUERY_VERSION,
            "metric": self.metric,
            "machine": self.machine.to_dict(),
            "clustering": self.clustering.to_dict(),
            "encoding": self.encoding,
            "taxonomy": {
                "p_soft": tax.p_soft,
                "p_multi": tax.p_multi,
                "escalation": tax.escalation,
                "max_simultaneous": tax.max_simultaneous,
            },
            "campaign": {
                "horizon_s": cfg.horizon_s,
                "checkpoint_interval_s": cfg.checkpoint_interval_s,
                "pfs_flush_every": cfg.pfs_flush_every,
                "checkpoint_gb_per_node": cfg.checkpoint_gb_per_node,
                "node_mtbf_s": cfg.node_mtbf_s,
            },
            "n_samples": self.n_samples,
            "n_campaigns": self.n_campaigns,
            "seed": self.seed,
            "sweep": list(self.sweep),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ReliabilityQuery":
        if not isinstance(data, dict):
            raise ValueError(
                f"query must be an object, got {type(data).__name__}"
            )
        version = data.get("v")
        if version != QUERY_VERSION:
            raise ValueError(
                f"unsupported query version {version!r} "
                f"(this release speaks v={QUERY_VERSION})"
            )
        allowed = ["v"] + [f.name for f in fields(cls)]
        _check_unknown(data, "query", allowed)
        kwargs: dict = {
            k: data[k]
            for k in ("metric", "encoding", "n_samples", "n_campaigns", "seed")
            if k in data
        }
        if "machine" in data:
            kwargs["machine"] = MachineSpec.from_dict(data["machine"])
        if "clustering" in data:
            kwargs["clustering"] = ClusteringSpec.from_dict(data["clustering"])
        if "taxonomy" in data:
            kwargs["taxonomy"] = _dataclass_from_dict(
                FailureTaxonomy, data["taxonomy"], "taxonomy"
            )
        if "campaign" in data:
            kwargs["campaign"] = _dataclass_from_dict(
                CampaignConfig, data["campaign"], "campaign"
            )
        if "sweep" in data:
            kwargs["sweep"] = tuple(data["sweep"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str | bytes) -> "ReliabilityQuery":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"query is not valid JSON: {err}") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class QueryResult:
    """Answer to one :class:`ReliabilityQuery`: named scalar values plus an
    optional ``(x, y)`` curve, hashable and picklable so equality means
    bit-equality."""

    metric: str
    clustering: str
    values: tuple[tuple[str, float], ...] = ()
    curve: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "values",
            tuple((str(k), float(v)) for k, v in self.values),
        )
        object.__setattr__(
            self,
            "curve",
            tuple((float(x), float(y)) for x, y in self.curve),
        )

    def value(self, name: str) -> float:
        """Look up one named scalar."""
        for key, val in self.values:
            if key == name:
                return val
        raise KeyError(
            f"no value {name!r} in {self.metric} result "
            f"(has {[k for k, _ in self.values]})"
        )

    def to_dict(self) -> dict:
        return {
            "v": QUERY_VERSION,
            "metric": self.metric,
            "clustering": self.clustering,
            "values": [[k, v] for k, v in self.values],
            "curve": [[x, y] for x, y in self.curve],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "QueryResult":
        if not isinstance(data, dict):
            raise ValueError(
                f"result must be an object, got {type(data).__name__}"
            )
        version = data.get("v")
        if version != QUERY_VERSION:
            raise ValueError(
                f"unsupported result version {version!r} "
                f"(this release speaks v={QUERY_VERSION})"
            )
        allowed = ["v"] + [f.name for f in fields(cls)]
        _check_unknown(data, "result", allowed)
        return cls(
            metric=data["metric"],
            clustering=data["clustering"],
            values=tuple((k, v) for k, v in data.get("values", ())),
            curve=tuple((x, y) for x, y in data.get("curve", ())),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "QueryResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"result is not valid JSON: {err}") from None
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Resolution: query → live tables
# ---------------------------------------------------------------------------


@dataclass
class QueryTables:
    """Live objects behind one ``table_key``: the machine, the clustering
    (whose ``_derived`` cache holds the restart/catastrophic lookup
    tables), and the analytic model. Built once per key and shared by
    every query that hashes to it."""

    machine: Machine
    clustering: Clustering
    model: CatastrophicModel

    @property
    def restart(self):
        """Restart-fraction lookup tables (cached on the clustering)."""
        from repro.core.tables import restart_tables

        return restart_tables(self.clustering, self.machine.placement)

    # -- per-event predictions (the fuzzer's oracle) ----------------------

    def predicted_restart_fraction(self, event: FailureEvent) -> float:
        """Fraction of processes the protocol restarts for one event."""
        clustering = self.clustering
        if event.kind == "soft":
            members = clustering.l1_members(clustering.l1_of(event.process))
            return members.size / clustering.n
        from repro.models.recovery_cost import restart_set_for_nodes

        restart = restart_set_for_nodes(
            clustering, self.machine.placement, event.nodes
        )
        return restart.size / clustering.n

    def predicted_catastrophic(self, event: FailureEvent) -> bool:
        """Whether the analytic model calls one event catastrophic."""
        return bool(self.model.event_is_catastrophic(self.clustering, event))

    def nbytes(self) -> int:
        """Bytes held by the derived lookup structures (recomputed on each
        call — the per-``f`` run caches grow as queries touch new cascade
        lengths; the service's byte-budget cache accounts with this)."""

        def _arrays(obj) -> int:
            total = 0
            for value in vars(obj).values():
                if isinstance(value, np.ndarray):
                    total += value.nbytes
                elif isinstance(value, dict):
                    total += sum(
                        v.nbytes
                        for v in value.values()
                        if isinstance(v, np.ndarray)
                    )
            return total

        total = 0
        for entry in self.clustering._derived.values():
            if isinstance(entry, np.ndarray):
                total += entry.nbytes
            elif hasattr(entry, "__dict__"):
                total += _arrays(entry)
        return total


def build_tables(query: ReliabilityQuery) -> QueryTables:
    """Materialize the table bundle for ``query`` (uncached — callers that
    answer more than one query should go through :func:`resolve_query` or
    the service's :class:`~repro.service.cache.TableCache`)."""
    machine = query.machine.build()
    clustering = query.clustering.build(machine)
    if clustering.n != machine.nranks:
        raise ValueError(
            f"clustering covers {clustering.n} processes, machine hosts "
            f"{machine.nranks}"
        )
    model = CatastrophicModel(
        machine.placement,
        taxonomy=query.taxonomy,
        tolerance=ENCODINGS[query.encoding],
    )
    tables = QueryTables(machine=machine, clustering=clustering, model=model)
    # Touch both table sets so the bundle is ready to score (and its
    # nbytes() reflects the real footprint from the first measurement).
    tables.restart
    model._tables(clustering)
    return tables


#: In-process resolve memo (count-bounded; the service layers its own
#: byte-budgeted, sharded cache on top of :func:`build_tables` instead).
_RESOLVE_LIMIT = 32
_resolve_cache: OrderedDict[str, QueryTables] = OrderedDict()
_resolve_lock = Lock()


def resolve_query(query: ReliabilityQuery) -> QueryTables:
    """Memoized :func:`build_tables`, keyed by ``query.table_key()``."""
    key = query.table_key()
    with _resolve_lock:
        tables = _resolve_cache.get(key)
        if tables is not None:
            _resolve_cache.move_to_end(key)
            return tables
    tables = build_tables(query)
    with _resolve_lock:
        _resolve_cache[key] = tables
        while len(_resolve_cache) > _RESOLVE_LIMIT:
            _resolve_cache.popitem(last=False)
    return tables


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _montecarlo_parts(query: ReliabilityQuery, tables: QueryTables):
    """Draw the query's event batch (its own seeded generator — coalescing
    must not perturb any query's stream)."""
    gen = resolve_rng(query.seed)
    sampler = MonteCarloEstimator(tables.model, rng=gen)
    return sampler.sample_events(query.n_samples)


def _run_montecarlo(
    query: ReliabilityQuery, tables: QueryTables
) -> QueryResult:
    return _run_coalesced([query], tables)[0]


def _simulator(query: ReliabilityQuery, tables: QueryTables) -> CampaignSimulator:
    return CampaignSimulator(
        tables.machine, query.campaign, taxonomy=query.taxonomy
    )


def _run_campaign(query: ReliabilityQuery, tables: QueryTables) -> QueryResult:
    result = _simulator(query, tables).run(tables.clustering, rng=query.seed)
    return QueryResult(
        metric="campaign",
        clustering=result.clustering,
        values=(
            ("n_failures", float(result.n_failures)),
            ("n_catastrophic", float(result.n_catastrophic)),
            ("checkpoint_overhead_s", result.checkpoint_overhead_s),
            ("rework_s", result.rework_s),
            ("restore_s", result.restore_s),
            ("catastrophic_penalty_s", result.catastrophic_penalty_s),
            ("total_waste_s", result.total_waste_s),
            ("waste_fraction", result.waste_fraction),
            ("efficiency", result.efficiency),
        ),
    )


def _run_expected_waste(
    query: ReliabilityQuery, tables: QueryTables
) -> QueryResult:
    waste = _simulator(query, tables).expected_waste(
        tables.clustering, n_campaigns=query.n_campaigns, rng=query.seed
    )
    return QueryResult(
        metric="expected_waste",
        clustering=tables.clustering.name,
        values=(
            ("expected_waste", waste),
            ("efficiency", 1.0 - waste),
            ("n_campaigns", float(query.n_campaigns)),
        ),
    )


def _survival_lengths(query: ReliabilityQuery) -> tuple[int, ...]:
    if query.sweep:
        return tuple(int(x) for x in query.sweep)
    return tuple(range(1, query.taxonomy.max_simultaneous + 1))


def _run_survival(query: ReliabilityQuery, tables: QueryTables) -> QueryResult:
    lengths = _survival_lengths(query)
    fractions = tables.model.breaking_run_fractions(
        tables.clustering, list(lengths)
    )
    curve = tuple((float(f), 1.0 - fractions[f]) for f in lengths)
    return QueryResult(
        metric="survival",
        clustering=tables.clustering.name,
        values=(
            ("p_catastrophic", tables.model.probability(tables.clustering)),
        ),
        curve=curve,
    )


def _waste_curve_values(
    curve: tuple[tuple[float, float], ...]
) -> tuple[tuple[str, float], ...]:
    wastes = np.array([y for _, y in curve])
    best = int(np.argmin(wastes))
    return (
        ("best_checkpoint_interval_s", curve[best][0]),
        ("best_waste_fraction", curve[best][1]),
    )


def _run_waste_curve(
    query: ReliabilityQuery, tables: QueryTables
) -> QueryResult:
    curve = tuple(iter_waste_curve(query, tables))
    return QueryResult(
        metric="waste_curve",
        clustering=tables.clustering.name,
        values=_waste_curve_values(curve),
        curve=curve,
    )


def iter_waste_curve(query: ReliabilityQuery, tables: QueryTables):
    """Yield the waste curve point by point. Each point uses a *fresh*
    ``seed``-derived generator, so any chunking of the sweep produces
    bit-identical points — the property the streaming service relies on."""
    clustering = tables.clustering
    for interval in query.sweep:
        cfg = replace(query.campaign, checkpoint_interval_s=interval)
        simulator = CampaignSimulator(
            tables.machine, cfg, taxonomy=query.taxonomy
        )
        waste = simulator.expected_waste(
            clustering, n_campaigns=query.n_campaigns, rng=query.seed
        )
        yield (float(interval), waste)


_RUNNERS = {
    "montecarlo": _run_montecarlo,
    "campaign": _run_campaign,
    "expected_waste": _run_expected_waste,
    "survival": _run_survival,
    "waste_curve": _run_waste_curve,
}


def run_query(
    query: ReliabilityQuery, *, tables: QueryTables | None = None
) -> QueryResult:
    """Answer one query. ``tables`` short-circuits resolution when the
    caller already holds the bundle (the service's cache does)."""
    if tables is None:
        tables = resolve_query(query)
    return _RUNNERS[query.metric](query, tables)


def assemble_streamed(
    query: ReliabilityQuery, parts: list[QueryResult]
) -> QueryResult:
    """Reassemble chunked curve results into exactly what an unchunked
    :func:`run_query` would have returned."""
    if query.metric not in STREAMABLE_METRICS:
        raise ValueError(f"metric {query.metric!r} does not stream")
    curve = tuple(point for part in parts for point in part.curve)
    if query.metric == "waste_curve":
        values = _waste_curve_values(curve)
    else:
        values = parts[0].values
    return QueryResult(
        metric=query.metric,
        clustering=parts[0].clustering,
        values=values,
        curve=curve,
    )


# ---------------------------------------------------------------------------
# Batched execution with Monte-Carlo coalescing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchStats:
    """What one :func:`run_query_batch` call did."""

    queries: int = 0
    scoring_passes: int = 0
    coalesced: int = 0  # queries that shared a vectorized pass with others


def _concat_batches(batches):
    from repro.failures.events import EventBatch

    return EventBatch(
        is_soft=np.concatenate([b.is_soft for b in batches]),
        process=np.concatenate([b.process for b in batches]),
        run_start=np.concatenate([b.run_start for b in batches]),
        run_length=np.concatenate([b.run_length for b in batches]),
    )


def _run_coalesced(queries, tables: QueryTables) -> list[QueryResult]:
    """Score same-table Monte-Carlo queries in one vectorized pass (a
    lone query is a batch of one). Each query draws its own event batch
    from its own seed; the concatenated scoring is element-wise, so
    splitting the outputs back per query is bit-identical to running each
    alone."""
    batches = [_montecarlo_parts(q, tables) for q in queries]
    merged = _concat_batches(batches)
    fractions = tables.restart.batch_restart_fractions(merged)
    catastrophic = tables.model.events_are_catastrophic(
        tables.clustering, merged
    )
    results = []
    offset = 0
    for batch in batches:
        n = batch.n
        view = slice(offset, offset + n)
        offset += n
        results.append(
            QueryResult(
                metric="montecarlo",
                clustering=tables.clustering.name,
                values=(
                    ("n_samples", float(n)),
                    ("restart_fraction_mean", float(fractions[view].mean())),
                    (
                        "restart_fraction_p95",
                        float(np.quantile(fractions[view], 0.95)),
                    ),
                    ("catastrophic_rate", int(catastrophic[view].sum()) / n),
                    ("soft_error_share", int(batch.is_soft.sum()) / n),
                ),
            )
        )
    return results


def run_query_batch(
    queries,
    *,
    resolver=None,
    return_exceptions: bool = False,
) -> tuple[list, BatchStats]:
    """Answer many queries, coalescing Monte-Carlo queries that share a
    table bundle into one scoring pass each.

    Returns ``(results, stats)`` with results in input order. With
    ``return_exceptions`` a failing query yields its exception object in
    place of a result (the service maps these to per-request errors);
    otherwise the first failure raises.
    """
    resolver = resolver or resolve_query
    queries = list(queries)
    results: list = [None] * len(queries)
    groups: dict[str, list[int]] = {}
    passes = 0
    coalesced = 0
    for i, query in enumerate(queries):
        key = query.batch_key()
        if key is None:
            passes += 1
            try:
                results[i] = run_query(query, tables=resolver(query))
            except Exception as err:  # noqa: BLE001 — per-query isolation
                if not return_exceptions:
                    raise
                results[i] = err
        else:
            groups.setdefault(key, []).append(i)
    for indices in groups.values():
        group = [queries[i] for i in indices]
        passes += 1
        if len(group) > 1:
            coalesced += len(group)
        try:
            group_results = _run_coalesced(group, resolver(group[0]))
        except Exception as err:  # noqa: BLE001 — per-query isolation
            if not return_exceptions:
                raise
            group_results = [err] * len(group)
        for i, result in zip(indices, group_results):
            results[i] = result
    return results, BatchStats(
        queries=len(queries), scoring_passes=passes, coalesced=coalesced
    )


# ---------------------------------------------------------------------------
# Conversion from the object-based API
# ---------------------------------------------------------------------------


def query_for(
    subject,
    clustering: Clustering,
    *,
    metric: str = "montecarlo",
    tolerance=None,
    encoding: str | None = None,
    **kwargs,
) -> ReliabilityQuery:
    """Build a query from live objects: a :class:`Scenario` or
    :class:`Machine` plus a :class:`Clustering`.

    ``tolerance`` accepts the analytic model's callables
    (``rs_half_tolerance``/``xor_tolerance``) and maps them to the wire
    encoding name; remaining ``kwargs`` go to :class:`ReliabilityQuery`.
    """
    if tolerance is not None and encoding is not None:
        raise TypeError("pass either tolerance or encoding, not both")
    if tolerance is not None:
        encoding = _ENCODING_OF_TOLERANCE.get(tolerance)
        if encoding is None:
            raise ValueError(
                "tolerance callable has no wire encoding name; known: "
                f"{sorted(_ENCODING_OF_TOLERANCE.values())}"
            )
    machine = getattr(subject, "machine", subject)
    taxonomy = getattr(subject, "taxonomy", kwargs.pop("taxonomy", PAPER_TAXONOMY))
    return ReliabilityQuery(
        metric=metric,
        machine=MachineSpec.from_machine(machine),
        clustering=ClusteringSpec.from_clustering(clustering),
        encoding=encoding or "rs",
        taxonomy=taxonomy,
        **kwargs,
    )
