"""The query-serving façade: pay for privacy once, answer forever.

:class:`DistanceService` is the paper's Section 1.1 navigation
provider as a component: it holds the public topology plus the current
epoch's private weights, picks the strongest release mechanism the
graph admits from the :mod:`repro.mechanisms` registry, builds one
synopsis per epoch under a ledgered budget, and then serves unlimited
point and batch distance queries from that synopsis — pure
post-processing, zero further privacy cost.

Mechanism choice is the registry's predicted-noise-scale contest
(:func:`repro.mechanisms.auto_select_mechanism`), which mirrors the
paper's structure:

* tree topology → Algorithm 1 + Theorem 4.2 (error ``O(log^1.5 V)``),
* declared weight bound ``M`` → Algorithm 2's covering release
  (error ``O~(sqrt(V M))`` approx / ``O((VM)^{2/3})`` pure), upgraded
  to the hub-over-covering release at road-network scale,
* otherwise → a contest between the Section 4 intro all-pairs baseline
  (basic composition for pure budgets, advanced when ``delta > 0``)
  and the improved hub-set release of :mod:`repro.apsp`, which wins
  once ``V`` is large enough for its ``~V^{3/2}``-entry accounting to
  beat the baseline's ``V^2``.

Beyond bare ``query()`` floats, the :meth:`DistanceService.estimate`
path returns :class:`~repro.serving.estimates.Estimate` objects
carrying the answer's effective noise scale and a Laplace-CDF
confidence interval; ``query()`` returns exactly
``estimate().value``, so the rich path costs nothing in
reproducibility.

Epoch rotation (:meth:`DistanceService.refresh`) swaps in a fresh
weight function — a new private database — rotates the ledger, clears
the answer cache, and rebuilds the synopsis.
"""

from __future__ import annotations

import time
from typing import Dict, List, MutableMapping, Sequence, Tuple

from ..dp.params import PrivacyParams
from ..exceptions import PrivacyError
from ..graphs.graph import Vertex, WeightedGraph
from ..mechanisms import (
    HUB_BOUNDED_MIN_VERTICES,
    HUB_MIN_VERTICES,
    HUB_SELECTION_MARGIN,
    MechanismParams,
    auto_select_mechanism,
    get_mechanism,
)
from ..rng import Rng
from ..telemetry import Telemetry, get_telemetry, use_telemetry
from ..telemetry.registry import Counter
from .batching import BatchPlanner, BatchReport, BoundedCache
from .estimates import Estimate
from .ledger import BudgetLedger
from .synopsis import DistanceSynopsis, canonical_pair

__all__ = [
    "DistanceService",
    "ServiceStats",
    "HUB_MIN_VERTICES",
    "HUB_SELECTION_MARGIN",
    "HUB_BOUNDED_MIN_VERTICES",
]


class ServiceStats:
    """Running counters for one service instance.

    Every service keeps one, sharded or not (a
    :class:`~repro.serving.sharding.ShardedDistanceService` counts its
    routed queries here, and each shard tenant keeps its own), so
    consumers never special-case sharded services.

    The counters are single-sourced in the service's telemetry
    registry (``serving.stats.*`` with ``tenant``/``instance``
    labels); this class is the compatibility *view* over them — the
    attribute names, :attr:`num_queries`, and :meth:`as_dict` are
    byte-for-byte what the pre-telemetry dataclass exposed.  With
    telemetry disabled the counters are private unregistered
    instruments, so counting (and ``as_dict``) works identically
    either way.
    """

    _FIELDS = (
        "point_queries",
        "batch_queries",
        "batches",
        "cache_hits",
        "epochs_built",
        "shard_refreshes",
    )

    __slots__ = ("_counters", "_cache_misses")

    def __init__(
        self,
        telemetry: Telemetry | None = None,
        tenant: str = "service",
    ) -> None:
        registry = telemetry.registry if telemetry is not None else None
        if registry is None or not registry.enabled:
            self._counters = {
                name: Counter(f"serving.stats.{name}")
                for name in self._FIELDS
            }
            self._cache_misses = Counter("serving.stats.cache_misses")
        else:
            labels = registry.instance_labels(tenant=tenant)
            self._counters = {
                name: registry.counter(
                    f"serving.stats.{name}", **labels
                )
                for name in self._FIELDS
            }
            self._cache_misses = registry.counter(
                "serving.stats.cache_misses", **labels
            )

    # -- the compatibility read surface --------------------------------

    @property
    def point_queries(self) -> int:
        """Point queries served."""
        return self._counters["point_queries"].value

    @property
    def batch_queries(self) -> int:
        """Queries served through batches."""
        return self._counters["batch_queries"].value

    @property
    def batches(self) -> int:
        """Batches served."""
        return self._counters["batches"].value

    @property
    def cache_hits(self) -> int:
        """Queries answered from the answer cache."""
        return self._counters["cache_hits"].value

    @property
    def epochs_built(self) -> int:
        """Full synopsis builds (construction + refreshes)."""
        return self._counters["epochs_built"].value

    @property
    def shard_refreshes(self) -> int:
        """Regional rebuilds (sharded serving only; full epoch
        rebuilds count under :attr:`epochs_built`)."""
        return self._counters["shard_refreshes"].value

    @property
    def num_queries(self) -> int:
        """Total queries served (point + batch) — the headline
        counter."""
        return self.point_queries + self.batch_queries

    def as_dict(self) -> Dict[str, int]:
        """A JSON-safe snapshot with the shared counter names."""
        return {
            "num_queries": self.num_queries,
            "point_queries": self.point_queries,
            "batch_queries": self.batch_queries,
            "batches": self.batches,
            "cache_hits": self.cache_hits,
            "epochs_built": self.epochs_built,
            "shard_refreshes": self.shard_refreshes,
        }

    # -- the recording surface (services only) -------------------------

    def record_point_query(self, cache_hit: bool) -> None:
        """One point query; hit/miss routed to the right counters.

        Misses land in a registry-only ``serving.stats.cache_misses``
        counter — not part of :meth:`as_dict`, which predates it.
        """
        self._counters["point_queries"].inc()
        if cache_hit:
            self._counters["cache_hits"].inc()
        else:
            self._cache_misses.inc()

    def record_batch(self, report: "BatchReport") -> None:
        """One served batch's counter deltas."""
        self._counters["batches"].inc()
        self._counters["batch_queries"].inc(report.num_queries)
        self._counters["cache_hits"].inc(report.cache_hits)
        # Distinct pairs that had to hit the synopsis (in-batch
        # duplicates are neither hits nor misses).
        self._cache_misses.inc(report.num_unique - report.cache_hits)

    def record_epoch_built(self) -> None:
        """One full synopsis build."""
        self._counters["epochs_built"].inc()

    def record_shard_refresh(self) -> None:
        """One regional rebuild."""
        self._counters["shard_refreshes"].inc()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v}" for k, v in self.as_dict().items()
        )
        return f"ServiceStats({inner})"


class DistanceService:
    """A private distance query-serving engine.

    Parameters
    ----------
    graph:
        Public topology + the current epoch's private weights.
    epoch_budget:
        The ``(eps, delta)`` guarantee promised per epoch (a bare
        float is taken as pure eps).  The whole budget is spent on one
        synopsis per epoch.
    rng:
        Noise source for the releases.
    weight_bound:
        Public bound ``M`` on edge weights, if the provider has one
        (e.g. capped travel times); enables the Section 4.2 mechanism
        on non-tree graphs.
    mechanism:
        Force a registered mechanism by name (see
        :func:`repro.mechanisms.available_mechanisms`; only standalone
        mechanisms qualify) instead of auto-selecting.
    ledger:
        Share a :class:`~repro.serving.ledger.BudgetLedger` with other
        products; defaults to a private ledger with ``epoch_budget``
        per epoch.  The synopsis is only built after the ledger accepts
        the spend, so an over-budget service fails closed at
        construction.
    tenant:
        The ledger tenant name this service spends under.
    backend:
        The :mod:`repro.engine` backend for the exact-recomputation
        half of the paper's releases (``"python"``, ``"numpy"``, or
        ``None``/``"auto"`` for the size heuristic).  The hub
        mechanisms of :mod:`repro.apsp` are engine-native — built
        directly on the CSR multi-source kernels — so they do not
        consult this knob.
    cache_size:
        Bound the cross-batch answer cache to this many pairs (LRU
        eviction); ``None`` (the default) keeps every answered pair.
        Purely a memory knob: evicted answers are recomputed
        identically from the immutable synopsis.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` bundle the service
        records into (query/batch latency histograms, the
        ``serving.stats.*`` counters, build spans, budget gauges).
        ``None`` (the default) captures the process's current bundle
        (:func:`~repro.telemetry.get_telemetry`); pass
        :data:`~repro.telemetry.NULL_TELEMETRY` to disable.
        Instrumentation never touches the rng — answers are
        bit-identical whatever bundle is in force.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        epoch_budget: PrivacyParams | float,
        rng: Rng,
        weight_bound: float | None = None,
        mechanism: str | None = None,
        ledger: BudgetLedger | None = None,
        tenant: str = "distance-service",
        backend: str | None = None,
        cache_size: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if isinstance(epoch_budget, (int, float)):
            epoch_budget = PrivacyParams(float(epoch_budget))
        self._budget = epoch_budget
        self._rng = rng
        self._weight_bound = weight_bound
        self._forced_mechanism = mechanism
        if mechanism is not None:
            # Raises MechanismError (a PrivacyError) on unknown names.
            if not get_mechanism(mechanism).standalone:
                raise PrivacyError(
                    f"mechanism {mechanism!r} needs extra inputs (an "
                    "explicit workload or site subset) and cannot back "
                    "a standalone service"
                )
        self._owns_ledger = ledger is None
        self._ledger = ledger if ledger is not None else BudgetLedger(
            epoch_budget
        )
        self._tenant = tenant
        self._backend = backend
        self._telemetry = (
            telemetry if telemetry is not None else get_telemetry()
        )
        # Per-query spans and flight-recorder checks only run when
        # someone is actually watching; the default point-query path
        # stays the two-clock-read fast path.
        self._observed = (
            self._telemetry.flight.enabled
            or self._telemetry.profiler.enabled
        )
        self._stats = ServiceStats(
            telemetry=self._telemetry, tenant=tenant
        )
        self._cache: MutableMapping[Tuple[Vertex, Vertex], float] = (
            {} if cache_size is None else BoundedCache(cache_size)
        )
        self._graph = graph
        self._mechanism = ""
        self._synopsis: DistanceSynopsis | None = None
        self._build_synopsis()
        self._telemetry.log.emit(
            "service.start",
            tenant=self._tenant,
            epoch=self._ledger.epoch,
            mechanism=self._mechanism,
            backend=self._backend,
            shards=self.num_shards,
        )

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def _build_synopsis(self) -> None:
        # Scope the service's bundle over the build so the layers it
        # does not call directly — the ledger spend, the mechanism
        # contest, a hub build inside mech.build — record here too.
        start = time.perf_counter()
        with use_telemetry(self._telemetry), self._telemetry.span(
            "synopsis.build", tenant=self._tenant
        ) as span:
            name = self._forced_mechanism or auto_select_mechanism(
                self._graph, self._budget, self._weight_bound
            )
            span.set_attribute("mechanism", name)
            mech = get_mechanism(name)
            params = MechanismParams(
                budget=self._budget, weight_bound=self._weight_bound
            )
            # Validate mechanism preconditions before touching the ledger,
            # so a config or precondition error never burns epoch budget.
            # The checks are public (topology, connectivity, the declared
            # bound's pre-noise precondition).
            mech.validate(self._graph, params)
            # Spend first, release second: if the ledger refuses, no noise
            # is ever drawn and nothing about the weights leaks.
            self._ledger.spend(
                self._budget,
                tenant=self._tenant,
                label=f"epoch {self._ledger.epoch} {name} synopsis",
            )
            self._synopsis = mech.build(
                self._graph, params, self._rng, backend=self._backend
            )
            self._telemetry.audit.record(
                "synopsis.build",
                epoch=self._ledger.epoch,
                tenant=self._tenant,
                mechanism=name,
                forced=self._forced_mechanism is not None,
            )
            self._telemetry.log.emit(
                "synopsis.build",
                tenant=self._tenant,
                epoch=self._ledger.epoch,
                mechanism=name,
            )
        self._mechanism = name
        self._telemetry.registry.histogram(
            "build.latency", phase="synopsis", mechanism=name
        ).observe(time.perf_counter() - start)
        self._stats.record_epoch_built()
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Re-resolve the hot-path latency histograms.

        Called after every build so the ``mechanism`` label tracks the
        current epoch's selection without a registry lookup per query.
        """
        registry = self._telemetry.registry
        self._query_latency = registry.histogram(
            "serving.query.latency",
            service="distance",
            mechanism=self._mechanism,
        )
        self._batch_latency = registry.histogram(
            "serving.batch.latency",
            service="distance",
            mechanism=self._mechanism,
        )

    def refresh(self, graph: WeightedGraph | None = None) -> None:
        """Start a new epoch: swap in fresh weights (same public
        topology unless a new graph is given), clear the answer cache,
        and rebuild the synopsis.

        A privately owned ledger is rotated — the new weights are a
        new database, so the budget resets.  A *shared* ledger is NOT
        rotated: other tenants may still be serving releases of the
        current epoch's data, and rotating under them would let their
        budgets reset against an unchanged database.  With a shared
        ledger the rebuild spends from the remaining epoch budget
        (failing closed if exhausted); the ledger's owner decides when
        the epoch actually turns via
        :meth:`~repro.serving.ledger.BudgetLedger.rotate`.
        """
        with use_telemetry(self._telemetry), self._telemetry.span(
            "epoch.refresh", tenant=self._tenant
        ):
            if self._owns_ledger:
                self._ledger.rotate()
            if graph is not None:
                self._graph = graph
            self._cache.clear()
            # Drop the old synopsis first: if the rebuild fails partway,
            # the service must refuse to serve rather than silently answer
            # the new epoch from the previous epoch's release.
            self._synopsis = None
            self._build_synopsis()
            self._telemetry.audit.record(
                "epoch.refresh",
                epoch=self._ledger.epoch,
                tenant=self._tenant,
                mechanism=self._mechanism,
                rotated=self._owns_ledger,
            )
            self._telemetry.log.emit(
                "epoch.refresh",
                tenant=self._tenant,
                epoch=self._ledger.epoch,
                mechanism=self._mechanism,
                rotated=self._owns_ledger,
            )

    # ------------------------------------------------------------------
    # Query serving (post-processing only)
    # ------------------------------------------------------------------

    def _require_synopsis(self) -> DistanceSynopsis:
        if self._synopsis is None:
            raise PrivacyError(
                "no synopsis for the current epoch (the last refresh "
                "failed); call refresh() again before querying"
            )
        return self._synopsis

    def query(self, source: Vertex, target: Vertex) -> float:
        """Answer one distance query from the epoch synopsis."""
        synopsis = self._require_synopsis()
        if self._observed:
            return self._query_observed(synopsis, source, target)
        start = time.perf_counter()
        key = canonical_pair(source, target)
        hit = key in self._cache
        if hit:
            value = self._cache[key]
        else:
            value = synopsis.distance(source, target)
            self._cache[key] = value
        self._query_latency.observe(time.perf_counter() - start)
        self._stats.record_point_query(hit)
        return value

    def _query_observed(
        self, synopsis: DistanceSynopsis, source: Vertex, target: Vertex
    ) -> float:
        """The point-query path when a profiler or flight recorder is
        live: same lookups in the same order (answers bit-identical),
        wrapped in a ``query.point`` span and offered to the flight
        recorder afterwards."""
        start = time.perf_counter()
        with self._telemetry.span(
            "query.point",
            tenant=self._tenant,
            mechanism=self._mechanism,
        ) as span:
            key = canonical_pair(source, target)
            hit = key in self._cache
            if hit:
                value = self._cache[key]
            else:
                value = synopsis.distance(source, target)
                self._cache[key] = value
            span.set_attribute("cache_hit", hit)
        elapsed = time.perf_counter() - start
        self._query_latency.observe(elapsed)
        self._stats.record_point_query(hit)
        self._telemetry.flight.consider(
            elapsed,
            pair=(source, target),
            route=synopsis.route(source, target),
            mechanism=self._mechanism,
            epoch=self._ledger.epoch,
            tenant=self._tenant,
            span=span,
            cache_hit=hit,
        )
        return value

    def query_batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]]
    ) -> BatchReport:
        """Answer a batch of queries; see
        :class:`~repro.serving.batching.BatchPlanner`."""
        planner = BatchPlanner(
            self._require_synopsis(),
            cache=self._cache,
            telemetry=self._telemetry,
            labels={"service": "distance", "mechanism": self._mechanism},
        )
        report = planner.run(pairs)
        self._batch_latency.observe(report.elapsed_seconds)
        self._stats.record_batch(report)
        return report

    def estimate(self, source: Vertex, target: Vertex) -> Estimate:
        """One distance query as a rich
        :class:`~repro.serving.estimates.Estimate` — the ``query()``
        value (bit-identical, shared cache and counters) plus the
        answer's effective noise scale, mechanism, and epoch."""
        value = self.query(source, target)
        return Estimate(
            value=value,
            noise_scale=self._require_synopsis().noise_scale_for(
                source, target
            ),
            mechanism=self._mechanism,
            epoch=self._ledger.epoch,
        )

    def estimate_batch(  # privlint: ignore[PL1] serves values post-processed from the budget-accounted noised synopsis
        self, pairs: Sequence[Tuple[Vertex, Vertex]]
    ) -> List[Estimate]:
        """A batch of rich estimates, aligned with the input order.

        Values come from :meth:`query_batch` (same dedupe, cache, and
        counters); scales are free post-processing of the synopsis's
        released-table structure.
        """
        report = self.query_batch(pairs)
        synopsis = self._require_synopsis()
        mechanism, epoch = self._mechanism, self._ledger.epoch
        return [
            Estimate(
                value=value,
                noise_scale=synopsis.noise_scale_for(s, t),
                mechanism=mechanism,
                epoch=epoch,
            )
            for (s, t), value in zip(pairs, report.answers)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def mechanism(self) -> str:
        """The mechanism backing the current synopsis."""
        return self._mechanism

    @property
    def num_shards(self) -> int:
        """How many shard tenants serve (1 unless sharded)."""
        return 1

    @property
    def backend(self) -> str | None:
        """The engine backend spec the service builds releases with
        (``None`` means auto-selection)."""
        return self._backend

    @property
    def synopsis(self) -> DistanceSynopsis:
        """The current epoch's synopsis (immutable; shippable)."""
        return self._require_synopsis()

    @property
    def ledger(self) -> BudgetLedger:
        """The budget ledger this service spends against."""
        return self._ledger

    @property
    def epoch(self) -> int:
        """The ledger epoch currently being served."""
        return self._ledger.epoch

    @property
    def epoch_budget(self) -> PrivacyParams:
        """The per-epoch privacy budget."""
        return self._budget

    @property
    def stats(self) -> ServiceStats:
        """Running serving counters."""
        return self._stats

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry bundle this service records into."""
        return self._telemetry

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(mechanism={self._mechanism!r}, "
            f"budget={self._budget}, epoch={self._ledger.epoch}, "
            f"queries={self._stats.num_queries})"
        )
