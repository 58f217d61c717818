"""Sharded distance serving: regional tenants + boundary-hub relays.

A city-scale road network should not pay one monolithic synopsis
rebuild per epoch when congestion updates are regional.  This module
splits the public topology into ``k`` balanced, connected *shards*
(seeded BFS region growing — :func:`partition_graph`), runs one
CSR + synopsis + ledger tenant per shard, and stitches cross-shard
queries back together through a noisy hub structure built over the
*boundary* vertices (the endpoints of cut edges) with
:func:`repro.apsp.hubs.build_hub_structure`:

* an **intra-shard** query is routed to the owning shard's synopsis —
  the unsharded serving path on a ``V/k``-vertex graph — then capped
  by the relay decomposition below through the shard's *own* boundary,
  so a border pair whose best corridor dips into a neighboring shard
  is not stuck with the induced-subgraph detour (the min is pure
  post-processing, zero extra budget);
* a **cross-shard** query ``(s, t)`` is answered as the min over
  boundary exits ``b_s`` of ``shard(s)`` and entries ``b_t`` of
  ``shard(t)`` of ``d_s(s, b_s) + relay(b_s, b_t) + d_t(b_t, t)``,
  where the first and last terms come from the shard synopses (free
  post-processing) and the middle from the released boundary-hub
  relay table.  A true cross-shard shortest path stays inside
  ``shard(s)`` until it first leaves through some boundary vertex and
  inside ``shard(t)`` after it last enters, so in the noiseless limit
  the decomposition is consistent (up to the hub-relay detour).

Privacy accounting.  Every Laplace release in this library has privacy
loss proportional to the L1 perturbation of the edge weights it reads,
so releases over *disjoint* edge sets compose like parallel
composition: a neighboring weight function (total L1 change ``<= 1``
across all edges, Definition 2.1) splits its perturbation across the
shards, and the joint loss of the per-shard releases — each reading
only its shard's intra-shard edges — is at most ``max_i eps_i``.  The
relay table reads *all* edges (boundary-to-boundary distances traverse
the whole graph), so its budget adds.  One full build therefore costs
``eps_shard + eps_relay`` — the epoch budget — which
:class:`ShardedDistanceService` realizes by giving every shard tenant
``(1 - relay_fraction)`` of the epoch budget and the relay tenant the
remaining ``relay_fraction``, each spending under its own fail-closed
ledger tenant.  Regional refreshes *re-spend* within the epoch (the
other shards are still serving it), and the ledger caps every tenant
at the full per-tenant epoch budget — the standard multi-tenant
contract of :class:`~repro.serving.ledger.BudgetLedger` — so with the
default private ledger the worst-case per-epoch loss on any one
edge's weight once regional refreshes occur is ``(shard tenant cap) +
(relay tenant cap)``, i.e. 2x the epoch budget; size the epoch
budget, the relay fraction, or a stricter shared ledger accordingly.
The relay noise itself is priced by the shared
:func:`~repro.dp.composition.composed_noise_scale` accounting over the
distinct boundary pairs the hub structure releases.

With one shard there is no cut, no relay and no split: the single
tenant receives the full epoch budget and consumes the rng exactly
like the unsharded :class:`~repro.serving.service.DistanceService`, so
``ShardedDistanceService(shards=1)`` answers match it bit for bit
under the same seed.

Per-shard refresh (:meth:`ShardedDistanceService.refresh_shard`)
exploits the engine's cheap re-weighting: a regional congestion update
re-gathers the shard subgraph's weight array over the frozen CSR
structure, rebuilds only that shard's synopsis plus the relay table,
and leaves the other ``k - 1`` tenants serving untouched.

A sharded deployment is a different *synopsis*, not a different
service: the routing above lives in :class:`ShardedSynopsis` (the
shard synopses plus the relay), and :class:`ShardedDistanceService`
is a :class:`~repro.serving.service.DistanceService` that only
overrides how an epoch's synopsis is built.  Queries, batches,
estimates, the answer cache and telemetry are the one
:class:`~repro.serving.service.DistanceService` path.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..algorithms.traversal import is_connected
from ..apsp.hubs import HubStructure
from ..dp.params import PrivacyParams
from ..engine.csr import CSRGraph
from ..exceptions import (
    DisconnectedGraphError,
    GraphError,
    PrivacyError,
    VertexNotFoundError,
)
from ..formats import read_document
from ..graphs.graph import Edge, Vertex, WeightedGraph
from ..graphs.io import _decode_vertex, _encode_vertex
from ..mechanisms import MechanismParams, get_mechanism
from ..rng import Rng
from ..telemetry import Telemetry, use_telemetry
from .ledger import BudgetLedger
from .service import DistanceService
from .synopsis import DistanceSynopsis

__all__ = [
    "ShardPlan",
    "ShardedDistanceService",
    "ShardedSynopsis",
    "partition_graph",
    "DEFAULT_RELAY_FRACTION",
]

#: Fraction of the epoch budget spent on the boundary-hub relay table
#: when the plan has two or more shards; the rest goes to every shard
#: tenant (parallel composition over disjoint intra-shard edge sets).
DEFAULT_RELAY_FRACTION = 0.5

_PLAN_FORMAT = "repro-shard-plan"
_PLAN_VERSION = 1


class ShardPlan:
    """A topology-only sharding of a graph's vertex set.

    Everything here — the assignment, the boundary, the cut edges — is
    derived from the public topology by a seeded partitioner, so the
    plan itself is data-independent and safe to publish or ship.

    Parameters
    ----------
    num_shards:
        How many shards the assignment uses (ids ``0..num_shards-1``).
    assignment:
        Vertex -> shard id, covering every vertex; each shard must be
        non-empty.
    boundary:
        The boundary vertices — endpoints of cut edges — in a stable
        order (this order is the relay structure's *site* order).
    cut_edges:
        The edges whose endpoints live in different shards.
    seed:
        The partitioner seed that produced the plan (provenance only).
    """

    def __init__(
        self,
        num_shards: int,
        assignment: Mapping[Vertex, int],
        boundary: Sequence[Vertex],
        cut_edges: Sequence[Edge],
        seed: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise GraphError(f"need at least 1 shard, got {num_shards}")
        self._num_shards = int(num_shards)
        self._assignment: Dict[Vertex, int] = dict(assignment)
        members: List[List[Vertex]] = [[] for _ in range(self._num_shards)]
        for vertex, shard in self._assignment.items():
            if not 0 <= shard < self._num_shards:
                raise GraphError(
                    f"vertex {vertex!r} assigned to shard {shard}, "
                    f"expected [0, {self._num_shards})"
                )
            members[shard].append(vertex)
        for shard, shard_members in enumerate(members):
            if not shard_members:
                raise GraphError(f"shard {shard} has no vertices")
        self._members = [tuple(m) for m in members]
        self._boundary = tuple(boundary)
        self._boundary_set = frozenset(self._boundary)
        for vertex in self._boundary:
            if vertex not in self._assignment:
                raise GraphError(
                    f"boundary vertex {vertex!r} is not assigned a shard"
                )
        self._cut_edges = tuple((u, v) for u, v in cut_edges)
        self.seed = seed

    @classmethod
    def from_assignment(
        cls,
        graph: WeightedGraph,
        assignment: Mapping[Vertex, int],
        num_shards: int | None = None,
        seed: int | None = None,
    ) -> "ShardPlan":
        """Build a plan from an explicit assignment, deriving the
        boundary and cut edges from the graph's topology."""
        for vertex in graph.vertices():
            if vertex not in assignment:
                raise GraphError(
                    f"assignment misses vertex {vertex!r}"
                )
        if num_shards is None:
            num_shards = max(assignment.values()) + 1 if assignment else 1
        boundary_set = set()
        boundary: List[Vertex] = []
        cut_edges: List[Edge] = []
        for u, v, _ in graph.edges():
            if assignment[u] != assignment[v]:
                cut_edges.append((u, v))
                for endpoint in (u, v):
                    if endpoint not in boundary_set:
                        boundary_set.add(endpoint)
                        boundary.append(endpoint)
        # A stable, topology-derived site order: vertex insertion order.
        order = {vert: i for i, vert in enumerate(graph.vertices())}
        boundary.sort(key=lambda vert: order[vert])
        return cls(num_shards, assignment, boundary, cut_edges, seed=seed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """How many shards the plan defines."""
        return self._num_shards

    @property
    def boundary(self) -> Tuple[Vertex, ...]:
        """Boundary vertices in relay site order."""
        return self._boundary

    @property
    def cut_edges(self) -> Tuple[Edge, ...]:
        """Edges whose endpoints live in different shards."""
        return self._cut_edges

    @property
    def num_vertices(self) -> int:
        """How many vertices the plan assigns."""
        return len(self._assignment)

    def shard_of(self, vertex: Vertex) -> int:
        """The shard owning a vertex."""
        try:
            return self._assignment[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def members(self, shard: int) -> Tuple[Vertex, ...]:
        """The vertices of one shard, in graph insertion order."""
        if not 0 <= shard < self._num_shards:
            raise GraphError(
                f"shard id {shard} out of range [0, {self._num_shards})"
            )
        return self._members[shard]

    def shard_sizes(self) -> List[int]:
        """Vertex count per shard."""
        return [len(m) for m in self._members]

    def is_boundary(self, vertex: Vertex) -> bool:
        """Whether a vertex is an endpoint of a cut edge."""
        return vertex in self._boundary_set

    def assignment(self) -> Dict[Vertex, int]:
        """The full vertex -> shard mapping (a copy)."""
        return dict(self._assignment)

    # ------------------------------------------------------------------
    # Serialization (the plan is public topology — safe to ship)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the plan (all fields are public topology)."""
        return json.dumps(
            {
                "format": _PLAN_FORMAT,
                "version": _PLAN_VERSION,
                "num_shards": self._num_shards,
                "seed": self.seed,
                "assignment": [
                    [_encode_vertex(v), shard]
                    for v, shard in self._assignment.items()
                ],
                "boundary": [_encode_vertex(v) for v in self._boundary],
                "cut_edges": [
                    [_encode_vertex(u), _encode_vertex(v)]
                    for u, v in self._cut_edges
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ShardPlan":
        """Restore a plan serialized by :meth:`to_json`."""
        document = read_document(
            text, _PLAN_FORMAT, _PLAN_VERSION, GraphError, "shard plan",
            {"num_shards": int, "assignment": list, "boundary": list,
             "cut_edges": list},
        )
        return cls(
            int(document["num_shards"]),
            {
                _decode_vertex(v): int(shard)
                for v, shard in document["assignment"]
            },
            [_decode_vertex(v) for v in document["boundary"]],
            [
                (_decode_vertex(u), _decode_vertex(v))
                for u, v in document["cut_edges"]
            ],
            seed=document.get("seed"),
        )

    def __repr__(self) -> str:
        return (
            f"ShardPlan(shards={self._num_shards}, "
            f"sizes={self.shard_sizes()}, "
            f"boundary={len(self._boundary)}, "
            f"cut_edges={len(self._cut_edges)})"
        )


def partition_graph(
    graph: WeightedGraph, shards: int, seed: int = 0
) -> ShardPlan:
    """Partition a connected graph into balanced, connected shards.

    Seeded BFS region growing: ``shards`` seed vertices are sampled
    uniformly (from ``Rng(seed)`` — never from a service rng, so the
    partition depends only on the public topology and the seed), then
    regions grow one vertex at a time, always the currently smallest
    region that still has an unassigned frontier vertex.  Each region
    grows only through adjacent vertices, so every shard induces a
    connected subgraph; the smallest-first rule keeps the sizes within
    a vertex of balanced wherever the topology allows.
    """
    if shards < 1:
        raise GraphError(f"need at least 1 shard, got {shards}")
    if shards > graph.num_vertices:
        raise GraphError(
            f"cannot split {graph.num_vertices} vertices into "
            f"{shards} shards"
        )
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "sharded serving requires a connected graph"
        )
    csr = CSRGraph.from_graph(graph)
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    rng = Rng(seed)
    shard_of = np.full(n, -1, dtype=np.int64)
    seeds = rng.sample(range(n), shards)
    sizes = [1] * shards
    frontiers: List[deque] = []
    for shard, seed_vertex in enumerate(seeds):
        shard_of[seed_vertex] = shard
        frontiers.append(
            deque(
                int(x)
                for x in indices[indptr[seed_vertex] : indptr[seed_vertex + 1]]
            )
        )
    open_shards = set(range(shards))
    assigned = shards
    while assigned < n:
        if not open_shards:
            raise DisconnectedGraphError(
                "region growing stranded unassigned vertices"
            )
        shard = min(open_shards, key=lambda i: (sizes[i], i))
        frontier = frontiers[shard]
        grew = False
        while frontier:
            v = frontier.popleft()
            if shard_of[v] != -1:
                continue
            shard_of[v] = shard
            sizes[shard] += 1
            assigned += 1
            frontier.extend(
                int(x) for x in indices[indptr[v] : indptr[v + 1]]
            )
            grew = True
            break
        if not grew:
            open_shards.discard(shard)
    vertices = csr.vertices
    assignment = {
        vertices[i]: int(shard_of[i]) for i in range(n)
    }
    return ShardPlan.from_assignment(
        graph, assignment, num_shards=shards, seed=seed
    )




class ShardedSynopsis(DistanceSynopsis):
    """One epoch's sharded release as a single synopsis: the shard
    tenants' synopses stitched together by the boundary-hub relay.

    Every answer is post-processing of released values, so a
    :class:`~repro.serving.service.DistanceService` serves this like
    any other synopsis.  It registers no ``kind`` and has no
    serializer (the relay structure has none); ship the shard
    synopses instead.

    Parameters
    ----------
    shards:
        Each shard tenant's synopsis, in shard order; ``None`` for a
        shard whose last rebuild failed, whose pairs then refuse.
    relay:
        The released boundary-hub relay over ``plan.boundary``, or
        ``None`` (one shard, or a refused relay spend): intra-shard
        pairs are then answered by their shard alone and cross-shard
        pairs refuse.
    plan:
        The public shard plan pairs are routed by.
    site_pos:
        Per shard, the positions of its boundary vertices in
        ``plan.boundary`` (the relay's site order).
    params:
        The epoch budget the shard and relay releases were paid from.
    """

    def __init__(
        self,
        shards: Sequence[DistanceSynopsis | None],
        relay: HubStructure | None,
        plan: ShardPlan,
        site_pos: Sequence[np.ndarray],
        params: PrivacyParams,
    ) -> None:
        super().__init__(params)
        self._shards = tuple(shards)
        self._relay = relay
        self._plan = plan
        self._site_pos = site_pos
        self._shard_boundary = [
            tuple(plan.boundary[int(p)] for p in positions)
            for positions in site_pos
        ]
        self._relay_ball_cross = (
            {} if relay is None else self._bucket_ball(relay)
        )

    def _bucket_ball(
        self, relay: HubStructure
    ) -> Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The relay's ball table bucketed by shard pair once per
        release (the hub sample is redrawn each epoch, so exclusions
        change too).  Same-shard buckets ((i, i)) refine the
        intra-shard relay cap."""
        m = len(self._plan.boundary)
        site_shard = np.empty(m, dtype=np.int64)
        # Local position of each site within its shard's boundary list.
        site_local = np.empty(m, dtype=np.int64)
        for shard, positions in enumerate(self._site_pos):
            site_shard[positions] = shard
            site_local[positions] = np.arange(len(positions))
        buckets: Dict[Tuple[int, int], List[List[float]]] = {}
        for key, value in relay.ball.items():
            lo, hi = divmod(key, m)
            pair = (int(site_shard[lo]), int(site_shard[hi]))
            if pair[0] > pair[1]:
                pair = (pair[1], pair[0])
                lo, hi = hi, lo
            rows = buckets.setdefault(pair, [[], [], []])
            rows[0].append(int(site_local[lo]))
            rows[1].append(int(site_local[hi]))
            rows[2].append(value)
        return {
            pair: (
                np.asarray(rows[0], dtype=np.int64),
                np.asarray(rows[1], dtype=np.int64),
                np.asarray(rows[2], dtype=float),
            )
            for pair, rows in buckets.items()
        }

    @property
    def relay(self) -> HubStructure | None:
        """The boundary-hub relay structure, if one was released."""
        return self._relay

    def _shard(self, shard: int) -> DistanceSynopsis:
        synopsis = self._shards[shard]
        if synopsis is None:
            raise PrivacyError(
                f"shard {shard} has no synopsis for the current epoch "
                "(its last rebuild failed); refresh it before querying"
            )
        return synopsis

    def _require_relay(self) -> HubStructure:
        if self._relay is None:
            raise PrivacyError(
                "no boundary-hub relay for the current epoch (the "
                "last rebuild failed); refresh before serving "
                "cross-shard queries"
            )
        return self._relay

    def route(self, source: Vertex, target: Vertex) -> str:
        """``"intra"`` for a same-shard pair, ``"cross"`` otherwise."""
        plan = self._plan
        return (
            "intra"
            if plan.shard_of(source) == plan.shard_of(target)
            else "cross"
        )

    def distance(self, source: Vertex, target: Vertex) -> float:
        """The released distance, routed by shard ownership."""
        return self._distance(
            source,
            self._plan.shard_of(source),
            target,
            self._plan.shard_of(target),
        )

    def _distance(self, s: Vertex, i: int, t: Vertex, j: int) -> float:
        if i == j:
            direct = self._shard(i).distance(s, t)
            if s == t or self._relay is None:
                # Single-shard service, or a failed relay rebuild:
                # intra answers keep serving from the shard synopsis.
                return direct
            # A border pair's best corridor may dip into a neighboring
            # shard, which the induced-subgraph synopsis cannot see;
            # cap the detour with the relay decomposition through the
            # shard's own boundary (free post-processing).
            return min(direct, self._relay_candidate(s, i, t, j))
        return self._cross_distance(s, i, t, j)

    def _boundary_distances(self, shard: int, v: Vertex) -> np.ndarray:
        """Released distances from ``v`` to its shard's boundary
        vertices (free post-processing of the shard synopsis)."""
        synopsis = self._shard(shard)
        return np.asarray(
            [
                synopsis.distance(v, b)
                for b in self._shard_boundary[shard]
            ],
            dtype=float,
        )

    def _cross_distance(
        self, s: Vertex, i: int, t: Vertex, j: int
    ) -> float:
        """The boundary-hub relay estimate for a cross-shard pair
        (fails closed when the relay is missing)."""
        self._require_relay()
        return self._relay_candidate(s, i, t, j)

    def _relay_candidate(
        self, s: Vertex, i: int, t: Vertex, j: int
    ) -> float:
        """The relay decomposition estimate for any pair.

        ``min_{b_s, b_t} d_i(s, b_s) + relay(b_s, b_t) + d_j(b_t, t)``
        over shard ``i``'s and shard ``j``'s boundary vertices,
        computed as a vectorized min over hub relays (the relay term
        subsumes direct boundary-boundary hub lookups because hub
        self-distances are exactly 0), refined by the relay's
        local-ball entries for the shard pair, clamped at 0 — pure
        post-processing of released values.  With ``i == j`` this is
        the intra-shard cap for corridors leaving the shard.
        """
        structure = self._relay
        assert structure is not None
        ds = self._boundary_distances(i, s)
        dt = self._boundary_distances(j, t)
        matrix = structure.matrix
        via_s = np.min(matrix[:, self._site_pos[i]] + ds, axis=1)
        via_t = np.min(matrix[:, self._site_pos[j]] + dt, axis=1)
        best = float(np.min(via_s + via_t))
        pair = (i, j) if i <= j else (j, i)
        bucket = self._relay_ball_cross.get(pair)
        if bucket is not None:
            lo_local, hi_local, values = bucket
            if i == j:
                # Both orientations: ds and dt differ over the same
                # boundary list.
                best = min(
                    best,
                    float((ds[lo_local] + values + dt[hi_local]).min()),
                    float((ds[hi_local] + values + dt[lo_local]).min()),
                )
            elif i < j:
                best = min(
                    best, float((ds[lo_local] + values + dt[hi_local]).min())
                )
            else:
                best = min(
                    best, float((ds[hi_local] + values + dt[lo_local]).min())
                )
        return max(best, 0.0)

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        """The effective noise scale behind ``distance(source, target)``.

        Intra-shard answers report the owning synopsis's per-pair
        scale unless the relay cap won the min, in which case — like
        every cross-shard answer — the scale is the composed relay
        chain ``sigma_i + 2 rho + sigma_j`` (one released boundary leg
        per endpoint shard at its synopsis's per-entry scale, plus the
        two-entry relay term).  Deterministic post-processing: no rng,
        no budget.
        """
        if source == target:
            return 0.0
        i = self._plan.shard_of(source)
        j = self._plan.shard_of(target)
        if i == j:
            synopsis = self._shard(i)
            # distance() is min(direct, cap): the direct estimate
            # served the pair iff it is no larger than the cap.
            if self._relay is None or synopsis.distance(
                source, target
            ) <= self._relay_candidate(source, i, target, j):
                return synopsis.noise_scale_for(source, target)
        relay = self._require_relay()
        return (
            self._shard(i).noise_scale
            + 2.0 * relay.noise_scale
            + self._shard(j).noise_scale
        )


class ShardedDistanceService(DistanceService):
    """A private distance service partitioned into regional tenants.

    The build side of sharded serving: it partitions the topology,
    splits the epoch budget, runs one
    :class:`~repro.serving.service.DistanceService` tenant per shard
    plus the relay release, and publishes each epoch as a
    :class:`ShardedSynopsis`.  Queries, batches, estimates, the answer
    cache, stats and telemetry are the inherited
    :class:`~repro.serving.service.DistanceService` ones, served from
    that synopsis.

    Parameters
    ----------
    graph:
        Public topology + the current epoch's private weights
        (connected).
    epoch_budget:
        The ``(eps, delta)`` guarantee promised per epoch (a bare
        float is taken as pure eps).  With two or more shards the
        budget splits ``(1 - relay_fraction)`` to every shard tenant
        (parallel composition over disjoint intra-shard edge sets)
        and ``relay_fraction`` to the boundary-hub relay; with one
        shard the single tenant receives it all and the service is
        seeded-identical to the unsharded
        :class:`~repro.serving.service.DistanceService`.
    rng:
        Noise source, consumed shard 0..k-1 then relay — a fixed,
        reproducible order.
    shards:
        How many shards to partition into (ignored when ``plan`` is
        given).
    weight_bound, mechanism, backend:
        Forwarded to every shard's
        :class:`~repro.serving.service.DistanceService`.
    ledger:
        Share a ledger with other products; defaults to a private
        ledger with ``epoch_budget`` per tenant per epoch.  Every
        shard spends under ``{tenant}/shard-{i}`` and the relay under
        ``{tenant}/relay``, each failing closed independently.
    plan:
        Use an existing :class:`ShardPlan` instead of partitioning.
    partition_seed:
        Seed for :func:`partition_graph` (topology-only).
    relay_fraction:
        Fraction of the epoch budget spent on the relay table when
        there are two or more shards (default
        :data:`DEFAULT_RELAY_FRACTION`).
    relay_hub_count, relay_ball_size:
        Overrides for the relay hub structure (defaults
        ``~sqrt(|boundary|)``).
    cache_size, telemetry:
        As for :class:`~repro.serving.service.DistanceService`; every
        shard tenant records into the same telemetry bundle.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        epoch_budget: PrivacyParams | float,
        rng: Rng,
        shards: int | None = None,
        weight_bound: float | None = None,
        mechanism: str | None = None,
        ledger: BudgetLedger | None = None,
        tenant: str = "sharded-distance-service",
        backend: str | None = None,
        plan: ShardPlan | None = None,
        partition_seed: int = 0,
        relay_fraction: float = DEFAULT_RELAY_FRACTION,
        relay_hub_count: int | None = None,
        relay_ball_size: int | None = None,
        cache_size: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if isinstance(epoch_budget, (int, float)):
            epoch_budget = PrivacyParams(float(epoch_budget))
        if plan is None:
            if shards is None:
                raise GraphError(
                    "ShardedDistanceService needs either shards= or "
                    "plan="
                )
            plan = partition_graph(graph, shards, seed=partition_seed)
        else:
            if shards is not None and shards != plan.num_shards:
                raise GraphError(
                    f"shards={shards} disagrees with the plan's "
                    f"{plan.num_shards}"
                )
            if plan.num_vertices != graph.num_vertices:
                raise GraphError(
                    f"plan assigns {plan.num_vertices} vertices but "
                    f"the graph has {graph.num_vertices}"
                )
        self._plan = plan

        if plan.num_shards == 1:
            # No cut, no relay, no split: bit-for-bit the unsharded
            # service under the same seed.
            self._shard_params = epoch_budget
            self._relay_params: PrivacyParams | None = None
        else:
            if not 0.0 < relay_fraction < 1.0:
                raise PrivacyError(
                    f"relay_fraction must be in (0, 1), got "
                    f"{relay_fraction}"
                )
            self._shard_params = PrivacyParams(
                epoch_budget.eps * (1.0 - relay_fraction),
                epoch_budget.delta * (1.0 - relay_fraction),
            )
            self._relay_params = PrivacyParams(
                epoch_budget.eps * relay_fraction,
                epoch_budget.delta * relay_fraction,
            )
        self._relay_hub_count = relay_hub_count
        self._relay_ball_size = relay_ball_size

        # Edge classification over the full graph's canonical edge
        # order: owning shard for intra-shard edges, -1 for cut edges.
        # This is what lets refresh_shard verify an update really is
        # regional before committing it.
        plan_of = plan.shard_of
        self._edge_keys = graph.edge_list()
        edge_shard = np.empty(len(self._edge_keys), dtype=np.int64)
        for e, (u, v) in enumerate(self._edge_keys):
            su, sv = plan_of(u), plan_of(v)
            edge_shard[e] = su if su == sv else -1
        self._edge_shard = edge_shard

        # Each shard's boundary positions in the relay's site order
        # (static across refreshes: the plan is topology-only).
        site_shard = np.asarray(
            [plan_of(v) for v in plan.boundary], dtype=np.int64
        )
        self._site_pos = [
            np.flatnonzero(site_shard == shard)
            for shard in range(plan.num_shards)
        ]
        self._shard_graphs = [
            graph.subgraph(plan.members(shard))
            for shard in range(plan.num_shards)
        ]
        self._shard_edge_keys = [sub.edge_list() for sub in self._shard_graphs]
        self._services: List[DistanceService] = []
        super().__init__(
            graph,
            epoch_budget,
            rng,
            weight_bound=weight_bound,
            mechanism=mechanism,
            ledger=ledger,
            tenant=tenant,
            backend=backend,
            cache_size=cache_size,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # Epoch releases
    # ------------------------------------------------------------------

    def _build_synopsis(self) -> None:
        """Release one epoch: every shard tenant in shard order (each
        spends under its own ledger tenant before it draws), then the
        relay — a fixed rng order."""
        first_build = not self._services
        for shard, sub in enumerate(self._shard_graphs):
            if first_build:
                self._services.append(
                    DistanceService(
                        sub,
                        self._shard_params,
                        self._rng,
                        weight_bound=self._weight_bound,
                        mechanism=self._forced_mechanism,
                        ledger=self._ledger,
                        tenant=f"{self._tenant}/shard-{shard}",
                        backend=self._backend,
                        telemetry=self._telemetry,
                    )
                )
            else:
                sub = self._reweighted_shard(shard, self._graph)
                self._shard_graphs[shard] = sub
                self._services[shard].refresh(sub)
        self._rebuild_relay()
        self._stats.record_epoch_built()
        self._bind_metrics()

    def _rebuild_relay(self) -> None:
        """Publish the tenants' current synopses without a relay, then
        release the relay and publish again, so a refused relay spend
        leaves intra-shard pairs serving and cross-shard pairs
        refusing."""
        self._publish(None)
        if self._relay_params is not None:
            self._publish(self._build_relay())

    def _publish(self, relay: HubStructure | None) -> None:
        """Serve the shard tenants' current synopses with ``relay``."""
        self._synopsis = ShardedSynopsis(
            [tenant._synopsis for tenant in self._services],
            relay,
            self._plan,
            self._site_pos,
            self._budget,
        )
        inner = sorted(set(self.shard_mechanisms))
        label = inner[0] if len(inner) == 1 else "mixed"
        if self._plan.num_shards > 1:
            label = f"sharded({self._plan.num_shards}x{label}+relay)"
        self._mechanism = label

    def _build_relay(self) -> HubStructure:
        """Release the boundary-hub relay table for the current epoch.

        Spends the relay tenant's budget first (fail closed — a
        refused spend draws no noise), then asks the registry's
        ``boundary-relay`` mechanism for a hub structure over the
        boundary sites on the *full* graph's CSR, so relay distances
        may traverse any shard.
        """
        assert self._relay_params is not None
        boundary = self._plan.boundary
        m = len(boundary)
        if m == 0:
            raise GraphError(
                "multi-shard plan has no boundary vertices"
            )
        start = time.perf_counter()
        with use_telemetry(self._telemetry), self._telemetry.span(
            "relay.build", sites=m, tenant=self._tenant
        ):
            relay_mechanism = get_mechanism("boundary-relay")
            relay_params = MechanismParams(
                budget=self._relay_params,
                sites=boundary,
                hub_count=self._relay_hub_count,
                ball_size=self._relay_ball_size,
            )
            relay_mechanism.validate(self._graph, relay_params)
            self._ledger.spend(
                self._relay_params,
                tenant=f"{self._tenant}/relay",
                label=(
                    f"epoch {self._ledger.epoch} boundary-hub relay "
                    f"({m} sites)"
                ),
            )
            structure = relay_mechanism.build(
                self._graph, relay_params, self._rng
            ).structure
            self._telemetry.audit.record(
                "relay.build",
                epoch=self._ledger.epoch,
                tenant=f"{self._tenant}/relay",
                sites=m,
            )
        self._telemetry.registry.histogram(
            "build.latency", phase="relay", mechanism="boundary-relay"
        ).observe(time.perf_counter() - start)
        return structure

    def refresh(self, graph: WeightedGraph | None = None) -> None:
        """Start a new epoch: rebuild every shard and the relay (see
        :meth:`DistanceService.refresh
        <repro.serving.service.DistanceService.refresh>`).

        The plan is fixed at construction, so a ``graph`` whose
        topology differs from it raises
        :class:`~repro.exceptions.GraphError` before the ledger
        rotates or any budget is spent.
        """
        if graph is not None and (
            graph.num_vertices != self._plan.num_vertices
            or graph.edge_list() != self._edge_keys
        ):
            raise GraphError(
                "refresh graph's topology differs from the shard "
                "plan's; serve a new road network from a new service"
            )
        super().refresh(graph)

    def refresh_shard(
        self,
        shard: int,
        weights: Mapping[Edge, float] | Sequence[float] | None = None,
    ) -> None:
        """Regional epoch update: rebuild one shard plus the relay.

        ``weights`` (a mapping or a vector aligned with the full
        graph's :meth:`~repro.graphs.graph.WeightedGraph.edge_list`)
        may only differ from the current weights on the shard's own
        edges and on cut edges — anything else would silently stale
        the untouched tenants, so it raises
        :class:`~repro.exceptions.GraphError` before any budget is
        spent.  ``None`` re-releases the shard on the current weights.

        The shard tenant and the relay tenant each spend again from
        the remaining epoch budget (no rotation — the other shards
        are still serving this epoch), so refreshed regions
        accumulate loss toward each tenant's per-epoch cap (see the
        module docstring's accounting note), failing closed
        independently:
        a refused shard spend leaves the relay and the other shards
        untouched; a refused relay spend leaves every shard serving
        but cross-shard queries refusing until the next successful
        refresh.
        """
        if not 0 <= shard < self._plan.num_shards:
            raise GraphError(
                f"shard id {shard} out of range "
                f"[0, {self._plan.num_shards})"
            )
        with use_telemetry(self._telemetry), self._telemetry.span(
            "shard.refresh", shard=shard, tenant=self._tenant
        ):
            if weights is not None:
                new_graph = self._graph.with_weights(weights)
                self._check_regional(shard, new_graph)
            else:
                new_graph = self._graph
            sub = self._reweighted_shard(shard, new_graph)
            try:
                # Fails closed on budget before any noise is drawn.
                self._services[shard].refresh(sub)
            except Exception:
                # The shard now refuses to serve; nothing else moved.
                self._publish(self.relay)
                raise
            self._graph = new_graph
            self._shard_graphs[shard] = sub
            self._cache.clear()
            self._stats.record_shard_refresh()
            self._rebuild_relay()
            self._telemetry.audit.record(
                "shard.refresh",
                epoch=self._ledger.epoch,
                tenant=self._tenant,
                shard=shard,
            )
            self._telemetry.log.emit(
                "shard.refresh",
                tenant=self._tenant,
                epoch=self._ledger.epoch,
                shard=shard,
            )
        self._bind_metrics()

    def _reweighted_shard(  # privlint: ignore[PL1] feeds the shard tenant's budgeted synopsis build
        self, shard: int, graph: WeightedGraph
    ) -> WeightedGraph:
        """The shard subgraph re-weighted from the full graph — an
        O(edges) gather over the frozen topology (the subgraph clone
        keeps the compiled CSR structure)."""
        return self._shard_graphs[shard].with_weights(
            [graph.weight(u, v) for u, v in self._shard_edge_keys[shard]]
        )

    def _check_regional(
        self, shard: int, new_graph: WeightedGraph
    ) -> None:
        old = self._graph.weight_vector()
        new = new_graph.weight_vector()
        changed = old != new
        allowed = (self._edge_shard == shard) | (self._edge_shard == -1)
        bad = changed & ~allowed
        if bad.any():
            edge = self._edge_keys[int(np.argmax(bad))]
            raise GraphError(
                f"refresh_shard({shard}) may only change weights of "
                f"shard-{shard} edges and cut edges; edge {edge!r} "
                f"belongs elsewhere (use refresh() for a full epoch)"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def plan(self) -> ShardPlan:
        """The (public) shard plan the service routes by."""
        return self._plan

    @property
    def num_shards(self) -> int:
        """How many shard tenants the service runs."""
        return self._plan.num_shards

    @property
    def shard_services(self) -> Tuple[DistanceService, ...]:
        """The per-shard tenant services, in shard order."""
        return tuple(self._services)

    @property
    def shard_mechanisms(self) -> Tuple[str, ...]:
        """The mechanism each shard tenant selected."""
        return tuple(s.mechanism for s in self._services)

    @property
    def relay(self) -> HubStructure | None:
        """The released boundary-hub relay structure (``None`` for a
        single-shard service, or after a failed rebuild)."""
        synopsis = self._synopsis
        return synopsis.relay if synopsis is not None else None

    @property
    def relay_params(self) -> PrivacyParams | None:
        """The relay tenant's per-epoch budget share."""
        return self._relay_params

    @property
    def shard_params(self) -> PrivacyParams:
        """Each shard tenant's per-epoch budget share."""
        return self._shard_params
