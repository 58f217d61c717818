"""The three serving workloads, their inputs and their output checks.

One process, one thread, one closed-loop client: every call waits for
the previous one to return.  The program sees only the generated
graph, weights and pairs; everything else here (stream generation,
checks) runs between the timed calls.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from repro import Rng, ServingConfig, serve
from repro.serving import BudgetLedger, synopsis_from_json
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.traffic import grid_road_network, rush_hour_scenario

from spans import NullRecorder, Recorder

#: Pairs answered through the cache-free reference paths per epoch.
CHECK_SAMPLE = 128
#: Pairs whose answers feed the seeded-answer digest, per epoch.
PROBES = 64
BATCH = 256
#: Distinct pairs per epoch whose answers later repeats must match.
MAX_TRACKED = 50_000
#: Each point and batch figure is the mean over the run's best
#: segments for it: this share of them, and never fewer than BEST_MIN.
BEST_SHARE = 0.1
BEST_MIN = 40


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    shards: int
    setups: int  # serve() repetitions; setup_s is their median
    points: int  # point queries per segment
    batches: int  # batches of BATCH pairs per segment
    segments: int  # segments per epoch
    min_updates: int  # epoch updates made even past the deadline
    hot_pairs: int  # Zipf-ranked commuter pairs; 0 means uniform traffic
    cold: float  # share of uniform pairs mixed into commuter traffic
    twin_queries: int  # pairs per side in the telemetry on/off sub-run


# The commuter mix (Zipf exponent 1, hot-set sizes, 3% background,
# either direction) is an assumption, not a measured query trace; it
# sets the cache-hit share, which each run reports.  See README.md.
WORKLOADS = {
    "road-epochs": Workload(
        "road-epochs", 64, 1, setups=3, points=2000, batches=4, segments=300,
        min_updates=3, hot_pairs=500, cold=0.0, twin_queries=4000,
    ),
    "road-sharded": Workload(
        "road-sharded", 64, 4, setups=5, points=250, batches=1, segments=8,
        min_updates=4, hot_pairs=0, cold=0.0, twin_queries=800,
    ),
    "road-hot": Workload(
        "road-hot", 32, 1, setups=9, points=2000, batches=8, segments=250,
        min_updates=5, hot_pairs=2000, cold=0.03, twin_queries=4000,
    ),
}


def small(workload: Workload) -> Workload:
    """The same workload on a tiny city (smoke test only)."""
    return replace(
        workload,
        # The smallest cities on which auto-selection still picks the
        # hub mechanisms, whose answers clamp at 0.
        rows=16 if workload.shards == 1 else 40,
        setups=3,
        points=50,
        batches=1,
        segments=2,
        min_updates=2,
        twin_queries=40,
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


class Inputs:
    """Everything the workload sends, derived from the seed alone."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        net = self.network()
        self.vertices = net.graph.vertex_list()
        self.n = len(self.vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        edges = net.graph.edge_list()
        self.edge_u = np.array([index[u] for u, _ in edges])
        self.edge_v = np.array([index[v] for _, v in edges])
        self.base_weights = net.graph.weight_vector()
        if workload.hot_pairs:
            self.hot_pairs = self._uniform(self._rng(1), workload.hot_pairs)
            weights = 1.0 / np.arange(1, workload.hot_pairs + 1)
            self.hot_p = weights / weights.sum()

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def network(self):
        """A fresh graph object: the engine memoizes its compiled form
        on the graph, so reusing one would hide the compile."""
        rows = self.workload.rows
        return grid_road_network(rows, rows, Rng(self.seed))

    def noise_rng(self) -> Rng:
        return Rng(10_000 * self.seed + 1)

    def _uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        i = rng.integers(0, self.n, count)
        j = (i + rng.integers(1, self.n, count)) % self.n
        return np.stack([i, j], axis=1)

    def pairs(self, stream: int, segment: int, count: int) -> np.ndarray:
        """``count`` (source, target) index pairs of one stream segment."""
        rng = self._rng(2, stream, segment)
        hot = self.workload.hot_pairs
        if not hot:
            return self._uniform(rng, count)
        # Commuter traffic: a Zipf-ranked hot set of OD pairs asked in
        # either direction, with a share of uniform background pairs.
        pick = self.hot_pairs[rng.choice(hot, count, p=self.hot_p)]
        flip = rng.random(count) < 0.5
        pick[flip] = pick[flip][:, ::-1]
        cold = rng.random(count) < self.workload.cold
        pick[cold] = self._uniform(rng, int(cold.sum()))
        return pick

    def rush_hour(self, net, epoch: int):
        """Epoch weights: a congestion hot-spot at a seeded place."""
        rng = self._rng(3, epoch)
        rows = self.workload.rows
        center = tuple(rng.uniform(0, rows - 1, 2))
        return rush_hour_scenario(
            net, Rng(10_000 * self.seed + 100 + epoch), center, rows / 4
        )

    def regional(self, weights: np.ndarray, shard_edges: np.ndarray,
                 epoch: int) -> np.ndarray:
        """Regional congestion: one shard's own edges slow down by up
        to 50% of free flow; every other edge keeps its weight."""
        rng = self._rng(4, epoch)
        new = weights.copy()
        slow = 1.0 + 0.5 * rng.random(int(shard_edges.sum()))
        new[shard_edges] = self.base_weights[shard_edges] * slow
        return new


def _fingerprint(digest, structure) -> None:
    """Hash a released hub structure's noisy values, independent of how
    the ball table is stored."""
    digest.update(np.ascontiguousarray(structure.matrix, dtype=float))
    ball = dict(structure.ball)
    keys = np.array(sorted(ball), dtype=np.int64)
    digest.update(keys.tobytes())
    digest.update(np.array([ball[k] for k in keys.tolist()]).tobytes())


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 traced: bool) -> None:
        self.w = workload
        self.seconds = seconds
        self.inputs = Inputs(workload, seed)
        self.rec = Recorder() if traced else NullRecorder()
        self.tally = Tally()
        self.setup_s: List[float] = []
        self.update_s: List[float] = []
        # Each segment leaves its point p50 and p99, and its batch
        # queries and batch call time.
        self.seg_p50: List[float] = []
        self.seg_p99: List[float] = []
        self.seg_batch_queries: List[int] = []
        self.seg_batch_s: List[float] = []
        self.best_segments = 0
        self.segments = 0
        self.point_queries = 0
        self.point_hits = 0
        self.points_issued = 0
        self.point_route: List[np.ndarray] = []
        self.batch_calls = 0
        self.batch_queries = 0
        self.batch_unique = 0
        self.batch_hits = 0
        self.synopsis_bytes: List[int] = []
        self.digest = hashlib.sha256()
        self.release_digest = hashlib.sha256()
        self.twin_metrics: Dict[str, float] = {}
        self.epoch = 0
        self.epoch_answers: Dict[int, float] = {}
        self.zero_answers = 0
        self.weights = self.inputs.base_weights
        self.net = None

    # -- set-up ----------------------------------------------------------

    def _serve(self, telemetry):
        net = self.inputs.network()
        ledger = None
        if self.w.shards > 1:
            # The provider's epoch clock owns the ledger: every regional
            # update is a new epoch, turned by the client.
            ledger = BudgetLedger(ServingConfig().budget)
        config = ServingConfig(shards=self.w.shards)
        server, seconds = self.rec.timed(
            "client.serve", serve, net.graph, config,
            self.inputs.noise_rng(), ledger, None, telemetry,
        )
        return net, server, seconds

    def setup(self) -> None:
        """``setups`` identical serve() calls; the first stays as a
        twin for the cache-independent point/batch check, and in the
        traced run the second serves the telemetry-off side."""
        self.twin = self.null_twin = None
        for rep in range(self.w.setups):
            # Only the twins outlive their rep; dropping the previous
            # server first keeps the memory peak to one build.
            self.net = self.server = None
            gc.collect()
            null_side = self.rec.enabled and rep == 1
            telemetry = NULL_TELEMETRY if null_side else Telemetry()
            self.tally.attempted += 1
            self.net, self.server, seconds = self._serve(telemetry)
            self.setup_s.append(seconds)
            if rep == 0:
                self.twin = self.server
            elif null_side:
                self.null_twin = self.server
        self._check_ledger(regional=False)
        if self.w.shards > 1:
            plan = self.server.plan
            self.shard_of = np.array(
                [plan.shard_of(v) for v in self.inputs.vertices]
            )
            self.shard_edges = [
                (self.shard_of[self.inputs.edge_u] == i)
                & (self.shard_of[self.inputs.edge_v] == i)
                for i in range(self.w.shards)
            ]
        else:
            self.shard_of = np.zeros(self.inputs.n, dtype=np.int64)

    # -- queries ---------------------------------------------------------

    def _points(self, pairs: np.ndarray) -> np.ndarray:
        """Point queries one at a time; returns their latencies."""
        verts = self.inputs.vertices
        args = [(verts[i], verts[j]) for i, j in pairs.tolist()]
        rec, query = self.rec, self.server.query
        answers = np.empty(len(args))
        seconds = np.empty(len(args))
        stats = self.server.stats
        hits = stats.cache_hits
        base = self.points_issued
        self.points_issued += len(args)
        for k, (s, t) in enumerate(args):
            rec.qid = base + k
            try:
                answers[k], seconds[k] = rec.timed(
                    "client.point", query, s, t
                )
            except Exception as exc:  # counted, then the loop goes on
                self.tally.fail(f"query{(s, t)}: {exc!r}")
                answers[k], seconds[k] = np.nan, np.nan
        rec.qid = -1
        self.point_hits += stats.cache_hits - hits
        self.tally.attempted += len(args)
        done = seconds[np.isfinite(seconds)]
        self.point_queries += len(done)
        if self.rec.enabled:
            self.point_route.append(
                self.shard_of[pairs[:, 0]] != self.shard_of[pairs[:, 1]]
            )
        self._record(pairs, answers, "point")
        return done

    def _batch(self, pairs: np.ndarray):
        """One batch call; returns its query count and call time."""
        verts = self.inputs.vertices
        args = [(verts[i], verts[j]) for i, j in pairs.tolist()]
        self.tally.attempted += 1
        try:
            report, seconds = self.rec.timed(
                "client.batch", self.server.query_batch, args
            )
        except Exception as exc:
            self.tally.fail(f"query_batch: {exc!r}")
            return 0, 0.0
        self.batch_calls += 1
        self.batch_queries += report.num_queries
        self.batch_unique += report.num_unique
        self.batch_hits += report.cache_hits
        self.tally.check(
            len(report.answers) == len(args), "batch answer count"
        )
        self._record(pairs, np.asarray(report.answers, dtype=float), "batch")
        return report.num_queries, seconds

    def _record(self, pairs: np.ndarray, answers: np.ndarray, path: str):
        """Every answer finite and >= 0; a pair asked again in the same
        epoch, by either path and in either direction, gets the
        bit-identical answer."""
        ok = np.isfinite(answers) & (answers >= 0.0)
        for value in answers[~ok][:3].tolist():
            self.tally.fail(f"{path} answer {value!r}")
        self.tally.attempted += len(answers)
        self.tally.failed += max(int((~ok).sum()) - 3, 0)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        self.zero_answers += int(np.sum(answers == 0.0))
        seen = self.epoch_answers
        room = len(seen) < MAX_TRACKED
        mismatched = 0
        for key, value in zip((lo * self.inputs.n + hi).tolist(),
                              answers.tolist()):
            if key in seen:
                mismatched += seen[key] != value and value == value
            elif room:
                seen[key] = value
        self.tally.attempted += len(answers)
        if mismatched:
            self.tally.fail(f"{mismatched} {path} answers differ in-epoch")

    def segment(self, index: int) -> None:
        w = self.w
        self.segments += 1
        latency = self._points(self.inputs.pairs(0, index, w.points))
        queries, seconds = 0, 0.0
        for b in range(w.batches):
            q, t = self._batch(
                self.inputs.pairs(1, index * w.batches + b, BATCH)
            )
            queries += q
            seconds += t
        p50, p99 = (np.percentile(latency, [50, 99]) if len(latency)
                    else (np.inf, np.inf))
        self.seg_p50.append(float(p50))
        self.seg_p99.append(float(p99))
        self.seg_batch_queries.append(queries)
        self.seg_batch_s.append(seconds)

    # -- epoch updates -----------------------------------------------------

    def update(self) -> None:
        """One epoch update: a rush-hour ``refresh`` or, sharded, a
        regional ``refresh_shard`` in a newly turned ledger epoch."""
        self.epoch += 1
        self.epoch_answers = {}
        self.tally.attempted += 1
        try:
            if self.w.shards > 1:
                shard = (self.epoch - 1) % self.w.shards
                weights = self.inputs.regional(
                    self.weights, self.shard_edges[shard], self.epoch
                )
                self.server.ledger.rotate()
                _, seconds = self.rec.timed(
                    "client.update", self.server.refresh_shard, shard,
                    weights,
                )
                self.weights = weights
            else:
                graph = self.inputs.rush_hour(self.net, self.epoch)
                _, seconds = self.rec.timed(
                    "client.update", self.server.refresh, graph
                )
        except Exception as exc:
            self.tally.fail(f"update {self.epoch}: {exc!r}")
            return
        self.update_s.append(seconds)
        self._check_ledger(regional=self.w.shards > 1)

    # -- checks ------------------------------------------------------------

    def _check_ledger(self, regional: bool) -> None:
        """Exactly one spend per tenant in this epoch: one tenant
        unsharded; every shard plus the relay after serve(); the
        refreshed shard plus the relay after a regional update."""
        ledger = self.server.ledger
        epoch = ledger.epoch
        counts = Counter(e.tenant for e in ledger.records(epoch=epoch))
        if self.w.shards == 1:
            tenants = 1
        else:
            tenants = 2 if regional else self.w.shards + 1
        self.tally.check(
            len(counts) == tenants and set(counts.values()) == {1},
            f"ledger epoch {epoch}: {dict(counts)}",
        )
        self.spends = sum(counts.values())

    def check_epoch(self) -> None:
        """Checks at the end of an epoch, outside every timed call."""
        with self.rec.paused():
            try:
                self._check_round_trip()
                self._probe()
                if self.epoch == 0:
                    self._check_twin()
            except Exception as exc:  # a check that raises has failed
                self.tally.fail(f"epoch {self.epoch} checks: {exc!r}")

    def _sample(self) -> np.ndarray:
        keys = np.fromiter(self.epoch_answers, dtype=np.int64)
        keys = keys[: CHECK_SAMPLE]
        return np.stack([keys // self.inputs.n, keys % self.inputs.n], 1)

    def _check_round_trip(self) -> None:
        """The shipped synopsis, re-read, answers like the live one."""
        verts = self.inputs.vertices
        pairs = self._sample()
        if self.w.shards == 1:
            text = self.server.synopsis.to_json()
            self.synopsis_bytes.append(len(text))
            shipped = synopsis_from_json(text)
            self._check_same_release(
                shipped, self.server.synopsis, np.arange(self.inputs.n), ""
            )
            for i, j in pairs.tolist():
                live = self.epoch_answers[i * self.inputs.n + j]
                got = (shipped.distance(verts[i], verts[j]),
                       shipped.distance(verts[j], verts[i]),
                       self.server.query(verts[j], verts[i]))
                self.tally.check(
                    got == (live, live, live),
                    f"round trip/symmetry {verts[i]}-{verts[j]}",
                )
            return
        services = self.server.shard_services
        texts = [s.synopsis.to_json() for s in services]
        self.synopsis_bytes.append(sum(len(t) for t in texts))
        shipped: Dict[int, object] = {}
        for i, j in pairs.tolist():
            live = self.epoch_answers[i * self.inputs.n + j]
            self.tally.check(
                self.server.query(verts[j], verts[i]) == live,
                f"symmetry {verts[i]}-{verts[j]}",
            )
            shard = int(self.shard_of[i])
            if shard != self.shard_of[j]:
                continue
            local = services[shard].synopsis
            if shard not in shipped:
                shipped[shard] = synopsis_from_json(texts[shard])
                self._check_same_release(
                    shipped[shard], local,
                    np.flatnonzero(self.shard_of == shard), f"shard {shard} ",
                )
            self.tally.check(
                shipped[shard].distance(verts[i], verts[j])
                == local.distance(verts[i], verts[j]),
                f"shard {shard} round trip {verts[i]}-{verts[j]}",
            )

    def _check_same_release(self, shipped, live, members: np.ndarray,
                            label: str) -> None:
        """Answers saturate at 0 under eps=1 noise, so the round trip
        also compares the noise scales the two report for the same
        pairs, which depend on the released values."""
        verts = self.inputs.vertices
        rng = self.inputs._rng(7, self.epoch)
        pick = members[rng.integers(0, len(members), (32, 2))]
        for i, j in pick.tolist():
            s, t = verts[i], verts[j]
            self.tally.check(
                shipped.noise_scale_for(s, t) == live.noise_scale_for(s, t)
                and shipped.noise_scale_for(s, t)
                == live.noise_scale_for(t, s),
                f"{label}round-trip noise scale {s}-{t}",
            )

    def _probe(self) -> None:
        """Seeded answers and noise scales of fixed probe pairs, and the
        released hub tables, feed the digests for the serve epoch and
        the first update."""
        if self.epoch > 1:
            return
        verts = self.inputs.vertices
        pairs = self.inputs.pairs(9, self.epoch, PROBES)
        answers, scales = [], []
        for i, j in pairs.tolist():
            answers.append(self.server.query(verts[i], verts[j]))
            scales.append(
                self.server.estimate(verts[i], verts[j]).noise_scale
            )
        self._record(pairs, np.asarray(answers), "probe")
        self.digest.update(np.asarray(answers, dtype=np.float64).tobytes())
        self.digest.update(np.asarray(scales, dtype=np.float64).tobytes())
        if self.release_digest is not None:
            try:
                for structure in self._structures(self.server):
                    _fingerprint(self.release_digest, structure)
            except (AttributeError, TypeError):
                # The hub tables changed shape; the answer digest stays.
                self.release_digest = None

    def _structures(self, server) -> list:
        if self.w.shards == 1:
            return [server.synopsis.structure]
        return [s.synopsis.structure for s in server.shard_services] + [
            server.relay
        ]

    def _check_twin(self) -> None:
        """The twin (built from the same inputs and seed, own cache)
        released the same hub tables as the live server.  Its batch
        estimates equal the live server's point estimates, and the
        other way round: the values, and the noise scales, which depend
        on which released value won."""
        verts = self.inputs.vertices

        def release(server) -> str:
            digest = hashlib.sha256()
            for structure in self._structures(server):
                _fingerprint(digest, structure)
            return digest.hexdigest()

        try:
            same = release(self.twin) == release(self.server)
        except (AttributeError, TypeError):
            same = True  # the hub tables changed shape; see _probe
        self.tally.check(same, "twin release differs from live release")

        def agree(batch_side, point_side, stream: int, what: str):
            args = [(verts[i], verts[j])
                    for i, j in self.inputs.pairs(stream, 0, PROBES).tolist()]
            batch = [(e.value, e.noise_scale)
                     for e in batch_side.estimate_batch(args)]
            point = [(e.value, e.noise_scale)
                     for e in map(point_side.estimate, *zip(*args))]
            self.tally.check(batch == point, what)

        agree(self.twin, self.server, 9, "twin batch vs live point")
        agree(self.server, self.twin, 8, "live batch vs twin point")
        self.twin = self.null_twin = None
        gc.collect()

    # -- telemetry on/off sub-run ------------------------------------------

    def telemetry_pairs(self) -> None:
        """Same pairs on a default-telemetry twin and a NULL_TELEMETRY
        twin, unwrapped, alternating which side goes first."""
        on, off = self.twin, self.null_twin
        verts = self.inputs.vertices
        pairs = self.inputs.pairs(0, 0, self.w.twin_queries).tolist()
        args = [(verts[i], verts[j]) for i, j in pairs]
        chunks = [args[k:k + 200] for k in range(0, len(args), 200)]
        lat = {"on": [], "off": []}
        batch = {"on": 0.0, "off": 0.0}
        perf = time.perf_counter
        for k, chunk in enumerate(chunks):
            sides = [("on", on), ("off", off)]
            for side, server in sides if k % 2 == 0 else sides[::-1]:
                query = server.query
                for s, t in chunk:
                    start = perf()
                    query(s, t)
                    lat[side].append(perf() - start)
        batches = [
            [(verts[i], verts[j]) for i, j in
             self.inputs.pairs(1, b, BATCH).tolist()]
            for b in range(8)
        ]
        for k, pairs_b in enumerate(batches):
            sides = [("on", on), ("off", off)]
            for side, server in sides if k % 2 == 0 else sides[::-1]:
                start = perf()
                server.query_batch(pairs_b)
                batch[side] += perf() - start
        queries = BATCH * len(batches)
        self.twin_metrics = {
            "point_overhead_us":
                1e6 * (np.median(lat["on"]) - np.median(lat["off"])),
            "batch_overhead_us":
                1e6 * (batch["on"] - batch["off"]) / queries,
        }

    # -- the run loop ------------------------------------------------------

    def run(self) -> None:
        if self.rec.enabled:
            self.rec.install()
        self.setup()
        if self.rec.enabled:
            self.rec.uninstall()
            self.telemetry_pairs()
            self.rec.install()
        gc.collect()
        deadline = time.perf_counter() + self.seconds
        segment = 0
        while True:
            self.segment(segment)
            segment += 1
            if segment % self.w.segments:
                continue
            if (time.perf_counter() >= deadline
                    and self.epoch >= self.w.min_updates):
                break
            self.check_epoch()
            self.update()
        self.check_epoch()
        if self.rec.enabled:
            self.rec.uninstall()

    # -- results -------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        """Point p50, p99 and batch qps are each the mean over the run's
        best segments for that figure: the BEST_SHARE of segments with
        the lowest p50, the lowest p99 and the highest batch qps, and at
        least BEST_MIN of them.  The shared host's speed changes from
        second to second, and a slow stretch only ever makes a segment
        slower, so the best segments measure the program and the rest
        mostly measure the neighbours."""
        p50 = np.asarray(self.seg_p50)
        p99 = np.asarray(self.seg_p99)
        seconds = np.asarray(self.seg_batch_s)
        qps = np.asarray(self.seg_batch_queries)[seconds > 0] \
            / seconds[seconds > 0]
        count = min(len(p50), max(int(round(BEST_SHARE * len(p50))),
                                  BEST_MIN))
        self.best_segments = count

        def best(values: np.ndarray) -> float:
            return float(np.mean(np.sort(values)[:count])) \
                if len(values) else 0.0

        return {
            "setup_s": float(np.median(self.setup_s)),
            "refresh_s": float(np.median(self.update_s)),
            "point_p50_us": 1e6 * best(p50),
            "point_p99_us": 1e6 * best(p99),
            "batch_qps": -best(-qps),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "synopsis_bytes": float(np.median(self.synopsis_bytes)),
        }

    def cache_hits(self) -> Dict[str, float]:
        """The share of timed queries the answer cache served.  The
        traffic mix decides it, so it is reported beside the figures."""
        return {
            "point_cache_hit_frac":
                self.point_hits / max(self.point_queries, 1),
            "batch_cache_hit_frac":
                self.batch_hits / max(self.batch_queries, 1),
        }

    def samples(self) -> Dict[str, int]:
        return {
            "setups": len(self.setup_s),
            "updates": len(self.update_s),
            "segments": self.segments,
            "best_segments": self.best_segments,
            "point_queries": self.point_queries,
            "batches": self.batch_calls,
            "batch_queries": self.batch_queries,
        }

    def digests(self) -> Dict[str, object]:
        release = self.release_digest
        return {
            "answer_digest": self.digest.hexdigest(),
            "release_digest": release.hexdigest() if release else None,
            "zero_answers": self.zero_answers,
        }
