"""Span recording for the traced run.

The traced run wraps the public functions of each layer at the sites
the library calls them from; the untraced run installs nothing.  A span
is (name, start, end, parent, query id) plus up to two counts recorded
at the same boundary (sources swept and cells for a sweep, draws for a
Laplace call, ball entries and released pairs for a hub build).  Spans
live in flat arrays while the run goes on and are written to one
``.npz`` file when it ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List

import numpy as np

_perf = time.perf_counter


class NullRecorder:
    """Times the client's own calls and records nothing else."""

    enabled = False
    qid = -1
    _paused = False

    def timed(self, kind: str, fn: Callable, *args):
        start = _perf()
        result = fn(*args)
        return result, _perf() - start

    @contextmanager
    def paused(self):
        """No spans inside: the checks call the wrapped functions too."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was


class Recorder(NullRecorder):
    """Keeps every span in memory; :meth:`save` writes them out."""

    enabled = True

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.counts: Dict[int, tuple] = {}
        self._stack: List[int] = []
        self._undo: list = []
        self.qid = -1

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.qid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_perf())
        return idx

    def _close(self, idx: int) -> float:
        end = _perf()
        self.end[idx] = end
        self._stack.pop()
        return end - self.start[idx]

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None):
        """``fn`` wrapped in a span named ``name``; ``counter(args,
        result)`` returns the span's two counts."""
        nid = self._intern(name)
        recorder = self

        def traced(*args, **kwargs):
            if recorder._paused:
                return fn(*args, **kwargs)
            idx = recorder._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(idx)
            if counter is not None:
                recorder.counts[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def timed(self, kind: str, fn: Callable, *args):
        """A root span around one client call; returns (result, s)."""
        idx = self._open(self._intern(kind))
        try:
            result = fn(*args)
        finally:
            seconds = self._close(idx)
        return result, seconds

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap each layer's public functions at their import sites."""
        import repro.apsp.bounded as bounded
        import repro.apsp.hubs as hubs
        import repro.engine.backends as backends
        import repro.mechanisms as mechanisms
        import repro.serving.service as service
        import repro.serving.synopsis as synopsis
        from repro.engine.csr import CSRGraph
        from repro.rng import Rng
        from repro.serving.batching import BatchPlanner
        from repro.serving.ledger import BudgetLedger
        from repro.serving.sharding import ShardedDistanceService

        sweep = hubs.multi_source_distances
        for module in (hubs, synopsis, backends):
            self._patch(
                module,
                "multi_source_distances",
                self.wrap("engine.sweep", sweep, _sweep_counts),
            )
        build = hubs.build_hub_structure
        for module in (hubs, bounded, mechanisms):
            if hasattr(module, "build_hub_structure"):
                self._patch(
                    module,
                    "build_hub_structure",
                    self.wrap("apsp.hubs.build", build, _hub_counts),
                )
        compile_graph = vars(CSRGraph)["from_graph"].__func__
        self._patch(
            CSRGraph,
            "from_graph",
            classmethod(self.wrap("engine.csr_compile", compile_graph)),
        )
        self._patch(
            Rng, "laplace", self.wrap("rng.laplace", Rng.laplace, _one_draw)
        )
        self._patch(
            Rng,
            "laplace_vector",
            self.wrap("rng.laplace", Rng.laplace_vector, _vector_draws),
        )
        select = mechanisms.auto_select_mechanism
        for module in (mechanisms, service):
            self._patch(
                module,
                "auto_select_mechanism",
                self.wrap("mechanisms.select", select),
            )
        for mech in mechanisms.registered_mechanisms():
            self._patch(
                mech, "build", self.wrap("mechanisms.build", mech.build)
            )
        self._patch(
            BudgetLedger,
            "spend",
            self.wrap("serving.ledger.spend", BudgetLedger.spend),
        )
        for cls in _synopsis_classes(synopsis.DistanceSynopsis):
            self._patch(
                cls,
                "distance",
                self.wrap("serving.synopsis.distance", cls.distance),
            )
        self._patch(
            hubs.HubStructure,
            "estimate",
            self.wrap("apsp.hubs.estimate", hubs.HubStructure.estimate),
        )
        self._patch(
            BatchPlanner,
            "run",
            self.wrap("serving.batching.run", BatchPlanner.run),
        )
        for cls, layer in (
            (service.DistanceService, "serving.service"),
            (ShardedDistanceService, "serving.sharding"),
        ):
            for method in ("query", "query_batch", "refresh"):
                self._patch(
                    cls,
                    method,
                    self.wrap(f"{layer}.{method}", getattr(cls, method)),
                )
        self._patch(
            ShardedDistanceService,
            "refresh_shard",
            self.wrap(
                "serving.sharding.refresh_shard",
                ShardedDistanceService.refresh_shard,
            ),
        )

    def uninstall(self) -> None:
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo = []

    # -- output ----------------------------------------------------------

    @staticmethod
    def span_cost(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op against
        the bare one, median of ``repeats``, in a throwaway recorder."""
        throwaway = Recorder()
        bare = _noop
        wrapped = throwaway.wrap("calibrate", bare)
        costs = []
        for _ in range(repeats):
            start = _perf()
            for _ in range(calls):
                bare()
            mid = _perf()
            for _ in range(calls):
                wrapped()
            end = _perf()
            costs.append(((end - mid) - (mid - start)) / calls)
        return float(np.median(costs))

    def arrays(self) -> "Spans":
        counted = np.fromiter(self.counts, dtype=np.int64)
        values = np.array(list(self.counts.values()), dtype=float)
        count_a = np.zeros(len(self.start))
        count_b = np.zeros(len(self.start))
        if len(counted):
            count_a[counted] = values[:, 0]
            count_b[counted] = values[:, 1]
        return Spans(
            self.names,
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.query, dtype=np.int32),
            count_a,
            count_b,
        )

    def save(self, path: str) -> None:
        s = self.arrays()
        np.savez(
            path,
            names=np.asarray(s.names),
            name=s.name,
            start=s.start,
            end=s.end,
            parent=s.parent,
            query=s.query,
            count_a=s.count_a,
            count_b=s.count_b,
        )


def _noop():
    return None


def _sweep_counts(args, kwargs, result):
    csr, sources = args[0], args[1]
    return len(sources), len(sources) * csr.n


def _hub_counts(args, kwargs, result):
    structure = result[0]
    return len(structure.ball), structure.pair_count


def _one_draw(args, kwargs, result):
    return 1, 0


def _vector_draws(args, kwargs, result):
    return len(result), 0


def _synopsis_classes(base) -> list:
    """Every concrete synopsis class (those with a registered kind)."""
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if getattr(cls, "kind", ""):
            found.append(cls)
    return found


class Spans:
    """The recorded spans as arrays, with self time and root lookup."""

    def __init__(self, names, name, start, end, parent, query, a, b):
        self.names = list(names)
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.query = query
        self.count_a = a
        self.count_b = b
        self.dur = end - start
        n = len(name)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        # Children of one span never overlap (one thread, nested
        # calls), so their summed durations are their coverage.
        self.self_time = self.dur - covered
        root = np.arange(n)
        up = parent.astype(np.int64)
        live = up >= 0
        while live.any():
            root[live] = up[live]
            up[live] = parent[up[live]]
            live = up >= 0
        self.root = root

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str, roots: np.ndarray) -> np.ndarray:
        """Spans called ``name`` whose root span is in ``roots``."""
        return self.mask(name) & roots[self.root]
