"""Reference kernels used only by the E17 engine benchmark and the
kernel parity tests.

No release or serving path calls these; the library's exact sweeps go
through :func:`repro.engine.kernels.multi_source_distances`.  They
live here, next to the benchmark that times them:

* :func:`bellman_ford_distances` — single-source distances permitting
  negative weights, over the scipy-free relaxation kernel.
* :func:`dense_distance_matrix` — the one-hop min-plus seed matrix.
* :func:`min_plus_apsp` — min-plus matrix repeated squaring for small
  dense graphs.  Doubling re-associates path sums, so this kernel is
  exact on integer-valued weights and ulp-close otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.engine.csr import CSRGraph
from repro.engine.kernels import relaxation_distances
from repro.exceptions import EngineError, GraphError

__all__ = [
    "bellman_ford_distances",
    "dense_distance_matrix",
    "min_plus_apsp",
]


def bellman_ford_distances(csr: CSRGraph, source: int) -> np.ndarray:  # privlint: ignore[PL1] negative-weight reference kernel exercised by parity tests/benches; in-tree releases dispatch via multi_source_distances
    """Single-source distances permitting negative weights.

    The vectorized counterpart of
    :func:`repro.algorithms.shortest_paths.bellman_ford` (distances
    only; raises on a negative cycle).
    """
    if not csr.directed and csr.num_arcs and float(csr.weights.min()) < 0:
        raise GraphError(
            "negative undirected edge forms a negative cycle"
        )
    return relaxation_distances(csr, [source], allow_negative=True)[0]


def dense_distance_matrix(csr: CSRGraph) -> np.ndarray:  # privlint: ignore[PL1] min-plus seed matrix for the bench-only APSP kernel; exercised by parity tests/benches
    """The one-hop min-plus matrix: ``D[i, j]`` is the arc weight
    (``inf`` if absent), with a zero diagonal."""
    n = csr.n
    dense = np.full((n, n), np.inf)
    np.fill_diagonal(dense, 0.0)
    if csr.num_arcs:
        tails = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(csr.indptr)
        )
        dense[tails, csr.indices] = csr.weights
    return dense


def min_plus_apsp(
    dense: np.ndarray, row_block: int = 32
) -> np.ndarray:
    """All-pairs distances by min-plus repeated squaring.

    ``dense`` is the one-hop matrix from :func:`dense_distance_matrix`.
    ``ceil(log2(n-1))`` squarings suffice; each squaring is computed in
    row blocks to bound the broadcast scratch at ``row_block * n^2``
    floats.  O(n^3 log n) work but fully vectorized — intended for
    small dense graphs (hundreds of vertices).
    """
    d = np.array(dense, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise EngineError(
            f"min-plus kernel needs a square matrix, got {d.shape}"
        )
    n = d.shape[0]
    if n <= 1:
        return d
    squarings = max(int(np.ceil(np.log2(n - 1))), 1) if n > 2 else 1
    result = np.empty_like(d)
    for _ in range(squarings):
        for lo in range(0, n, row_block):
            hi = min(lo + row_block, n)
            result[lo:hi] = np.min(
                d[lo:hi, :, None] + d[None, :, :], axis=1
            )
        if np.array_equal(result, d):
            break
        d, result = result, d
    return d
