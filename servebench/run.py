"""Serving benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 servebench/run.py --workload road-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions, reports the per-layer metrics and writes the
spans to ``.bench_out/trace-<workload>.npz``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

END_TO_END = {
    "setup_s": "s",
    "refresh_s": "s",
    "point_p50_us": "us",
    "point_p99_us": "us",
    "batch_qps": "1/s",
    "peak_rss_mb": "MB",
    "synopsis_bytes": "bytes",
}

PER_LAYER = {
    "engine.sweep_s": "s",
    "engine.sources_swept": "count",
    "engine.cells": "count",
    "engine.csr_compile_s": "s",
    "rng.laplace_draws": "count",
    "rng.laplace_s": "s",
    "apsp.hubs.build_s": "s",
    "apsp.hubs.self_s": "s",
    "apsp.hubs.ball_entries": "count",
    "apsp.hubs.pair_count": "count",
    "apsp.hubs.estimate_calls_per_query": "count",
    "mechanisms.select_s": "s",
    "mechanisms.build_s": "s",
    "serving.ledger.spends": "count",
    "serving.synopsis.distance_calls_per_query": "count",
    "serving.synopsis.distance_us": "us",
    "serving.service.point_self_us": "us",
    "serving.service.cache_hit_frac": "frac",
    "serving.sharding.intra_p50_us": "us",
    "serving.sharding.cross_p50_us": "us",
    "serving.sharding.boundary_size": "count",
    "serving.batching.run_us_per_query": "us",
    "serving.batching.unique_frac": "frac",
    "serving.batching.cache_hit_frac": "frac",
    "telemetry.point_overhead_us": "us",
    "telemetry.batch_overhead_us": "us",
    "trace.overhead_frac": "frac",
    "split.build_layers_frac": "frac",
    "split.query_route_frac": "frac",
    "split.setup_frac": "frac",
}

BUILD_LAYERS = ("engine.sweep", "engine.csr_compile", "apsp.hubs.build",
                "rng.laplace")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against anything else."""
    src = os.path.abspath(os.path.join(os.getcwd(), "src"))
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"servebench: no program at {src}/repro; run from the "
                 "repository root")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"servebench: imported repro from {repro.__file__}")


def per_layer(run) -> dict:
    s = run.rec.arrays()
    ones = np.ones(len(s.name))
    serves = s.mask("client.serve")
    points = s.mask("client.point")
    batches = s.mask("client.batch")

    def per_serve(name, values):
        """Median over the serve() calls of the total in that call."""
        m = s.mask(name)
        sums = np.bincount(s.root[m], weights=values[m],
                           minlength=len(s.name))
        return float(np.median(sums[serves]))

    def median(values):
        return float(np.median(values)) if len(values) else 0.0

    n_points = max(int(points.sum()), 1)
    dist = s.under("serving.synopsis.distance", points)
    est = s.under("apsp.hubs.estimate", points)
    svc = (s.under("serving.service.query", points)
           | s.under("serving.sharding.query", points))
    lookups = np.bincount(s.root[dist], minlength=len(s.name))[points]
    cross = np.concatenate(run.point_route)[s.query[svc]]
    svc_dur = s.dur[svc]
    batch_run = s.under("serving.batching.run", batches)
    client = serves | s.mask("client.update") | points | batches
    client_s = float(s.dur[client].sum())
    build = np.zeros(len(s.name), dtype=bool)
    for name in BUILD_LAYERS:
        build |= s.mask(name)
    query_s = float(s.dur[points | batches].sum())
    route_s = float(svc_dur.sum()
                    + s.dur[s.under("serving.synopsis.distance", batches)]
                    .sum())
    twin = run.twin_metrics
    # Wrapper cost of the spans inside the query phase (the client
    # root spans time the calls in the untraced run too).
    in_query = (points | batches)[s.root] & ~(points | batches)
    wrapped_s = int(in_query.sum()) * run.rec.span_cost()
    batch_q = max(run.batch_queries, 1)
    return {
        "engine.sweep_s": per_serve("engine.sweep", s.dur),
        "engine.sources_swept": per_serve("engine.sweep", s.count_a),
        "engine.cells": per_serve("engine.sweep", s.count_b),
        "engine.csr_compile_s": per_serve("engine.csr_compile", s.dur),
        "rng.laplace_draws": per_serve("rng.laplace", s.count_a),
        "rng.laplace_s": per_serve("rng.laplace", s.dur),
        "apsp.hubs.build_s": per_serve("apsp.hubs.build", s.dur),
        "apsp.hubs.self_s": per_serve("apsp.hubs.build", s.self_time),
        "apsp.hubs.ball_entries": per_serve("apsp.hubs.build", s.count_a),
        "apsp.hubs.pair_count": per_serve("apsp.hubs.build", s.count_b),
        "apsp.hubs.estimate_calls_per_query": int(est.sum()) / n_points,
        "mechanisms.select_s": per_serve("mechanisms.select", s.dur),
        "mechanisms.build_s": per_serve("mechanisms.build", s.dur),
        "serving.ledger.spends": per_serve("serving.ledger.spend", ones),
        "serving.synopsis.distance_calls_per_query":
            int(dist.sum()) / n_points,
        "serving.synopsis.distance_us":
            1e6 * float(s.dur[dist].mean()) if dist.any() else 0.0,
        "serving.service.point_self_us": 1e6 * median(s.self_time[svc]),
        "serving.service.cache_hit_frac":
            float(np.mean(lookups == 0)) if len(lookups) else 0.0,
        "serving.sharding.intra_p50_us": 1e6 * median(svc_dur[~cross]),
        "serving.sharding.cross_p50_us": 1e6 * median(svc_dur[cross]),
        "serving.sharding.boundary_size":
            len(run.server.plan.boundary) if run.w.shards > 1 else 0,
        "serving.batching.run_us_per_query":
            1e6 * float(s.dur[batch_run].sum()) / batch_q,
        "serving.batching.unique_frac": run.batch_unique / batch_q,
        "serving.batching.cache_hit_frac": run.batch_hits / batch_q,
        "telemetry.point_overhead_us": twin["point_overhead_us"],
        "telemetry.batch_overhead_us": twin["batch_overhead_us"],
        "trace.overhead_frac": wrapped_s / max(query_s - wrapped_s, 1e-12),
        "split.build_layers_frac": float(s.self_time[build].sum()) / client_s,
        "split.query_route_frac": route_s / query_s if query_s else 0.0,
        "split.setup_frac": float(s.dur[serves].sum()) / client_s,
    }


def main(argv=None, small: bool = False) -> int:
    """``small`` runs the named workload on a tiny city; only the smoke
    test asks for it, so its figures never pass for a real run's."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    if small:
        workload = bench.small(workload)
    run = bench.Run(workload, args.seed, args.seconds, bool(args.trace))
    run.run()

    if args.trace:
        values, units = per_layer(run), PER_LAYER
        os.makedirs(".bench_out", exist_ok=True)
        trace_path = os.path.join(".bench_out", f"trace-{workload.name}.npz")
        run.rec.save(trace_path)
    else:
        values, units = run.end_to_end(), END_TO_END
        trace_path = None

    for name, unit in units.items():
        print(f"{workload.name:13s} {name:42s} {values[name]:>16.6g} {unit}")
    hits = run.cache_hits()
    for name, value in hits.items():
        print(f"{workload.name:13s} {name:42s} {value:>16.6g} frac "
              "(set by the assumed traffic mix; not gated)")
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "samples": run.samples(),
        **hits,
        **run.digests(),
        "ledger_spends_last_epoch": run.spends,
        "errors": run.tally.errors,
        "trace_file": trace_path,
        "notes": [
            "point latencies are client-side and include cache hits; "
            "the cache-hit shares come from an assumed traffic mix",
            "zero_answers counts answers clamped to exactly 0: at eps=1 "
            "the hub noise scale dwarfs every distance",
            "synopsis_bytes counts synopsis.to_json(); on sharded "
            "workloads the sum over shard_services, without the relay, "
            "which has no public serializer",
        ],
    }
    print(json.dumps({"info": info}))
    tally = run.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
