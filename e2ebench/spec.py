"""What the benchmark measures: workloads, metrics, bounds, run length.

``python3 e2ebench/run.py --write-spec`` renders this module as the
repository's ``BENCHMARK.json``; the runner prints exactly these metric
names.  Every end-to-end metric is reported on every workload (see
``e2ebench/README.md`` for what each means per workload).
"""

from __future__ import annotations

from e2ebench.workloads import WHY

#: Long enough to average out second-scale host noise; short enough
#: that 70 runs of the three workloads, with their set-up and checks,
#: take under an hour even on a host 40% slower than usual.
RUN_SECONDS = 16
WORKLOADS = ("suite", "serve", "session")

#: (name, unit, better, bound as a share of the parent's median).  On a
#: 2-vCPU x86 host, identical work ran up to 1.7x faster or slower from
#: one minute to the next, and 5-seed spreads (interquartile range over
#: median) of these metrics reached 0.07-0.13, so every bound is 0.25.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("us_per_prop", "us", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
)

#: (name, unit, better).  ``_ms`` metrics are per op (layer time summed
#: over the run, divided by the ops attempted); ``_s`` metrics and counts
#: are run totals.  A layer a workload never enters reads 0.
PER_LAYER = (
    ("cnf.parse_ms", "ms", "lower"),
    ("cnf.parse_calls", "count", "lower"),
    ("cnf.features_ms", "ms", "lower"),
    ("graph.build_ms", "ms", "lower"),
    ("models.forward_ms", "ms", "lower"),
    ("models.forward_passes", "count", "lower"),
    ("selection.reuse_ratio", "1", "higher"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p95", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.server_ms_p50", "ms", "lower"),
    ("serve.front_door_ms_p50", "ms", "lower"),
    ("parallel.dispatch_ms", "ms", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.propagate_s", "s", "lower"),
    ("solver.analyze_s", "s", "lower"),
    ("solver.decide_s", "s", "lower"),
    ("solver.backtrack_s", "s", "lower"),
    ("solver.reduce_s", "s", "lower"),
    ("solver.other_s", "s", "lower"),
    ("solver.propagations", "count", "lower"),
    ("solver.conflicts", "count", "lower"),
    ("solver.decisions", "count", "lower"),
    ("solver.reductions", "count", "lower"),
    ("solver.us_per_prop.default", "us", "lower"),
    ("solver.us_per_prop.frequency", "us", "lower"),
    ("policies.score_s", "s", "lower"),
    ("solver.session_add_ms", "ms", "lower"),
    ("solver.session_solve_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
