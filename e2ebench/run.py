#!/usr/bin/env python3
"""Run one benchmark workload; the last stdout line is its JSON result.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload suite --seed 1 --seconds 16 --trace 0
    python3 e2ebench/run.py --workload serve --seed 1 --seconds 16 --trace 1
    python3 e2ebench/run.py --write-spec          # rewrite BENCHMARK.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans to ``.e2ebench-out/``).  Every answer is
checked after the timed window; the result line carries ``attempted``
and ``failed`` ops.  The line before it carries the host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
OUT_DIR = ".e2ebench-out"


def _pin_to_one_cpu() -> None:
    """Run the whole load on one CPU, with one BLAS thread.

    The affinity and the environment pass to every child: the ``repro
    serve`` process and the set-up probes.  On a shared 2-vCPU host the
    hypervisor takes CPU time from one vCPU or the other (steal time,
    up to 20% of a run); a client-server round trip that hops between
    vCPUs waits whenever either is taken, which slowed some runs by a
    third.  On one vCPU the load sees at most that vCPU's steal, as a
    single-process workload does.  The closed loops here never keep two
    processes busy at once, so one CPU costs them no throughput.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _bootstrap() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("e2ebench: src/repro not found; run from a full checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _percentile_ms(values_ns, which: str) -> float:
    ms = [v / 1e6 for v in values_ns]
    if which == "p50":
        return statistics.median(ms)
    return statistics.quantiles(ms, n=20)[18] if len(ms) > 1 else ms[0]


# -- set-up -----------------------------------------------------------------------


def setup_probe(workload: str, seed: int, seconds: float) -> None:
    """Child-process body: set up as a run would, print READY, tear down."""
    from e2ebench import service, suite

    if workload == "suite":
        suite.prepare(seed, seconds)
        print("READY", flush=True)
        return
    service.inputs(workload, seed, seconds)
    server = service.start_server(ROOT, workload, seed)
    print("READY", flush=True)
    server.stop()


def measure_setup(workload: str, seed: int, seconds: float) -> float:
    """Median seconds from spawning a fresh process to READY."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.communicate(timeout=120)
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(took)
    return statistics.median(samples)


# -- one workload --------------------------------------------------------------------


@dataclass
class Outcome:
    """One pass over a workload's fixed work, answers checked."""

    verdicts: List[Optional[str]]
    #: Per-op latency: suite select latency, client latency otherwise.
    latencies_ns: List[int]
    wall_ns: int
    #: Solver wall time behind ``propagations``: the suite's own solves;
    #: for serve and session the in-process re-solves that check them.
    solve_ns: int
    propagations: int
    counts: object
    families: Dict[str, int]
    #: (reply body, client latency ns) of every 200 reply.
    replies: List[tuple] = field(default_factory=list)


def _drive(workload: str, seed: int, seconds: float, tracer=None, check=True) -> Outcome:
    """Run the workload's fixed work once; check every answer if asked."""
    from e2ebench import service, suite
    from e2ebench.layers import Layers, SolveCounts
    from e2ebench.workloads import describe

    if workload == "suite":
        items, model = suite.prepare(seed, seconds)
        layers = Layers(tracer)
        records, wall = suite.run(items, model, layers)
        solve_ns, props = suite.solve_totals(records)
        return Outcome(
            suite.check(records) if check else [None] * len(records),
            [r.select_ns for r in records], wall, solve_ns, props,
            layers.counts, describe(items),
        )
    stream = service.inputs(workload, seed, seconds)
    counts = SolveCounts()
    if tracer is None:
        server = service.start_server(ROOT, workload, seed)
        try:
            records, wall = service.run_against(server.port, workload, stream)
        finally:
            server.stop()
    else:
        records, wall = service.run_hosted(workload, seed, stream, tracer, counts)
    if workload == "serve":
        checker, families = service.check_serve_records, describe(stream)
        ops = records
    else:
        checker = service.check_session_records
        families = {"session-base/SAT": len({r[:2] for r in records})}
        ops = [(r[3], r[4], r[5]) for r in records if r[2] is not None]
    verdicts, props, solve_ns = checker(stream, records) if check else ([None] * len(ops), 0, 0)
    return Outcome(
        verdicts, [ns for _, _, ns in ops], wall, solve_ns, props, counts, families,
        [(body, ns) for code, body, ns in ops if code == 200],
    )


def end_to_end(workload, seed, seconds):
    setup_s = measure_setup(workload, seed, seconds)
    run = _drive(workload, seed, seconds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": run.wall_ns / 1e9,
        "us_per_prop": run.solve_ns / 1e3 / max(run.propagations, 1),
        "ops_per_s": len(run.verdicts) / (run.wall_ns / 1e9),
        "latency_p50_ms": _percentile_ms(run.latencies_ns, "p50"),
        "latency_p95_ms": _percentile_ms(run.latencies_ns, "p95"),
    }
    return run, metrics


def per_layer(workload, seed, seconds):
    from e2ebench.tracer import Tracer

    # The untraced pass is the baseline for the tracer's own overhead.
    untraced = _drive(workload, seed, seconds, check=False)
    tracer = Tracer()
    run = _drive(workload, seed, seconds, tracer)
    overhead = 100.0 * (run.wall_ns / untraced.wall_ns - 1)
    metrics = layer_metrics(tracer, run, overhead)
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    tracer.dump(
        os.path.join(ROOT, OUT_DIR, f"trace-{workload}-{seed}.json"),
        {"workload": workload, "seed": seed, "metrics": metrics},
    )
    return run, metrics


def layer_metrics(tracer, run: Outcome, overhead_pct: float) -> dict:
    summary = tracer.summary()
    counts, replies, ops = run.counts, run.replies, len(run.verdicts)

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_op_ms(*names):
        return sum(row(n)["total_s"] for n in names) * 1e3 / ops

    def reply_ms(key, which):
        values = [body[key] * 1e9 for body, _ in replies if key in body]
        return _percentile_ms(values, which) if values else 0.0

    def us_per_prop(policy):
        entry = counts.by_policy.get(policy)
        return entry[1] / 1e3 / entry[2] if entry and entry[2] else 0.0

    selections = [body["reused_embedding"] for body, _ in replies if "reused_embedding" in body]
    batches = [body["batch_size"] for body, _ in replies if "batch_size" in body]
    front = [ns - body["wall_seconds"] * 1e9 for body, ns in replies if "wall_seconds" in body]
    return {
        "cnf.parse_ms": per_op_ms("cnf.parse"),
        "cnf.parse_calls": row("cnf.parse")["calls"],
        "cnf.features_ms": per_op_ms("cnf.features"),
        "graph.build_ms": per_op_ms("graph.build", "graph.batch"),
        "models.forward_ms": per_op_ms("models.forward"),
        "models.forward_passes": row("models.forward")["calls"],
        "selection.reuse_ratio": sum(selections) / len(selections) if selections else 0.0,
        "serve.queue_wait_ms_p50": reply_ms("queue_wait_seconds", "p50"),
        "serve.queue_wait_ms_p95": reply_ms("queue_wait_seconds", "p95"),
        "serve.batch_size_mean": statistics.mean(batches) if batches else 0.0,
        "serve.server_ms_p50": reply_ms("wall_seconds", "p50"),
        "serve.front_door_ms_p50": _percentile_ms(front, "p50") if front else 0.0,
        "parallel.dispatch_ms": row("parallel.run")["self_s"] * 1e3 / ops,
        "solver.solve_s": row("solver.solve")["total_s"],
        "solver.propagate_s": row("solver.propagate")["total_s"],
        "solver.analyze_s": row("solver.analyze")["total_s"],
        "solver.decide_s": row("solver.decide")["total_s"],
        "solver.backtrack_s": row("solver.backtrack")["total_s"],
        "solver.reduce_s": row("solver.reduce")["total_s"],
        "solver.other_s": row("solver.solve")["self_s"],
        "solver.propagations": counts.total("propagations"),
        "solver.conflicts": counts.total("conflicts"),
        "solver.decisions": counts.total("decisions"),
        "solver.reductions": counts.total("reductions"),
        "solver.us_per_prop.default": us_per_prop("default"),
        "solver.us_per_prop.frequency": us_per_prop("frequency"),
        "policies.score_s": row("policies.score")["total_s"],
        "solver.session_add_ms": per_op_ms("session.add"),
        "solver.session_solve_ms": per_op_ms("session.solve"),
        "obs.trace_overhead_pct": overhead_pct,
    }


# -- host facts and output ---------------------------------------------------------------


def host_facts(workload: str, run: Outcome) -> dict:
    import numpy

    from e2ebench.service import CLIENTS

    try:
        import cffi
        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "commit": commit,
        "clients": CLIENTS.get(workload, 1),
        "ops": len(run.verdicts),
        "families": run.families,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("suite", "serve", "session"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from e2ebench/spec.py")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_spec:
        sys.path.insert(0, ROOT)
        from e2ebench.spec import benchmark_json

        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    _bootstrap()
    _pin_to_one_cpu()
    from e2ebench.spec import RUN_SECONDS

    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    if args.setup_probe:
        setup_probe(args.workload, args.seed, seconds)
        return 0
    measure = per_layer if args.trace else end_to_end
    run, metrics = measure(args.workload, args.seed, seconds)
    failures = [v for v in run.verdicts if v is not None]
    for problem in failures[:10]:
        print(f"e2ebench: wrong answer: {problem}", file=sys.stderr)
    unit = _units()
    print(json.dumps({"host": host_facts(args.workload, run)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(run.verdicts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


def _units() -> dict:
    from e2ebench.spec import END_TO_END, PER_LAYER

    return {row[0]: row[1] for row in END_TO_END + PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
