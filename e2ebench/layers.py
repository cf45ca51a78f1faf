"""The program's layer entry points, as the benchmark calls them.

Untraced, :class:`Layers` hands out the program's own functions.  Traced,
it hands out the same functions wrapped by a :class:`~e2ebench.tracer.Tracer`,
and :func:`instrument_service` patches the module attributes the service
looks up at call time, so a hosted :class:`~repro.serve.SolveService`
reports its layers without a single edit to the program.

Span names (one per entry point):

==================  ====================================================
``cnf.parse``       ``repro.cnf.parse_dimacs``
``cnf.features``    ``repro.cnf.features.extract_features``
``graph.build``     ``BipartiteGraph(cnf)``; ``graph.batch``: ``batch_graphs``
``models.forward``  ``NeuroSelect.predict_proba`` / ``predict_proba_batch``
``parallel.run``    ``ParallelRunner.run`` (its self time is dispatch)
``solver.solve``    ``Solver.solve``; rollups below it: ``solver.propagate``,
                    ``solver.analyze``, ``solver.decide``,
                    ``solver.backtrack``; span ``solver.reduce`` with
                    rollup ``policies.score``
``session.add``     ``SolverSession.add``; ``session.solve``: ``.solve``
==================  ====================================================
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from repro.cnf.dimacs import parse_dimacs
from repro.cnf.features import extract_features
from repro.graph.bipartite import BipartiteGraph
from repro.solver.solver import Solver

_clock = time.perf_counter_ns

#: Solver counters summed per policy (deltas, so warm sessions count once).
COUNTERS = ("propagations", "conflicts", "decisions", "reductions")


class SolveCounts:
    """Per-policy solve wall time and counter deltas, thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        #: policy -> [solves, wall ns, *COUNTERS]
        self.by_policy: Dict[str, List[int]] = {}

    def add(self, policy: str, wall_ns: int, before, after) -> None:
        with self._lock:
            row = self.by_policy.setdefault(policy, [0] * (2 + len(COUNTERS)))
            row[0] += 1
            row[1] += wall_ns
            for i, (b, a) in enumerate(zip(before, after)):
                row[2 + i] += a - b

    def total(self, counter: str) -> int:
        i = 2 + COUNTERS.index(counter)
        return sum(row[i] for row in self.by_policy.values())


def _counters(stats):
    return tuple(getattr(stats, name) for name in COUNTERS)


def instrument_solver(tracer, counts: SolveCounts, solver: Solver) -> Solver:
    """Wrap one solver instance's components (instance attributes only)."""
    tracer.patch(solver.propagator, "propagate", "solver.propagate", rollup=True)
    tracer.patch(solver.analyzer, "analyze", "solver.analyze", rollup=True)
    tracer.patch(solver.decider, "pick_branch_literal", "solver.decide", rollup=True)
    tracer.patch(solver.trail, "backtrack", "solver.backtrack", rollup=True)
    reduce = tracer.wrap(solver.reducer.reduce, "solver.reduce")
    solve = tracer.wrap(solver.solve, "solver.solve")

    def traced_reduce(*args, **kwargs):
        # A session may swap the policy between calls; wrap whichever
        # policy this round scores with.
        policy = solver.reducer.policy
        if "score" not in vars(policy):
            tracer.patch(policy, "score", "policies.score", rollup=True)
        return reduce(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        before = _counters(solver.stats)
        start = _clock()
        result = solve(*args, **kwargs)
        counts.add(solver.policy.name, _clock() - start, before, _counters(solver.stats))
        return result

    solver.reducer.reduce = traced_reduce
    solver.solve = counted_solve
    return solver


class Layers:
    """Entry points for the in-process suite; traced when given a tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.counts = SolveCounts()
        if tracer is None:
            self.parse = parse_dimacs
            self.features = extract_features
            self.graph = BipartiteGraph
        else:
            self.parse = tracer.wrap(parse_dimacs, "cnf.parse")
            self.features = tracer.wrap(extract_features, "cnf.features")
            self.graph = tracer.wrap(BipartiteGraph, "graph.build")

    def forward(self, model):
        """``model.predict_proba``, traced as ``models.forward``."""
        if self.tracer is None:
            return model.predict_proba
        return self.tracer.wrap(model.predict_proba, "models.forward")

    def solver(self, cnf, policy, config) -> Solver:
        solver = Solver(cnf, policy=policy, config=config)
        if self.tracer is not None:
            instrument_solver(self.tracer, self.counts, solver)
        return solver


def instrument_service(tracer, counts: SolveCounts, service) -> None:
    """Trace a hosted service's layers through the attributes it calls.

    Module attributes are restored by ``tracer.restore()``; instance
    attributes die with the service.  Call before the first request.
    """
    import repro.parallel.runner as runner_mod
    import repro.selection.session as selector_mod
    import repro.serve.batcher as batcher_mod
    import repro.serve.http as http_mod
    import repro.serve.sessions as sessions_mod
    import repro.solver.session as session_mod

    tracer.patch(http_mod, "parse_dimacs", "cnf.parse")
    tracer.patch(batcher_mod, "BipartiteGraph", "graph.build")
    tracer.patch(batcher_mod, "batch_graphs", "graph.batch")
    tracer.patch(selector_mod, "extract_features", "cnf.features")
    tracer.patch(selector_mod, "BipartiteGraph", "graph.build")
    model = service.model
    tracer.patch(model, "predict_proba", "models.forward")
    tracer.patch(model, "predict_proba_batch", "models.forward")
    tracer.patch(service.runner, "run", "parallel.run")

    def traced_solver(*args, **kwargs):
        return instrument_solver(tracer, counts, Solver(*args, **kwargs))

    tracer.replace(runner_mod, "Solver", traced_solver)
    tracer.replace(session_mod, "Solver", traced_solver)
    session_cls = sessions_mod.SolverSession

    def traced_session(*args, **kwargs):
        session = session_cls(*args, **kwargs)
        tracer.patch(session, "add", "session.add")
        tracer.patch(session, "solve", "session.solve")
        return session

    tracer.replace(sessions_mod, "SolverSession", traced_session)
