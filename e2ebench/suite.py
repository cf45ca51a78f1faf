"""The ``suite`` workload: offline select + solve, one process.

For each instance the loop runs DIMACS text -> ``parse_dimacs`` ->
``extract_features`` -> ``BipartiteGraph`` -> HGT forward pass
(``NeuroSelect(seed=0)``), then solves the instance under both deletion
policies with ``default_labeling_config()``.  A seeded untrained model
always picks one policy, so both are solved to measure both.  The suite
is fixed work: ``rounds_for(seconds)`` rounds of the seeded families.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from e2ebench.checks import check_suite
from e2ebench.layers import Layers
from e2ebench.workloads import Item, suite_items

POLICIES = ("default", "frequency")
#: Mean wall of one round, select + both solves (2 vCPU x86 server).
SECONDS_PER_ROUND = 1.9

_clock = time.perf_counter_ns


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / SECONDS_PER_ROUND))


@dataclass
class InstanceRecord:
    item: Item
    #: DIMACS text in -> policy out (parse, features, graph, forward).
    select_ns: int
    #: policy -> (status, model, solve ns, propagations)
    answers: Dict[str, tuple]


def prepare(seed: int, seconds: float):
    """Set-up: imports, the seeded suite, the model and one warm-up op."""
    from repro.models import NeuroSelect

    items = suite_items(seed, rounds_for(seconds))
    model = NeuroSelect(seed=0)
    warm = [i for i in suite_items(seed, 1) if i.family == "pigeonhole"]
    run(warm, model, Layers())
    return items, model


def run(items: List[Item], model, layers: Layers):
    """Select + solve every item; returns (records, wall ns)."""
    from repro.policies import get_policy
    from repro.selection.labeling import default_labeling_config

    config = default_labeling_config()
    forward = layers.forward(model)
    tracer = layers.tracer
    records = []
    start = _clock()
    for index, item in enumerate(items):
        tag = tracer.op(index) if tracer else contextlib.nullcontext()
        with tag:
            op_start = _clock()
            cnf = layers.parse(item.dimacs)
            layers.features(cnf)
            forward(layers.graph(cnf))
            select_ns = _clock() - op_start
            answers = {}
            for policy in POLICIES:
                solver = layers.solver(cnf, get_policy(policy), config)
                solve_start = _clock()
                result = solver.solve()
                took = _clock() - solve_start
                answers[policy] = (
                    result.status.value, result.model, took,
                    result.stats.propagations,
                )
            records.append(InstanceRecord(item, select_ns, answers))
    return records, _clock() - start


def check(records: List[InstanceRecord]) -> List[Optional[str]]:
    """One verdict per instance (None: correct)."""
    from repro.cnf import parse_dimacs

    return [
        check_suite(
            parse_dimacs(r.item.dimacs),
            r.item.expected,
            {p: (a[0], a[1]) for p, a in r.answers.items()},
        )
        for r in records
    ]


def solve_totals(records: List[InstanceRecord]):
    """(total solve ns, total propagations) over both policies."""
    solve_ns = sum(a[2] for r in records for a in r.answers.values())
    props = sum(a[3] for r in records for a in r.answers.values())
    return solve_ns, props
