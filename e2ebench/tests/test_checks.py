"""Injected wrong answers are counted as failed, never passed."""

from repro.cnf import CNF, parse_dimacs
from repro.solver import Solver, Status

from e2ebench import suite
from e2ebench.checks import check_serve, check_session_call, check_suite
from e2ebench.layers import Layers
from e2ebench.workloads import Item, to_dimacs

SAT = CNF([[1, 2], [-1, 2], [1, -2]])          # only model: 1, 2
UNSAT = CNF([[1], [-1, 2], [-2]])


def _model(cnf):
    return Solver(cnf).solve().model


def test_suite_check_passes_right_answers_and_fails_wrong_ones():
    good = ("SATISFIABLE", _model(SAT))
    assert check_suite(SAT, "SAT", {"default": good, "frequency": good}) is None
    flipped = ("UNSATISFIABLE", None)
    assert check_suite(SAT, "SAT", {"default": good, "frequency": flipped})
    corrupted = ("SATISFIABLE", [None, False, True])
    assert check_suite(SAT, "SAT", {"default": corrupted, "frequency": good})
    assert check_suite(SAT, "SAT", {"default": ("UNKNOWN", None)})
    # Both policies wrong the same way still fails on the expected status.
    assert check_suite(UNSAT, "UNSAT", {"default": ("SATISFIABLE", [None, True, True])})
    # Policies that disagree fail even with no expected status.
    assert check_suite(SAT, None, {"default": good, "frequency": flipped})


def test_suite_run_counts_an_injected_wrong_answer():
    items = [
        Item("sat", "toy", 2, 3, "SAT", to_dimacs(2, [[1, 2], [-1, 2], [1, -2]])),
        Item("unsat", "toy", 2, 3, "UNSAT", to_dimacs(2, [[1], [-1, 2], [-2]])),
    ]
    from repro.models import NeuroSelect

    records, _ = suite.run(items, NeuroSelect(hidden_dim=4, seed=0), Layers())
    assert suite.check(records) == [None, None]
    status, model, ns, props = records[0].answers["frequency"]
    records[0].answers["frequency"] = ("UNSATISFIABLE", None, ns, props)
    records[1].answers["default"] = ("SATISFIABLE", [None, True, True], ns, props)
    verdicts = suite.check(records)
    assert all(verdicts) and len(verdicts) == 2


def test_serve_check_compares_with_the_direct_solve():
    reply = {"status": "SATISFIABLE", "propagations": 4, "model": _model(SAT)}
    assert check_serve(SAT, None, 200, reply, ("SATISFIABLE", 4)) is None
    assert check_serve(SAT, None, 200, reply, ("SATISFIABLE", 5))
    assert check_serve(SAT, "UNSAT", 200, reply, ("SATISFIABLE", 4))
    assert check_serve(SAT, None, 200, dict(reply, status="UNSATISFIABLE"),
                       ("SATISFIABLE", 4))
    assert check_serve(SAT, None, 200, dict(reply, model=[None, False, False]),
                       ("SATISFIABLE", 4))
    assert check_serve(SAT, None, 504, reply, ("SATISFIABLE", 4))


def test_session_check_covers_models_assumptions_and_cores():
    clauses = [[1, 2], [-1, 3]]
    cnf = CNF(clauses)

    def unsat_under(core):
        return Solver(cnf).solve(assumptions=list(core)).status is Status.UNSATISFIABLE

    sat = {"status": "SATISFIABLE", "model": [1, -2, 3]}
    assert check_session_call(clauses, [1], "SAT", 200, sat, unsat_under) is None
    assert check_session_call(clauses, [-1], "SAT", 200, sat, unsat_under)
    bad_model = {"status": "SATISFIABLE", "model": [1, -2, -3]}
    assert check_session_call(clauses, [1], "SAT", 200, bad_model, unsat_under)
    flipped = {"status": "UNSATISFIABLE", "failed": [1]}
    assert check_session_call(clauses, [1], "SAT", 200, flipped, unsat_under)
    core = {"status": "UNSATISFIABLE", "failed": [1, -3]}
    assert check_session_call(clauses, [1, -3, 2], "UNSAT", 200, core, unsat_under) is None
    # A core outside the assumptions, or one that is satisfiable, fails.
    assert check_session_call(clauses, [1, 2], "UNSAT", 200, core, unsat_under)
    loose = {"status": "UNSATISFIABLE", "failed": [2]}
    assert check_session_call(clauses, [2, 1, -3], "UNSAT", 200, loose, unsat_under)
