"""The seeded generator: deterministic, seed-sensitive, statuses certified."""

import pytest

from repro.cnf import parse_dimacs
from repro.solver import Solver, Status, check_drat
from repro.solver.proof import ProofLog

from e2ebench.workloads import (
    SUITE_ROUND,
    describe,
    serve_item,
    session_plan,
    suite_items,
)


def _fingerprint(seed):
    return (
        [item.dimacs for item in suite_items(seed, 1)],
        [serve_item(seed, i) for i in range(20)],
        session_plan(seed, 0, 0),
    )


def test_generator_is_byte_identical_per_seed_and_differs_across_seeds():
    assert _fingerprint(5) == _fingerprint(5)
    first, second = _fingerprint(5), _fingerprint(6)
    assert all(a != b for a, b in zip(first[0], second[0]))
    assert first[1] != second[1] and first[2] != second[2]


def test_items_record_family_size_and_expected_status():
    items = suite_items(3, 2)
    assert len(items) == 2 * len(SUITE_ROUND)
    for item in items:
        cnf = parse_dimacs(item.dimacs)
        assert (cnf.num_vars, cnf.num_clauses) == (item.num_vars, item.num_clauses)
        assert item.expected in ("SAT", "UNSAT")
    assert sum(describe(items).values()) == len(items)


@pytest.mark.parametrize("slot", range(len(SUITE_ROUND)))
def test_suite_statuses_are_certified(slot):
    """SAT by a checked model, UNSAT by a checked DRAT proof (seed 0)."""
    item = suite_items(0, 1)[slot]
    cnf = parse_dimacs(item.dimacs)
    proof = ProofLog()
    result = Solver(cnf, proof=proof).solve()
    if item.expected == "SAT":
        assert result.status is Status.SATISFIABLE
        assert cnf.check_model(result.model)
    else:
        assert result.status is Status.UNSATISFIABLE
        assert check_drat(cnf, proof.text())


def test_serve_items_with_a_known_status_have_it():
    for i in range(30):
        item = serve_item(0, i)
        if item.expected is None:
            continue
        result = Solver(parse_dimacs(item.dimacs)).solve()
        assert result.status.value.startswith(item.expected)


def test_session_schedule_answers_are_certified():
    plan = session_plan(0, 0, 0)
    cnf = parse_dimacs(plan.base.dimacs)
    assert Solver(cnf).solve().status is Status.SATISFIABLE
    kinds = set()
    for call in plan.calls:
        for clause in call.add:
            cnf.add_clause(clause)
        result = Solver(cnf).solve(assumptions=list(call.assume))
        kinds.add(call.expected)
        if call.expected == "SAT":
            assert result.status is Status.SATISFIABLE
            assert cnf.check_model(result.model)
        else:
            assert result.status is Status.UNSATISFIABLE
            assert set(result.core) <= set(call.assume)
    assert kinds == {"SAT", "UNSAT"}
