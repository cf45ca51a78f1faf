"""Answer checks, run after the timed window closes.

Each check returns None for a correct answer, or one line saying what is
wrong; run.py counts every non-None as a failed op.  A wrong status,
a model that does not satisfy the formula, a non-2xx reply and UNKNOWN
all fail.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.cnf.formula import CNF

DECIDED = ("SATISFIABLE", "UNSATISFIABLE")
STATUS = {"SAT": "SATISFIABLE", "UNSAT": "UNSATISFIABLE"}


def _status_problem(status, expected: Optional[str]) -> Optional[str]:
    if status not in DECIDED:
        return f"undecided answer {status!r}"
    if expected is not None and status != STATUS[expected]:
        return f"answered {status}, expected {STATUS[expected]}"
    return None


def check_suite(
    cnf: CNF,
    expected: Optional[str],
    answers: Dict[str, Tuple[str, Optional[list]]],
) -> Optional[str]:
    """One suite instance: ``answers`` maps policy -> (status, model).

    Every policy must decide, match the expected status, give a model
    that satisfies the formula when SAT, and agree with the other policy.
    """
    for policy, (status, model) in answers.items():
        problem = _status_problem(status, expected)
        if problem is None and status == "SATISFIABLE":
            if model is None or not cnf.check_model(model):
                problem = "model does not satisfy the formula"
        if problem:
            return f"{policy}: {problem}"
    statuses = {status for status, _ in answers.values()}
    if len(statuses) > 1:
        return f"policies disagree: {sorted(statuses)}"
    return None


def check_serve(
    cnf: CNF,
    expected: Optional[str],
    code: int,
    reply: dict,
    direct: Tuple[str, int],
) -> Optional[str]:
    """One ``POST /solve`` reply against a direct in-process solve.

    ``direct`` is (status, propagations) of the same formula solved under
    the reply's policy and conflict budget; the service must change where
    solving happens, never the answer or the effort.
    """
    if not 200 <= code < 300:
        return f"HTTP {code}: {reply}"
    status = reply.get("status")
    problem = _status_problem(status, expected)
    if problem:
        return problem
    if (status, reply.get("propagations")) != tuple(direct):
        return (
            f"served {status}/{reply.get('propagations')} props, "
            f"direct solve {direct[0]}/{direct[1]}"
        )
    if status == "SATISFIABLE" and not cnf.check_model(reply.get("model") or []):
        return "model does not satisfy the formula"
    return None


def check_session_call(
    clauses: Sequence[Sequence[int]],
    assume: Sequence[int],
    expected: Optional[str],
    code: int,
    reply: dict,
    unsat_under: Callable[[Sequence[int]], bool],
) -> Optional[str]:
    """One session call against the clauses accumulated so far.

    A SAT model must satisfy every clause and every assumption.  A failed
    core must be a non-empty subset of the assumptions under which
    ``unsat_under`` (a fresh solve) confirms UNSAT.
    """
    if not 200 <= code < 300:
        return f"HTTP {code}: {reply}"
    status = reply.get("status")
    problem = _status_problem(status, expected)
    if problem:
        return problem
    if status == "SATISFIABLE":
        true = set(reply.get("model") or ())
        if not all(lit in true for lit in assume):
            return "model violates an assumption"
        if not all(any(lit in true for lit in clause) for clause in clauses):
            return "model does not satisfy the accumulated clauses"
        return None
    core = reply.get("failed") or []
    if not core or not set(core) <= set(assume):
        return f"failed core {core} is not a non-empty subset of {list(assume)}"
    if not unsat_under(core):
        return f"failed core {core} is satisfiable on a fresh solve"
    return None
