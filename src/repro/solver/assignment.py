"""Assignment trail: values, decision levels, reasons, backtracking.

The trail is the chronological record of all current assignments.  Each
variable stores the truth value, the decision level it was assigned at,
and the *reason* clause that implied it (``None`` for decisions).  This is
the state the propagator and conflict analyzer both walk.
"""

from __future__ import annotations

from typing import List, Optional

from repro.solver.clause_db import SolverClause
from repro.solver.types import FALSE, TRUE, UNASSIGNED, lit_sign_value, variable_of


def release(decider, undone: List[int]) -> None:
    """Phase saving and decision-queue maintenance for undone literals."""
    saved = decider.saved_phase
    requeue = decider.requeue
    for lit in undone:
        var = lit >> 1
        saved[var] = (lit & 1) == 0
        requeue(var)


class Trail:
    """Assignment state for ``num_vars`` variables (1-based)."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        n = num_vars + 1
        self.values: List[int] = [UNASSIGNED] * n  # per variable
        # Per-literal truth values, kept complementary to ``values``:
        # ``lit_values[lit]`` is TRUE/FALSE/UNASSIGNED for that literal
        # directly, sparing the propagator the ``>> 1`` / ``& 1`` / xor
        # dance on every watcher visit (the BCP hot path).
        self.lit_values: List[int] = [UNASSIGNED] * (2 * n)
        self.levels: List[int] = [0] * n
        self.reasons: List[Optional[SolverClause]] = [None] * n
        self.trail: List[int] = []  # internal literals, assignment order
        self.trail_lim: List[int] = []  # trail index where each level starts
        self.qhead: int = 0  # propagation queue head into trail

    # -- queries -------------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def value_var(self, var: int) -> int:
        return self.values[var]

    def value_lit(self, lit: int) -> int:
        """TRUE / FALSE / UNASSIGNED for an internal literal."""
        return self.lit_values[lit]

    def is_assigned(self, var: int) -> bool:
        return self.values[var] != UNASSIGNED

    def num_assigned(self) -> int:
        return len(self.trail)

    def all_assigned(self) -> bool:
        return len(self.trail) == self.num_vars

    # -- mutation --------------------------------------------------------------

    def new_decision_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def assign(self, lit: int, reason: Optional[SolverClause]) -> None:
        """Record ``lit`` as true at the current decision level."""
        var = lit >> 1
        assert self.values[var] == UNASSIGNED, f"variable {var} already assigned"
        self.values[var] = lit_sign_value(lit)
        self.lit_values[lit] = TRUE
        self.lit_values[lit ^ 1] = FALSE
        self.levels[var] = self.decision_level
        self.reasons[var] = reason
        self.trail.append(lit)

    def backtrack(self, level: int, decider=None) -> List[int]:
        """Undo all assignments above ``level``; returns unassigned literals.

        With a ``decider``, each undone variable also has its phase saved
        and is requeued for branching (see :func:`release`).
        """
        if level >= self.decision_level:
            return []
        boundary = self.trail_lim[level]
        undone = self.trail[boundary:]
        lit_values = self.lit_values
        values = self.values
        reasons = self.reasons
        for lit in undone:
            var = lit >> 1
            values[var] = UNASSIGNED
            lit_values[lit] = UNASSIGNED
            lit_values[lit ^ 1] = UNASSIGNED
            reasons[var] = None
        del self.trail[boundary:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))
        if decider is not None:
            release(decider, undone)
        return undone

    def model(self) -> List[Optional[bool]]:
        """Current assignment as an optional-bool list indexed by variable."""
        out: List[Optional[bool]] = [None] * (self.num_vars + 1)
        for var in range(1, self.num_vars + 1):
            v = self.values[var]
            if v == TRUE:
                out[var] = True
            elif v == FALSE:
                out[var] = False
        return out

    def reason_literals(self, var: int) -> List[int]:
        """Literals of the clause that implied ``var`` (any order).

        Core-agnostic accessor: callers that only need the reason's
        literal set (e.g. failed-assumption analysis) use this instead
        of dereferencing the reason representation, which differs
        between the object core (clause objects) and the arena core
        (clause ids / encoded binary reasons).
        """
        return self.reasons[var].lits

    def is_reason(self, clause: SolverClause) -> bool:
        """True when ``clause`` currently implies some assigned variable."""
        if not clause.lits:
            return False
        var = variable_of(clause.lits[0])
        return self.values[var] != UNASSIGNED and self.reasons[var] is clause
