"""Pluggable oracle bank for differential solver testing.

An *oracle* cross-checks one solve result against an independent source
of truth and reports every disagreement as a structured
:class:`Discrepancy`.  The bank bundles the repository's full set of
cross-checks:

* :class:`ModelCheckOracle` — a SAT answer must come with a model that
  actually satisfies the formula;
* :class:`BruteForceOracle` — exhaustive enumeration on small formulas;
* :class:`DPLLOracle` — the plain recursive DPLL reference;
* :class:`PolicyAgreementOracle` — both clause-deletion policies must
  agree on the verdict (the label-poisoning guard: a policy that flips
  SAT/UNSAT corrupts every Sec. 5.1 training label downstream);
* :class:`PreprocessingOracle` — simplification must be
  equisatisfiable and its reconstructed models must check out;
* :class:`DratOracle` — UNSAT answers must come with a checkable DRAT
  refutation;
* :class:`MetamorphicOracle` — satisfiability-preserving transforms
  (variable renaming, polarity flips, clause permutation and
  duplication) must not flip the verdict;
* :class:`SameSearchOracle` — the compiled arena kernels must follow
  the Python reference bodies' search exactly.

All solving goes through an :class:`OracleContext`, which memoizes
results per (formula, policy) and lets tests inject a deliberately
buggy solver via ``solve_fn`` — the hook the shrinker tests use to
prove that an injected soundness fault is found, minimized, and
replayed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cnf.dimacs import to_dimacs
from repro.cnf.formula import CNF
from repro.cnf.transforms import (
    duplicate_clauses,
    flip_polarity,
    rename_variables,
    shuffle_clauses,
)
from repro.policies.registry import get_policy
from repro.solver.drat import DratError, check_drat
from repro.solver.proof import ProofLog
from repro.solver import native
from repro.solver.reference import brute_force_status, dpll_solve
from repro.solver.session import SolverSession
from repro.solver.solver import Solver, SolverConfig
from repro.solver.types import Model, Status

#: Default per-solve conflict budget (deterministic, unlike wall clock).
DEFAULT_BUDGET = 2000

#: ``solve_fn`` signature: (cnf, policy_name, max_conflicts, proof) ->
#: (status, model).  The ``proof`` argument is an optional
#: :class:`~repro.solver.proof.ProofLog` the callee should log into.
SolveFn = Callable[[CNF, str, int, Optional[ProofLog]], Tuple[Status, Optional[Model]]]


def formula_key(cnf: CNF) -> str:
    """Content hash of a formula (stable across object identity)."""
    return hashlib.sha256(to_dimacs(cnf).encode("utf-8")).hexdigest()


def default_solve_fn(
    cnf: CNF,
    policy: str = "default",
    max_conflicts: int = DEFAULT_BUDGET,
    proof: Optional[ProofLog] = None,
) -> Tuple[Status, Optional[Model]]:
    """Solve with the real CDCL engine (the production subject)."""
    result = Solver(cnf, policy=get_policy(policy), proof=proof).solve(
        max_conflicts=max_conflicts
    )
    return result.status, result.model


def make_solve_fn(core: str) -> SolveFn:
    """A :data:`SolveFn` pinned to one solver core (``object``/``arena``).

    Campaigns use this to fuzz a specific core; the returned callable
    has the exact subject-solver signature, so shrink predicates and
    corpus replays reproduce the same configuration.
    """

    def solve_fn(
        cnf: CNF,
        policy: str = "default",
        max_conflicts: int = DEFAULT_BUDGET,
        proof: Optional[ProofLog] = None,
    ) -> Tuple[Status, Optional[Model]]:
        result = Solver(
            cnf,
            policy=get_policy(policy),
            proof=proof,
            config=SolverConfig(core=core),
        ).solve(max_conflicts=max_conflicts)
        return result.status, result.model

    return solve_fn


@dataclass(frozen=True)
class Discrepancy:
    """One observed disagreement between the subject and an oracle.

    ``kind`` is a stable machine-readable label (``status-mismatch``,
    ``model-invalid``, ``proof-invalid``, ``metamorphic-flip``,
    ``oracle-crash``) used by the shrinker's failure predicate and by
    corpus manifests; ``detail`` is the human-readable explanation.
    """

    oracle: str
    kind: str
    case: str
    expected: str
    observed: str
    detail: str = ""

    def summary(self) -> str:
        """One-line rendering for CLI output and trace events."""
        line = (
            f"[{self.oracle}] {self.kind} on {self.case}: "
            f"expected {self.expected}, observed {self.observed}"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line

    def matches(self, other: "Discrepancy") -> bool:
        """True when ``other`` is the same failure mode (oracle + kind)."""
        return self.oracle == other.oracle and self.kind == other.kind


class OracleContext:
    """Solve memoization + configuration shared by one case's checks.

    ``solve_fn`` defaults to the real solver; tests inject buggy
    wrappers here.  ``prefill`` seeds the memo table with results
    computed elsewhere (the campaign's :class:`ParallelRunner` fan-out),
    keyed by ``(formula_key(cnf), policy)``.
    """

    def __init__(
        self,
        case: str = "",
        budget: int = DEFAULT_BUDGET,
        solve_fn: Optional[SolveFn] = None,
        prefill: Optional[Dict[Tuple[str, str], Tuple[Status, Optional[Model]]]] = None,
        brute_force_max_vars: int = 13,
        dpll_max_vars: int = 30,
    ):
        self.case = case
        self.budget = budget
        self.solve_fn: SolveFn = solve_fn or default_solve_fn
        self.brute_force_max_vars = brute_force_max_vars
        self.dpll_max_vars = dpll_max_vars
        self.solves = 0
        self._memo: Dict[Tuple[str, str], Tuple[Status, Optional[Model]]] = dict(
            prefill or {}
        )

    def solve(self, cnf: CNF, policy: str = "default") -> Tuple[Status, Optional[Model]]:
        """Memoized subject solve of ``cnf`` under ``policy``."""
        key = (formula_key(cnf), policy)
        if key not in self._memo:
            self._memo[key] = self.solve_fn(cnf, policy, self.budget, None)
            self.solves += 1
        return self._memo[key]

    def solve_core(
        self, cnf: CNF, core: str, assumptions: Sequence[int] = ()
    ) -> Tuple[Status, Optional[Model]]:
        """Memoized solve pinned to one solver core (default policy).

        Bypasses ``solve_fn`` deliberately: the core-agreement check
        compares the two real engines against each other, independent of
        whatever subject (possibly a fault-injected wrapper) the rest of
        the bank is exercising.  Memo keys are namespaced (``core:``,
        plus the assumption literals when given) so they never collide
        with per-policy subject results.
        """
        assumed = tuple(int(lit) for lit in assumptions)
        tag = f"core:{core}"
        if assumed:
            tag += ":" + ",".join(map(str, assumed))
        key = (formula_key(cnf), tag)
        if key not in self._memo:
            result = Solver(cnf, config=SolverConfig(core=core)).solve(
                assumptions=assumed, max_conflicts=self.budget
            )
            self._memo[key] = (result.status, result.model)
            self.solves += 1
        return self._memo[key]


class Oracle:
    """Base class: one independent cross-check of a solve result."""

    #: Stable oracle identifier used in discrepancies and manifests.
    name = "oracle"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Return every disagreement found on ``cnf`` (empty when clean)."""
        raise NotImplementedError

    def _mismatch(
        self,
        ctx: OracleContext,
        kind: str,
        expected: str,
        observed: str,
        detail: str = "",
    ) -> Discrepancy:
        """Shorthand constructor stamping this oracle's name and case."""
        return Discrepancy(
            oracle=self.name,
            kind=kind,
            case=ctx.case,
            expected=expected,
            observed=observed,
            detail=detail,
        )


class ModelCheckOracle(Oracle):
    """A SAT verdict must carry a model that satisfies the formula."""

    name = "model-check"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Validate the subject's model whenever it claims SAT."""
        status, model = ctx.solve(cnf)
        if status is not Status.SATISFIABLE:
            return []
        if model is None:
            return [self._mismatch(ctx, "model-invalid", "model", "None",
                                   "SAT verdict without a model")]
        if not cnf.check_model(model):
            return [self._mismatch(ctx, "model-invalid", "satisfying model",
                                   "falsified clause",
                                   "reported model does not satisfy the formula")]
        return []


class BruteForceOracle(Oracle):
    """Exhaustive enumeration on small formulas — the ground truth."""

    name = "brute-force"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Compare a decided subject verdict against full enumeration."""
        if len(cnf.variables()) > ctx.brute_force_max_vars:
            return []
        status, _ = ctx.solve(cnf)
        if not status.decided:
            return []
        truth = brute_force_status(cnf, max_vars=ctx.brute_force_max_vars)
        if truth is not status:
            return [self._mismatch(ctx, "status-mismatch", truth.value, status.value)]
        return []


class DPLLOracle(Oracle):
    """Plain recursive DPLL as an independent complete procedure."""

    name = "dpll"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Compare a decided subject verdict against the DPLL reference."""
        if len(cnf.variables()) > ctx.dpll_max_vars:
            return []
        status, _ = ctx.solve(cnf)
        if not status.decided:
            return []
        truth, _ = dpll_solve(cnf)
        if truth is not status:
            return [self._mismatch(ctx, "status-mismatch", truth.value, status.value)]
        return []


def derive_schedule(
    cnf: CNF, steps: int = 6, seed_key: Optional[str] = None
) -> List[Tuple[str, List[int]]]:
    """A deterministic incremental schedule derived from the formula.

    Returns ``("add", lits)`` / ``("solve", assumptions)`` steps (the
    format :func:`repro.solver.session.replay_schedule` consumes),
    seeded from the formula's content hash, so every independent caller
    — campaign, corpus replay, the session-smoke job — drives the exact
    same schedule for a given CNF.  The schedule always begins with an
    unassumed solve (the base verdict) and ends with an assumed one.
    """
    variables = sorted(cnf.variables())
    if not variables:
        return []
    rng = random.Random(int((seed_key or formula_key(cnf))[:16], 16))

    def assumption_set() -> List[int]:
        count = rng.randint(1, min(3, len(variables)))
        chosen = rng.sample(variables, count)
        return [var if rng.random() < 0.5 else -var for var in chosen]

    schedule: List[Tuple[str, List[int]]] = [("solve", [])]
    for _ in range(max(0, steps)):
        if rng.random() < 0.4:
            size = rng.randint(1, min(3, len(variables)))
            clause = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(variables, size)
            ]
            schedule.append(("add", clause))
        else:
            schedule.append(("solve", assumption_set()))
    schedule.append(("solve", assumption_set()))
    return schedule


class PolicyAgreementOracle(Oracle):
    """Two solver configurations must return the same verdict.

    ``mode="policies"`` (the default) solves under both clause-deletion
    policies: deletion changes *effort*, never *truth*, and a
    disagreement here is the exact soundness bug that silently poisons
    the paper's dual-policy labels.  ``mode="cores"`` instead solves
    with the object core and the arena core directly — the differential
    check that pins the flat-arena BCP engine to the reference
    object-graph engine.  Verdicts are only compared when both runs
    decided within budget — configuration legitimately shifts how far a
    budget reaches.

    In ``cores`` mode the one-shot comparison is followed by an
    *incremental* one: a deterministic add-clause/assumption schedule
    (:func:`derive_schedule`) is driven through a warm
    :class:`~repro.solver.session.SolverSession` on each core, and at
    every solve step the oracle demands

    * identical decided statuses across the two cores,
    * an arena status bit-identical to a fresh re-solve of the
      accumulated formula under the same assumptions (the warm state
      must never change an answer), and
    * a *consistent* failed-assumption core for every
      UNSAT-under-assumptions answer: the core is a subset of the
      assumptions, and the accumulated formula is still UNSAT under
      the core alone (``analyzeFinal`` cores are sound but not
      guaranteed subset-minimal, so minimality is not asserted).
    """

    MODES = ("policies", "cores")

    #: Formulas with more variables than this skip the incremental
    #: schedule (the one-shot comparison still runs) — schedules
    #: re-solve several times per case and fuzz formulas are small.
    schedule_max_vars = 120

    #: Random steps per derived schedule (plus the fixed first/last solve).
    schedule_steps = 6

    def __init__(self, mode: str = "policies"):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.name = "policy-agreement" if mode == "policies" else "core-agreement"
        #: Test hook: builds the per-core warm session the schedule
        #: drives.  Replacing it with a factory that returns a corrupted
        #: session proves the incremental checks actually detect bugs.
        self.session_factory: Callable[[CNF, str], SolverSession] = (
            lambda formula, core: SolverSession(
                formula.copy(), config=SolverConfig(core=core)
            )
        )

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Solve both configurations and compare decided verdicts."""
        if self.mode == "policies":
            left_name, right_name = "default", "frequency"
            left, _ = ctx.solve(cnf, "default")
            right, _ = ctx.solve(cnf, "frequency")
            detail = "deletion policies disagree on satisfiability"
        else:
            left_name, right_name = "object", "arena"
            left, _ = ctx.solve_core(cnf, "object")
            right, _ = ctx.solve_core(cnf, "arena")
            detail = "solver cores disagree on satisfiability"
        found: List[Discrepancy] = []
        if left.decided and right.decided and left is not right:
            found.append(self._mismatch(
                ctx, "status-mismatch",
                f"{left_name}={left.value}",
                f"{right_name}={right.value}",
                detail,
            ))
        if self.mode == "cores" and len(cnf.variables()) <= self.schedule_max_vars:
            found.extend(self._check_schedule(cnf, ctx))
        return found

    # -- the incremental cross-core battery --------------------------------

    def _check_schedule(
        self, cnf: CNF, ctx: OracleContext
    ) -> List[Discrepancy]:
        """Drive one derived schedule through both cores and cross-check."""
        schedule = derive_schedule(cnf, steps=self.schedule_steps)
        if not schedule:
            return []
        sessions = {
            core: self.session_factory(cnf, core)
            for core in ("object", "arena")
        }
        accumulated = cnf.copy()
        found: List[Discrepancy] = []
        for index, (op, lits) in enumerate(schedule):
            if op == "add":
                accumulated.add_clause(lits)
                for session in sessions.values():
                    session.add(*lits)
                continue
            results = {
                core: session.solve(
                    assumptions=lits, max_conflicts=ctx.budget
                )
                for core, session in sessions.items()
            }
            where = f"schedule step {index} (assumptions {lits})"
            left, right = results["object"].status, results["arena"].status
            if left.decided and right.decided and left is not right:
                found.append(self._mismatch(
                    ctx, "status-mismatch",
                    f"object={left.value}", f"arena={right.value}",
                    f"incremental cores disagree at {where}",
                ))
            fresh, _ = ctx.solve_core(accumulated, "arena", assumptions=lits)
            incremental = results["arena"].status
            if (
                fresh.decided
                and incremental.decided
                and fresh is not incremental
            ):
                found.append(self._mismatch(
                    ctx, "status-mismatch",
                    f"fresh={fresh.value}",
                    f"incremental={incremental.value}",
                    f"warm arena session diverged from a fresh re-solve "
                    f"at {where}",
                ))
            for core, result in results.items():
                found.extend(self._check_core_soundness(
                    ctx, accumulated, core, lits, result, where
                ))
        return found

    def _check_core_soundness(
        self,
        ctx: OracleContext,
        accumulated: CNF,
        core: str,
        assumptions: List[int],
        result,
        where: str,
    ) -> List[Discrepancy]:
        """Failed-assumption cores must be assumption subsets that still
        make the formula UNSAT (consistency; minimality not guaranteed)."""
        if result.status is not Status.UNSATISFIABLE or result.core is None:
            return []
        found: List[Discrepancy] = []
        if not set(result.core) <= set(assumptions):
            found.append(self._mismatch(
                ctx, "core-not-assumptions",
                f"subset of {assumptions}",
                f"{core} core {result.core}",
                f"failed-assumption core contains non-assumption "
                f"literals at {where}",
            ))
            return found
        status, _ = ctx.solve_core(
            accumulated, "arena", assumptions=result.core
        )
        if status is Status.SATISFIABLE:
            found.append(self._mismatch(
                ctx, "core-insufficient",
                "UNSAT under the failed-assumption core",
                "SATISFIABLE",
                f"{core} core {result.core} does not preserve "
                f"unsatisfiability at {where}",
            ))
        return found


class PreprocessingOracle(Oracle):
    """Simplification must be equisatisfiable with the input formula."""

    name = "preprocessing"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Compare plain solving against preprocess-then-solve."""
        from repro.simplify import solve_with_preprocessing

        status, _ = ctx.solve(cnf)
        if not status.decided:
            return []
        pre = solve_with_preprocessing(cnf, max_conflicts=ctx.budget)
        if not pre.status.decided:
            return []
        if pre.status is not status:
            return [self._mismatch(
                ctx, "status-mismatch",
                f"plain={status.value}", f"preprocessed={pre.status.value}",
                "simplification changed satisfiability",
            )]
        if pre.status is Status.SATISFIABLE and (
            pre.model is None or not cnf.check_model(pre.model)
        ):
            return [self._mismatch(
                ctx, "model-invalid", "reconstructed satisfying model",
                "falsified clause",
                "model reconstruction after preprocessing failed",
            )]
        return []


class DratOracle(Oracle):
    """UNSAT answers must come with a checkable DRAT refutation."""

    name = "drat"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Re-solve with proof logging and verify the refutation."""
        status, _ = ctx.solve(cnf)
        if status is not Status.UNSATISFIABLE:
            return []
        proof = ProofLog()
        proved_status, _ = ctx.solve_fn(cnf, "default", ctx.budget, proof)
        if proved_status is not Status.UNSATISFIABLE:
            return [self._mismatch(
                ctx, "status-mismatch", Status.UNSATISFIABLE.value,
                proved_status.value,
                "verdict changed between identical proof-logged runs",
            )]
        try:
            check_drat(cnf, proof.text())
        except DratError as exc:
            return [self._mismatch(
                ctx, "proof-invalid", "valid DRAT refutation", "DratError",
                str(exc),
            )]
        return []


class MetamorphicOracle(Oracle):
    """Satisfiability-preserving transforms must not flip the verdict.

    The mutation schedule is derived deterministically from the
    mutation seed, so a campaign that fanned the same mutants out
    through the parallel runner pre-fills the context's memo table and
    this oracle re-solves nothing.
    """

    name = "metamorphic"

    def __init__(self, mutants: int = 2, seed: int = 0):
        if mutants < 0:
            raise ValueError("mutants must be >= 0")
        self.mutants = mutants
        self.seed = seed

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Solve each derived mutant and compare decided verdicts."""
        status, _ = ctx.solve(cnf)
        if not status.decided:
            return []
        found: List[Discrepancy] = []
        for mutant_name, mutant in derive_mutants(cnf, self.seed, self.mutants):
            mutant_status, _ = ctx.solve(mutant)
            if mutant_status.decided and mutant_status is not status:
                found.append(self._mismatch(
                    ctx, "metamorphic-flip", status.value, mutant_status.value,
                    f"mutation {mutant_name} flipped the verdict",
                ))
        return found


class SameSearchOracle(Oracle):
    """The compiled kernels must reproduce the Python reference exactly.

    Each subject runs twice, once with the compiled arena kernels
    (:mod:`repro.solver.native`) and once with the Python reference
    bodies: a proof-logged one-shot solve under each deletion policy,
    then a warm :class:`~repro.solver.session.SolverSession` driven
    through the :func:`derive_schedule` schedule.  Statistics, models,
    failed-assumption cores and DRAT proof text must be identical —
    the kernels are a faster rendering of the same search, not a
    different solver.  Without compiled kernels both runs are the
    reference and the check is vacuous.
    """

    name = "same-search"

    #: Formulas with more variables than this skip the warm schedule.
    schedule_max_vars = 120

    #: Random steps per derived schedule (plus the fixed first/last solve).
    schedule_steps = 6

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Run both renderings and report every observable that differs."""
        compiled = self.observe(cnf, ctx.budget)
        with native._reference_bodies():
            reference = self.observe(cnf, ctx.budget)
        return [
            self._mismatch(
                ctx, "search-diverged", f"reference {key}", f"compiled {key}",
                "compiled kernels left the reference search",
            )
            for key in reference
            if compiled.get(key) != reference[key]
        ]

    def observe(self, cnf: CNF, budget: int) -> Dict[str, Any]:
        """Everything a search exposes, keyed by where it was observed."""
        seen: Dict[str, Any] = {}
        for policy in ("default", "frequency"):
            proof = ProofLog()
            result = Solver(cnf, policy=get_policy(policy), proof=proof).solve(
                max_conflicts=budget
            )
            seen[f"{policy} solve"] = (
                result.status, result.model, result.stats.to_dict()
            )
            seen[f"{policy} proof"] = proof.text()
        if len(cnf.variables()) > self.schedule_max_vars:
            return seen
        proof = ProofLog()
        session = SolverSession(cnf.copy(), proof=proof)
        for index, (op, lits) in enumerate(
            derive_schedule(cnf, steps=self.schedule_steps)
        ):
            if op == "add":
                session.add(*lits)
                continue
            result = session.solve(assumptions=lits, max_conflicts=budget)
            seen[f"schedule step {index}"] = (
                result.status, result.model, result.core,
                result.stats.to_dict(),
            )
        seen["schedule proof"] = proof.text()
        return seen


#: The deterministic mutation cycle shared by campaigns and the
#: metamorphic oracle (order matters: both sides must derive the same
#: mutants for runner pre-fill to hit).
_MUTATION_KINDS: Tuple[str, ...] = ("rename", "flip", "shuffle", "duplicate")


def derive_mutants(
    cnf: CNF, seed: int, count: int
) -> List[Tuple[str, CNF]]:
    """Derive ``count`` satisfiability-preserving mutants of ``cnf``.

    Cycles through variable renaming, polarity flips, clause shuffling,
    and clause duplication with seeds derived from ``seed`` — fully
    deterministic, so independent callers agree on the exact mutants.
    """
    mutants: List[Tuple[str, CNF]] = []
    for i in range(count):
        kind = _MUTATION_KINDS[i % len(_MUTATION_KINDS)]
        sub_seed = seed * 1009 + i
        if kind == "rename":
            mutant = rename_variables(cnf, seed=sub_seed)
        elif kind == "flip":
            mutant = flip_polarity(cnf, seed=sub_seed)
        elif kind == "shuffle":
            mutant = shuffle_clauses(cnf, seed=sub_seed)
        else:
            mutant = duplicate_clauses(cnf, seed=sub_seed)
        mutants.append((f"{kind}#{i}", mutant))
    return mutants


def default_oracles(mutants: int = 2, mutation_seed: int = 0) -> List[Oracle]:
    """The full cross-check set, cheapest first."""
    return [
        ModelCheckOracle(),
        BruteForceOracle(),
        DPLLOracle(),
        PolicyAgreementOracle(),
        PolicyAgreementOracle(mode="cores"),
        MetamorphicOracle(mutants=mutants, seed=mutation_seed),
        PreprocessingOracle(),
        DratOracle(),
        SameSearchOracle(),
    ]


@dataclass
class OracleBank:
    """Runs a configurable oracle set and never lets one crash the hunt.

    An oracle that raises is itself a finding — soundness bugs often
    surface as assertion failures deep inside a cross-check — so
    exceptions become ``oracle-crash`` discrepancies instead of
    aborting the campaign.
    """

    oracles: List[Oracle] = field(default_factory=default_oracles)

    def names(self) -> List[str]:
        """Registered oracle names, in execution order."""
        return [oracle.name for oracle in self.oracles]

    def check(
        self,
        cnf: CNF,
        ctx: OracleContext,
        checks: Optional[Dict[str, int]] = None,
    ) -> List[Discrepancy]:
        """Run every oracle on ``cnf``; returns all discrepancies found.

        ``checks`` (optional) accumulates a per-oracle invocation count
        for campaign reports.
        """
        found: List[Discrepancy] = []
        for oracle in self.oracles:
            if checks is not None:
                checks[oracle.name] = checks.get(oracle.name, 0) + 1
            try:
                found.extend(oracle.check(cnf, ctx))
            except Exception as exc:  # noqa: BLE001 - a crash IS a finding
                found.append(Discrepancy(
                    oracle=oracle.name,
                    kind="oracle-crash",
                    case=ctx.case,
                    expected="clean check",
                    observed=type(exc).__name__,
                    detail=str(exc),
                ))
        return found
