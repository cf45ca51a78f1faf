"""Seeded inputs for the benchmark's three workloads.

Everything here is plain ``random.Random(seed)`` arithmetic that emits
DIMACS text and session schedules; nothing imports the program, so a
change to the program's own generators never changes what is measured.
Each item records its family, its size and the status it has by
construction:

* planted families (random 3-SAT, community, cardinality-SAT, session
  bases) keep every clause satisfied by a hidden assignment, so they are
  SAT;
* pigeonhole, parity-with-contradiction and over-constrained
  cardinality are UNSAT by their combinatorics;
* ``3sat-dense`` sits at clause/variable ratio 6, where the first-moment
  bound 2^n (7/8)^m puts the chance of a satisfiable draw below 2^-23
  at the sizes used; the benchmark's own test certifies its UNSAT
  answers with a DRAT check;
* the serve workload's threshold 3-SAT items have no status by
  construction (``expected`` is None); their answers are checked
  against a direct solve instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Clauses = List[List[int]]

#: Why each workload is in the benchmark.
WHY = {
    "suite": (
        "offline select+solve over a mixed SAT/UNSAT suite under both "
        "deletion policies; the solver does most of the work"
    ),
    "serve": (
        "2 closed-loop clients POST small instances to repro serve; "
        "parse, graph, forward pass, batch wait and HTTP dominate"
    ),
    "session": (
        "1 client drives sticky sessions with short warm add/assume "
        "calls; per-call features, reuse and solver set-up dominate"
    ),
}


@dataclass(frozen=True)
class Item:
    """One generated formula."""

    name: str
    family: str
    num_vars: int
    num_clauses: int
    #: "SAT" or "UNSAT" by construction; None when unknown.
    expected: Optional[str]
    dimacs: str


@dataclass(frozen=True)
class SessionCall:
    """One ``POST /sessions/<id>/solve``: clauses to add, then assume."""

    add: Tuple[Tuple[int, ...], ...]
    assume: Tuple[int, ...]
    expected: str


@dataclass(frozen=True)
class SessionPlan:
    """A sticky session: a SAT base formula and its call schedule."""

    base: Item
    calls: Tuple[SessionCall, ...]


def to_dimacs(num_vars: int, clauses: Clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def _item(name, family, num_vars, clauses, expected) -> Item:
    return Item(
        name, family, num_vars, len(clauses), expected,
        to_dimacs(num_vars, clauses),
    )


def _rng(seed: int, *salt) -> random.Random:
    # A string seed is hashed deterministically (sha512), unlike hash().
    return random.Random("/".join(map(str, (seed,) + salt)))


# -- families ----------------------------------------------------------------


def _random_clause(rng, pool: Sequence[int], k: int = 3) -> List[int]:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(pool, k)]


def _planted_clause(rng, pool: Sequence[int], hidden) -> List[int]:
    """A random 3-clause that the hidden assignment satisfies."""
    while True:
        clause = _random_clause(rng, pool)
        if any((lit > 0) == hidden[abs(lit)] for lit in clause):
            return clause


def _hidden(rng, num_vars: int) -> List[bool]:
    return [False] + [rng.random() < 0.5 for _ in range(num_vars)]


def planted_3sat(rng, n: int, ratio: float = 4.26) -> Tuple[int, Clauses]:
    hidden = _hidden(rng, n)
    pool = range(1, n + 1)
    return n, [_planted_clause(rng, pool, hidden) for _ in range(round(ratio * n))]


def random_3sat(rng, n: int, ratio: float) -> Tuple[int, Clauses]:
    pool = range(1, n + 1)
    return n, [_random_clause(rng, pool) for _ in range(round(ratio * n))]


def community(
    rng, communities: int, per: int, ratio: float, bridge: float = 0.1
) -> Tuple[int, Clauses]:
    """Planted modular 3-SAT: most clauses stay inside one community."""
    n = communities * per
    hidden = _hidden(rng, n)
    groups = [list(range(c * per + 1, (c + 1) * per + 1)) for c in range(communities)]
    clauses = []
    for c, local in enumerate(groups):
        for _ in range(round(ratio * per)):
            pool = local
            if rng.random() < bridge:
                pool = local + groups[(c + 1 + rng.randrange(communities - 1)) % communities]
            clauses.append(_planted_clause(rng, pool, hidden))
    return n, clauses


def _xor(lits: Sequence[int], parity: int) -> Clauses:
    """Clauses for XOR(lits) == parity: exclude every wrong-parity row."""
    out = []
    for mask in range(1 << len(lits)):
        if bin(mask).count("1") % 2 != parity:
            out.append([-l if mask >> i & 1 else l for i, l in enumerate(lits)])
    return out


def parity(rng, n: int, contradiction: bool) -> Tuple[int, Clauses]:
    """Two XOR chains over the same inputs in independent orders.

    Each chain folds two inputs per block into a fresh accumulator.  With
    ``contradiction`` the chains assert opposite parities (UNSAT);
    otherwise they agree (SAT).
    """
    next_var = n + 1
    clauses: Clauses = []
    target = rng.randrange(2)
    for wanted in (target, 1 - target if contradiction else target):
        inputs = list(range(1, n + 1))
        rng.shuffle(inputs)
        acc = inputs[0]
        for i in range(1, n, 2):
            group = inputs[i:i + 2]
            clauses.extend(_xor([acc] + group + [next_var], 0))
            acc = next_var
            next_var += 1
        clauses.append([acc if wanted else -acc])
    return next_var - 1, clauses


def pigeonhole(rng, holes: int) -> Tuple[int, Clauses]:
    """PHP(holes+1, holes) under a seeded variable renaming and order."""
    pigeons = holes + 1
    n = pigeons * holes
    names = list(range(1, n + 1))
    rng.shuffle(names)

    def var(p: int, h: int) -> int:
        return names[p * holes + h]

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    rng.shuffle(clauses)
    return n, clauses


def _at_most(lits: Sequence[int], k: int, next_var: int) -> Tuple[Clauses, int]:
    """Sinz's sequential counter for sum(lits) <= k (1 <= k < len)."""
    n = len(lits)

    def s(i: int, j: int) -> int:
        return next_var + i * k + (j - 1)

    x = list(lits)
    clauses = [[-x[0], s(0, 1)]] + [[-s(0, j)] for j in range(2, k + 1)]
    for i in range(1, n - 1):
        clauses.append([-x[i], s(i, 1)])
        clauses.append([-s(i - 1, 1), s(i, 1)])
        for j in range(2, k + 1):
            clauses.append([-x[i], -s(i - 1, j - 1), s(i, j)])
            clauses.append([-s(i - 1, j), s(i, j)])
        clauses.append([-x[i], -s(i - 1, k)])
    clauses.append([-x[n - 1], -s(n - 2, k)])
    return clauses, next_var + (n - 1) * k


def cardinality(rng, n: int, over: bool) -> Tuple[int, Clauses]:
    """At most n/3 of n inputs true, plus a demand from below.

    ``over`` demands one more than the cap (UNSAT).  Otherwise the demand
    is cap-1 and n random 3-clauses are planted on an assignment with
    exactly ``cap`` true inputs (SAT).
    """
    cap = max(1, n // 3)
    inputs = list(range(1, n + 1))
    clauses, next_var = _at_most(inputs, cap, n + 1)
    demand = cap + 1 if over else cap - 1
    more, next_var = _at_most([-v for v in inputs], n - demand, next_var)
    clauses.extend(more)
    hidden = [False] * (n + 1)
    for v in rng.sample(inputs, cap):
        hidden[v] = True
    for _ in range(n):
        clauses.append(
            _random_clause(rng, inputs) if over
            else _planted_clause(rng, inputs, hidden)
        )
    return next_var - 1, clauses


# -- workloads ---------------------------------------------------------------

#: One suite round: (family, expected status, builder).  Many mid-size
#: items rather than a few large ones: solve times vary 20-40% from seed
#: to seed even for structured UNSAT families, so the suite's wall time
#: is only steady across seeds when it sums many of them, and families
#: whose time varies least (pigeonhole, cardinality) carry most of it.
#: On one core of an x86 server both solves of an UNSAT item take
#: 0.1-0.6 s together; planted SAT items stay small because their solve
#: time is heavy-tailed.
SUITE_ROUND = (
    ("pigeonhole", "UNSAT", lambda r: pigeonhole(r, 6)),
    ("pigeonhole", "UNSAT", lambda r: pigeonhole(r, 6)),
    ("cardinality", "UNSAT", lambda r: cardinality(r, 18, True)),
    ("cardinality", "UNSAT", lambda r: cardinality(r, 18, True)),
    ("3sat-dense", "UNSAT", lambda r: random_3sat(r, 150, 6.0)),
    ("parity", "UNSAT", lambda r: parity(r, 10, True)),
    ("3sat-planted", "SAT", lambda r: planted_3sat(r, 100)),
    ("community", "SAT", lambda r: community(r, 3, 40, 4.26)),
    ("cardinality", "SAT", lambda r: cardinality(r, 15, False)),
)


def suite_items(seed: int, rounds: int) -> List[Item]:
    """``rounds`` rounds of :data:`SUITE_ROUND`, each item seeded apart."""
    items = []
    for r in range(rounds):
        for slot, (family, expected, build) in enumerate(SUITE_ROUND):
            num_vars, clauses = build(_rng(seed, "suite", r, slot))
            items.append(_item(
                f"suite-{r}-{slot}-{family}", family, num_vars, clauses, expected
            ))
    return items


def serve_item(seed: int, index: int) -> Item:
    """The ``index``-th request of the serve stream (solve <= ~30 ms).

    Families and sizes are stratified by ``index`` and only the clauses
    come from ``seed``, so every run of the same length sends the same
    mix.  Of every 5 requests, 3 are threshold 3-SAT, 1 is parity and 1
    is community; 3-SAT sizes step through 40-90 variables (each size
    once per 51 items), parity through 6-9 inputs with and without a
    contradiction, community through 15-25 variables per community.
    Drawn at random, the mix and sizes moved a run's median latency by
    ~8% from seed to seed.
    """
    rng = _rng(seed, "serve", index)
    slot, cycle = index % 5, index // 5
    if slot < 3:
        n = 40 + (cycle * 3 + slot) * 37 % 51
        num_vars, clauses = random_3sat(rng, n, 4.26)
        family, expected = "3sat-threshold", None
    elif slot == 3:
        contradiction = cycle % 2 == 0
        num_vars, clauses = parity(rng, 6 + cycle // 2 % 4, contradiction)
        family, expected = "parity", "UNSAT" if contradiction else "SAT"
    else:
        num_vars, clauses = community(rng, 3, 15 + cycle * 7 % 11, 4.0)
        family, expected = "community", "SAT"
    return _item(f"serve-{index}-{family}", family, num_vars, clauses, expected)


#: Session shape: base size and clause/variable ratio, calls per session,
#: clauses added per call.  A dense planted base keeps cold solves short
#: and gives each warm call enough work (~3 ms in the service, ~5 ms at
#: the client) that scheduling delays on a busy host do not dominate its
#: latency; at ratio 4 whole runs slowed by half when the host was busy.
SESSION_VARS = 120
SESSION_RATIO = 8.0
SESSION_CALLS = 40
SESSION_ADDS = 12
#: Inputs of the XOR chain the UNSAT-under-assumptions calls contradict.
SESSION_XOR_INPUTS = 6


def session_plan(seed: int, client: int, index: int) -> SessionPlan:
    """The ``index``-th session of one client.

    The base is planted 3-SAT at ratio :data:`SESSION_RATIO` plus one XOR
    chain over :data:`SESSION_XOR_INPUTS` inputs that the hidden
    assignment satisfies.  Each call adds planted 3-clauses (the formula
    stays SAT and drifts, so every ~10th call recomputes its embedding)
    and then assumes either a few hidden-assignment literals (SAT) or all
    chain inputs with the wrong parity (UNSAT under assumptions, found by
    propagation through the chain).
    """
    rng = _rng(seed, "session", client, index)
    n = SESSION_VARS
    hidden = _hidden(rng, n)
    pool = range(1, n + 1)
    clauses = [_planted_clause(rng, pool, hidden) for _ in range(round(SESSION_RATIO * n))]
    chain_inputs = rng.sample(range(1, n + 1), SESSION_XOR_INPUTS)
    wanted = sum(hidden[v] for v in chain_inputs) % 2
    next_var = n + 1
    acc = chain_inputs[0]
    for v in chain_inputs[1:]:
        clauses.extend(_xor([acc, v, next_var], 0))
        acc = next_var
        next_var += 1
    clauses.append([acc if wanted else -acc])
    base = _item(
        f"session-{client}-{index}", "session-base", next_var - 1, clauses, "SAT"
    )
    calls = []
    for _ in range(SESSION_CALLS):
        add = tuple(
            tuple(_planted_clause(rng, pool, hidden)) for _ in range(SESSION_ADDS)
        )
        if rng.random() < 0.3:
            flip = rng.choice(chain_inputs)
            assume = tuple(
                (v if hidden[v] != (v == flip) else -v) for v in chain_inputs
            )
            expected = "UNSAT"
        else:
            assume = tuple(
                v if hidden[v] else -v for v in rng.sample(range(1, n + 1), 3)
            )
            expected = "SAT"
        calls.append(SessionCall(add, assume, expected))
    return SessionPlan(base, tuple(calls))


def describe(items: Sequence[Item]) -> Dict[str, int]:
    """Count of items per ``family/expected`` (recorded with results)."""
    counts: Dict[str, int] = {}
    for item in items:
        key = f"{item.family}/{item.expected or 'unknown'}"
        counts[key] = counts.get(key, 0) + 1
    return counts
