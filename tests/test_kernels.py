"""Compiled arena kernels: same search as the Python reference, and a
loader that builds once, reuses its cache and falls back cleanly.

The kernels (``repro/solver/_kernels.c``) replace the bodies of
``ArenaPropagator.propagate``, ``ArenaConflictAnalyzer.analyze`` and
``ArenaTrail.backtrack``; the Python bodies stay as the reference.  Every
observable of a search — statistics, model, failed-assumption core, DRAT
text, warm-session replay — must be identical between the two.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cnf import CNF, pigeonhole, random_ksat
from repro.cnf.generators import GENERATOR_FAMILIES
from repro.fuzz import OracleContext, SameSearchOracle, draw_spec, load_entry
from repro.policies import get_policy
from repro.solver import Solver, SolverConfig, native
from repro.solver.arena import ArenaConflictAnalyzer
from repro.solver.proof import ProofLog

REGRESSIONS = sorted(
    (Path(__file__).parent / "data" / "regressions").glob("*.json")
)

compiled_only = pytest.mark.skipif(
    native.kernels() is None, reason="compiled kernels unavailable"
)


def _solve(cnf, policy="default", config=None, assumptions=(), budget=3000):
    proof = ProofLog()
    solver = Solver(cnf, policy=get_policy(policy), config=config, proof=proof)
    result = solver.solve(assumptions=assumptions, max_conflicts=budget)
    return (
        result.status, result.model, result.core,
        result.stats.to_dict(), proof.text(),
    )


def _both(*args, **kwargs):
    compiled = _solve(*args, **kwargs)
    with native._reference_bodies():
        reference = _solve(*args, **kwargs)
    return compiled, reference


# -- same search -------------------------------------------------------------


@pytest.mark.parametrize("manifest", REGRESSIONS, ids=lambda p: p.stem)
def test_same_search_on_regression_corpus(manifest):
    _, cnf = load_entry(manifest)
    assert SameSearchOracle().check(cnf, OracleContext(case=manifest.stem)) == []


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
def test_same_search_on_every_generator_family(family):
    rng = random.Random(family)
    for seed in range(3):
        cnf = draw_spec(rng, family, seed).build()
        found = SameSearchOracle().check(cnf, OracleContext(case=family))
        assert found == [], [d.summary() for d in found]


@st.composite
def _cnfs(draw):
    num_vars = draw(st.integers(2, 12))
    literal = st.integers(1, num_vars).flatmap(
        lambda var: st.sampled_from([var, -var])
    )
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5),
                            min_size=1, max_size=45))
    return CNF(clauses, num_vars=num_vars)


@given(_cnfs())
def test_same_search_on_generated_formulas(cnf):
    assert SameSearchOracle().check(cnf, OracleContext(case="hypothesis")) == []


@pytest.mark.parametrize(
    "config",
    [
        None,
        SolverConfig(decision_heuristic="vmtf"),
        SolverConfig(restart_mode="ema", rephase_interval=50),
        # Fast decays push both activity rescales (1e100 and 1e20)
        # into a few hundred conflicts.
        SolverConfig(var_decay=0.5, clause_decay=0.5, reduce_interval=50),
    ],
    ids=["vsids", "vmtf", "ema-rephase", "rescales"],
)
@pytest.mark.parametrize("policy", ["default", "frequency"])
def test_same_search_on_long_runs(config, policy):
    for cnf in (random_ksat(90, 385, seed=5), pigeonhole(6)):
        compiled, reference = _both(cnf, policy, config, budget=1500)
        assert compiled == reference


def test_same_failed_core_under_assumptions():
    cnf = random_ksat(40, 170, seed=3)
    for seed in range(6):
        rng = random.Random(seed)
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 41), 8)]
        compiled, reference = _both(cnf, assumptions=assumptions)
        assert compiled == reference


@compiled_only
def test_oracle_reports_a_diverging_reference(monkeypatch):
    # A reference that skips clause minimization learns longer clauses,
    # so its statistics and proof must differ from the compiled search.
    monkeypatch.setattr(ArenaConflictAnalyzer, "_minimize", lambda self, lits: lits)
    found = SameSearchOracle().check(pigeonhole(5), OracleContext(case="php5"))
    assert found and {d.kind for d in found} == {"search-diverged"}


@compiled_only
def test_solver_components_use_the_kernels():
    solver = Solver(random_ksat(20, 80, seed=1))
    assert solver.propagator._native is native.kernels()
    with native._reference_bodies():
        reference = Solver(random_ksat(20, 80, seed=1))
    assert reference.propagator._native is None
    assert reference.analyzer._native is None
    assert reference.trail._native is None


# -- loader ------------------------------------------------------------------


def test_missing_compiler_falls_back_and_warns_once(monkeypatch, tmp_path):
    cnf = random_ksat(60, 255, seed=11)
    expected = _solve(cnf)
    monkeypatch.setattr(native, "_module", native._UNLOADED)
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cold")
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        assert native.kernels() is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernels() is None
        solver = Solver(cnf)
    assert solver.propagator._native is None
    assert _solve(cnf) == expected


@compiled_only
def test_cached_build_is_reused_without_the_compiler(monkeypatch, tmp_path):
    first = native.build(tmp_path)
    stamp = first.stat().st_mtime_ns

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiler ran on a warm cache")

    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    module = native.load(tmp_path)
    assert native.build(tmp_path) == first
    assert first.stat().st_mtime_ns == stamp
    assert callable(module.propagate)


@compiled_only
def test_concurrent_cold_builds_leave_one_valid_artifact(tmp_path):
    script = (
        "import sys; from pathlib import Path; "
        "from repro.solver import native; "
        "print(native.build(Path(sys.argv[1])))"
    )
    env_path = str(Path(native.__file__).parents[2])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=env_path),
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=240) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    assert {out.strip() for out, _ in outputs} == {
        str(tmp_path / native.artifact_name())
    }
    assert [p.name for p in tmp_path.iterdir()] == [native.artifact_name()]
    assert callable(native.load(tmp_path).analyze)


@compiled_only
def test_repeated_solves_keep_memory_flat():
    cnf = random_ksat(60, 260, seed=2)

    def solve():
        Solver(cnf, policy=get_policy("frequency")).solve(max_conflicts=400)

    solve()
    tracemalloc.start()
    try:
        for _ in range(2):
            solve()
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(8):
            solve()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    # One leaked object per propagation would be megabytes here.
    assert grown < 64 * 1024, grown
