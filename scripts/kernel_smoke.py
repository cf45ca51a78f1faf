#!/usr/bin/env python
"""Compiled-kernel smoke check: build, then demand the reference search.

The CI ``kernel-smoke`` job (and ``make kernel-smoke``) runs this script.
It builds the compiled arena kernels (failing if they do not load), then
runs the fuzz bank's :class:`~repro.fuzz.oracles.SameSearchOracle` over
the seeded fuzz cases of every generator family and over the regression
corpus.  Each case is solved with the kernels and with the Python
reference bodies; statistics, models, failed-assumption cores, DRAT
text and warm-session replays must all be identical.

Usage: ``python scripts/kernel_smoke.py [SEEDS]`` (default 200).
Exit code 0 on zero discrepancies, 1 otherwise.
"""

import sys
import time
from pathlib import Path

from repro.fuzz import (
    CampaignConfig,
    OracleContext,
    SameSearchOracle,
    build_cases,
    load_entry,
)
from repro.solver import native

REGRESSIONS = Path(__file__).resolve().parent.parent / "tests" / "data" / "regressions"


def main(argv) -> int:
    seeds = int(argv[1]) if len(argv) > 1 else 200
    kernels = native.kernels()
    if kernels is None:
        print("FAIL: compiled kernels did not load", file=sys.stderr)
        return 1
    print(f"kernels: {kernels.__file__}")
    subjects = [(case.name, case.cnf) for case in build_cases(CampaignConfig(seeds=seeds))]
    for manifest in sorted(REGRESSIONS.glob("*.json")):
        subjects.append((manifest.stem, load_entry(manifest)[1]))
    oracle = SameSearchOracle()
    started = time.perf_counter()
    found = []
    for name, cnf in subjects:
        found.extend(oracle.check(cnf, OracleContext(case=name)))
    for discrepancy in found:
        print(f"  {discrepancy.summary()}")
    print(
        f"same-search: {len(subjects)} subjects, {len(found)} discrepancies "
        f"in {time.perf_counter() - started:.1f}s"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
