"""Timings of the geometry and algebra suites and of the D1 localization, as BENCH rows.

Run it once per checkout, on the same machine, with that checkout's sources
first on the path:

    PYTHONPATH=<checkout>/src python3 tools/bench_chainsuites.py --label before
    PYTHONPATH=src python3 tools/bench_chainsuites.py --label after

The timer, the repeat counts and the label handling are those of
tools/bench_exactpoly.py: each run replaces its label's entry in
BENCH_chainsuites.json, and once both labels are present
after_over_before holds the ratio of every row's median CPU seconds per
call.  Layer rows take REPEATS samples of LAYER_CALLS calls, end-to-end
rows E2E_REPEATS samples of one call.

Layer rows: check_rank_bounds on one N=6 sample of the maximal pattern, as
the geometry suite calls it (with the pattern's rank table, built once per
pattern, where the checkout's check_rank_bounds takes one); cp_inv of an
N=8 unit-diagonal conjugator and of the same matrix with an integer
diagonal; s_mul of two N=8 integer matrices at s = 0 and at s = -3/2.
Check rows take REPEATS samples of one pass over a fixed set: the algebra
suite's s-family and strip checks at N=8 with 100 instances (seed 1, as in
the suite); tangent_dimension at one sample of each N=6 pattern and
stabilizer_codim at one t per N=6 pattern; cp_inv of 20 N=6 unit-diagonal
conjugators.  End-to-end rows: the geometry suite at N=6 with 30 samples
and the algebra suite at N=8 with 100 instances (the chain workload's
sizes, seed 1); the bodies of acceptance criteria 08 and 09;
d1_mdeg_localization at the point that `brauerloop degrees --scheme D1
--n 16` draws (seed 0).
"""

from __future__ import annotations

import argparse
import inspect
import random
import sys
from fractions import Fraction
from pathlib import Path

from bench_exactpoly import E2E_REPEATS, LAYER_CALLS, REPEATS, record, timed

from brauerloop import cli, escheme, pfdet, psitable
from brauerloop.circlealg import ExactMatrix, cp_inv, s_mul
from brauerloop.linkpat import enumerate_patterns, maximal_pattern, rank_table

OUT = Path(__file__).resolve().parent.parent / "BENCH_chainsuites.json"
COMMAND = "PYTHONPATH=<checkout>/src python3 tools/bench_chainsuites.py --label <before|after>"


def bounds_for(pi):
    """The second argument of this checkout's check_rank_bounds for pattern pi."""
    takes_pattern = "pi" in inspect.signature(escheme.check_rank_bounds).parameters
    return pi if takes_pattern else rank_table(pi)


def suite(name: str, n: int, points: int) -> None:
    args = argparse.Namespace(n=n, max_n=None, seed=1, points=points)
    cli.run_suite(name, cli.suite_jobs(name, args, cli.TableStore(None)))


def criterion_08() -> None:
    """Acceptance criterion 08's loop: 200 samples per pattern, N=3..6."""
    for n in range(3, 7):
        for pi in enumerate_patterns(n):
            rng = random.Random(f"acceptance-geometry/{n}/{pi}")
            bounds = bounds_for(pi)
            for _ in range(200):
                sp = escheme.random_sample(pi, rng)
                assert escheme.is_in_E(sp.matrix)
                assert escheme.identify_pattern(sp.matrix) == pi
                assert escheme.check_rank_bounds(sp.matrix, bounds)
            escheme.tangent_dimension(sp.matrix)
            escheme.stabilizer_codim(pi, sp.t)


def criterion_09() -> None:
    """Acceptance criterion 09: 1000 instances per algebra property, N=2..8."""
    for _, fn in cli.algebra_jobs(list(range(2, 9)), seed=0, count=1000):
        fn()


def rows() -> dict:
    rng = random.Random(8)
    pi6 = maximal_pattern(6)
    sample6 = escheme.random_sample(pi6, rng).matrix
    bounds6 = bounds_for(pi6)
    unit = escheme.random_conjugator(8, rng)
    scaled = ExactMatrix([[rng.choice((-3, -2, 2, 3)) if i == j else x
                           for j, x in enumerate(row)] for i, row in enumerate(unit.rows)])
    p, q = (ExactMatrix.build(8, lambda i, j: rng.choice((0, 0, -4, -1, 2, 3, 5)))
            for _ in range(2))
    a16, z16 = psitable.random_point(16, cli._rng(0, "d1point/16"))
    patterns6 = enumerate_patterns(6)
    samples6 = [escheme.random_sample(pi, rng) for pi in patterns6]
    conjugators6 = [escheme.random_conjugator(6, rng) for _ in range(20)]
    return {
        "sfamily_check_n8_100": timed(
            lambda: cli._check_sfamily(8, cli._rng(1, "sfamily/8"), 100), REPEATS),
        "strip_check_n8_100": timed(
            lambda: cli._check_strip(8, cli._rng(1, "strip/8"), 100), REPEATS),
        "tangent_dimension_n6_patterns": timed(
            lambda: [escheme.tangent_dimension(sp.matrix) for sp in samples6], REPEATS),
        "stabilizer_codim_n6_patterns": timed(
            lambda: [escheme.stabilizer_codim(sp.pattern, sp.t) for sp in samples6], REPEATS),
        "cp_inv_n6_unit_diagonal_20": timed(
            lambda: [cp_inv(p6) for p6 in conjugators6], REPEATS),
        "check_rank_bounds_n6": timed(
            lambda: escheme.check_rank_bounds(sample6, bounds6), number=LAYER_CALLS),
        "cp_inv_n8_unit_diagonal": timed(lambda: cp_inv(unit), number=LAYER_CALLS),
        "cp_inv_n8_integer_diagonal": timed(lambda: cp_inv(scaled), number=LAYER_CALLS),
        "s_mul_n8_s0": timed(lambda: s_mul(p, q, 0), number=LAYER_CALLS),
        "s_mul_n8_s_minus_3_2": timed(lambda: s_mul(p, q, Fraction(-3, 2)), number=LAYER_CALLS),
        "geometry_suite_n6_30": timed(lambda: suite("geometry", 6, 30), E2E_REPEATS),
        "algebra_suite_n8_100": timed(lambda: suite("algebra", 8, 100), E2E_REPEATS),
        "criterion_08": timed(criterion_08, E2E_REPEATS),
        "criterion_09": timed(criterion_09, E2E_REPEATS),
        "d1_localization_n16_cli_point": timed(
            lambda: pfdet.d1_mdeg_localization(16, a16, z16), E2E_REPEATS),
    }


def main(argv: list[str] | None = None) -> int:
    return record(OUT, COMMAND, __doc__.split("\n\n")[0], rows, argv)


if __name__ == "__main__":
    sys.exit(main())
