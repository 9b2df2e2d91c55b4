"""Timings of the exchange identity check, as BENCH rows.

Run it once per checkout, on the same machine, with that checkout's sources
first on the path:

    PYTHONPATH=<checkout>/src python3 tools/bench_exchange.py --label before
    PYTHONPATH=src python3 tools/bench_exchange.py --label after

The timer, the repeat counts and the label handling are those of
tools/bench_exactpoly.py: each run replaces its label's entry in
BENCH_exchange.json, and once both labels are present after_over_before
holds the ratio of every row's median CPU seconds per call.  The layer row
takes REPEATS samples of LAYER_CALLS calls, end-to-end rows E2E_REPEATS
samples of one call.

End-to-end rows: verify_exchange at N=5 and N=6, and the body of
acceptance criterion 03 (verify_exchange at N=2..6), all on tables built
beforehand.  Layer row: one exchange residual on the N=6 fixture
g = recursion_step(base_mdeg(6), maximal pattern, 1) (6086 terms), with
P = F = E = g and T = tau_1 g at i = 1: by MultiPoly.horner_u where the
checkout has it, else in the literal form a P + c F + b E - r T with the
generic products.
"""

from __future__ import annotations

import sys
from pathlib import Path

from bench_exactpoly import E2E_REPEATS, LAYER_CALLS, record, timed

from brauerloop import psitable
from brauerloop.exactpoly import MultiPoly
from brauerloop.linkpat import maximal_pattern

OUT = Path(__file__).resolve().parent.parent / "BENCH_exchange.json"
COMMAND = "PYTHONPATH=<checkout>/src python3 tools/bench_exchange.py --label <before|after>"


def fixture_residual():
    """The layer row's call on g: the exchange residual's shape at i = 1."""
    n = 6
    g = psitable.recursion_step(psitable.base_mdeg(n), maximal_pattern(n), 1)
    t = g.tau(1)
    if hasattr(MultiPoly, "horner_u"):
        layers = [[(2, g), (-2, t)], [(1, g), (-2, g), (-1, t), (2, g)], [(1, t), (-1, g)]]
        return lambda: MultiPoly.horner_u(n, 1, layers)
    one, u = MultiPoly.one(n), MultiPoly.linear(n, 0, {1: 1, 2: -1})
    a, b, c, r = (one - u) * 2, u * 2, u * (one - u), (one * 2 - u) * (one + u)
    return lambda: a * g + c * g + b * g - r * t


def rows() -> dict:
    tables = {n: psitable.compute_table(n) for n in range(2, 7)}
    return {
        "exchange_residual_n6_fixture": timed(fixture_residual(), number=LAYER_CALLS),
        "verify_exchange_n5": timed(lambda: psitable.verify_exchange(tables[5]), E2E_REPEATS),
        "verify_exchange_n6": timed(lambda: psitable.verify_exchange(tables[6]), E2E_REPEATS),
        "criterion_03": timed(
            lambda: [psitable.verify_exchange(tables[n]) for n in range(2, 7)], E2E_REPEATS),
    }


def main(argv: list[str] | None = None) -> int:
    return record(OUT, COMMAND, __doc__.split("\n\n")[0], rows, argv)


if __name__ == "__main__":
    sys.exit(main())
