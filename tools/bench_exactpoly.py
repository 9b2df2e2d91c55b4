"""Layer and end-to-end timings of the polynomial kernel, as BENCH rows.

Run it once per checkout, on the same machine, with that checkout's sources
first on the path:

    PYTHONPATH=<checkout>/src python3 tools/bench_exactpoly.py --label before
    PYTHONPATH=src python3 tools/bench_exactpoly.py --label after

Each run replaces its label's entry in BENCH_exactpoly.json and keeps the
other label; once both are present, after_over_before holds the ratio of
every row.  A row is the median of REPEATS (E2E_REPEATS for the end-to-end
rows) single-threaded samples in CPU seconds per call (time.process_time),
with the minimum beside it; a layer row's sample is LAYER_CALLS calls.  The
settings are fixed so that both labels are always taken alike.

Fixtures: w = A + z_1 - z_2 and g = recursion_step(base_mdeg(6), maximal
pattern, 1), the pinned N=6 step (6086 terms).  Layer rows: w * g, g.tau(1),
g.ddiff(1), (w * g).exact_divide(w), g.evaluate at an integer point.  Step rows: the same recursion step at N=6 and at N=7.  Memory
row: the bytes of base_mdeg(7)'s term dict and its keys (the coefficients are
the same objects under any key layout).  End-to-end rows: verify_exchange(6)
on a prebuilt table, and commvar.delta(7).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import brauerloop
from brauerloop import commvar, psitable
from brauerloop.exactpoly import MultiPoly
from brauerloop.linkpat import maximal_pattern

OUT = Path(__file__).resolve().parent.parent / "BENCH_exactpoly.json"
LAYER_CALLS = 20
REPEATS = 7
E2E_REPEATS = 3
COMMAND = "PYTHONPATH=<checkout>/src python3 tools/bench_exactpoly.py --label <before|after>"


def timed(fn, repeats: int = REPEATS, number: int = 1) -> dict:
    """CPU seconds per call: median and minimum of repeats samples of number calls."""
    runs = []
    for _ in range(repeats):
        start = time.process_time()
        for _ in range(number):
            fn()
        runs.append((time.process_time() - start) / number)
    return {"unit": "s", "median": round(statistics.median(runs), 5),
            "min": round(min(runs), 5), "repeats": repeats, "calls_per_sample": number}


def term_bytes(p: MultiPoly) -> dict:
    keys = sum(sys.getsizeof(k) for k in p.terms)
    total = sys.getsizeof(p.terms) + keys
    return {"unit": "bytes", "terms": len(p.terms), "dict_and_keys": total,
            "per_term": round(total / len(p.terms), 1)}


def source_digest() -> str:
    src = Path(brauerloop.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version()}


def rows() -> dict:
    n = 6
    w = MultiPoly.linear(n, 1, {1: 1, 2: -1})
    g = psitable.recursion_step(psitable.base_mdeg(n), maximal_pattern(n), 1)
    wg = w * g
    point = (7, [3, -5, 11, 2, -13, 17])
    base6, base7 = psitable.base_mdeg(6), psitable.base_mdeg(7)
    table6 = psitable.compute_table(6)
    return {
        "fixture_terms": {"unit": "terms", "g": len(g.terms), "w*g": len(wg.terms)},
        "mul_w_g": timed(lambda: w * g, number=LAYER_CALLS),
        "tau_g": timed(lambda: g.tau(1), number=LAYER_CALLS),
        "ddiff_g": timed(lambda: g.ddiff(1), number=LAYER_CALLS),
        "exact_divide_wg_w": timed(lambda: wg.exact_divide(w), number=LAYER_CALLS),
        "evaluate_g_integer": timed(lambda: g.evaluate(*point), number=LAYER_CALLS),
        "recursion_step_n6": timed(
            lambda: psitable.recursion_step(base6, maximal_pattern(6), 1)),
        "recursion_step_n7": timed(
            lambda: psitable.recursion_step(base7, maximal_pattern(7), 1)),
        "base_mdeg7_term_bytes": term_bytes(base7),
        "verify_exchange_n6": timed(lambda: psitable.verify_exchange(table6), E2E_REPEATS),
        "delta_n7": timed(lambda: commvar.delta(7), E2E_REPEATS),
    }


def ratios(runs: dict) -> dict:
    """after / before of every timed median and of the stored bytes."""
    before, after = runs["before"]["rows"], runs["after"]["rows"]
    out = {}
    for name, row in after.items():
        field = "median" if "median" in row else "dict_and_keys" if "dict_and_keys" in row else None
        if field and name in before:
            out[name] = round(row[field] / before[name][field], 3)
    return out


def record(out: Path, command: str, description: str, make_rows, argv: list[str] | None) -> int:
    """Parse --label, store make_rows() under that label in out and keep the other label."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--label", required=True, choices=("before", "after"))
    args = parser.parse_args(argv)
    bench = json.loads(out.read_text()) if out.is_file() else {}
    bench["command"] = command
    bench.setdefault("runs", {})[args.label] = {
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": machine(),
        "source_sha256": source_digest(),
        "rows": make_rows(),
    }
    if {"before", "after"} <= bench["runs"].keys():
        bench["after_over_before"] = ratios(bench["runs"])
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    return record(OUT, COMMAND, __doc__.split("\n\n")[0], rows, argv)


if __name__ == "__main__":
    sys.exit(main())
