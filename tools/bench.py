"""Before/after timings of the library, as rows of the BENCH_<group>.json files.

From this checkout, against the sources of another checkout:

    PYTHONPATH=src python3 tools/bench.py <group> --before <checkout>

runs the group PAIRS times in each source tree, in child interpreters
that alternate the trees and which of them runs first in a pair (before,
after, after, before, before, after, ...), and appends one record
{command, date, machine, pairs, before_sha256, after_sha256, rows} to the
file's paired list: per row, the before and after value of each pair, the
after/before ratio of each pair, and their median, min and max.  Both
trees are timed by the rows of this script, so a host that slows for a
stretch slows both sides of a pair, and the spread of the ratios shows
how far the pairs disagree.  A row that only the after tree times, such
as one of a function the other checkout lacks, keeps its after values
alone.  The file is replaced atomically, so a failed write leaves every
earlier record intact.

The groups are exactpoly, exchange, chainsuites, tables and sumrules;
group g writes BENCH_g.json at the repository root.  The runs list of a
file keeps the single-checkout runs recorded before paired records
existed, as history.

A timed row is the median of REPEATS (E2E_REPEATS for the end-to-end rows)
single-threaded samples in CPU seconds per call (time.process_time), with
the minimum beside it, both to 4 significant figures; a layer row's sample
is LAYER_CALLS calls.  The settings are fixed so that both trees are
always taken alike.  Each group's docstring lists its rows.

A shared host can run the same code at different speeds from one process
to the next, and from one stretch of a process to the next, so every
sample of a timed row is taken right after a reading of the host: the
least of YARDSTICK_RUNS runs of yardstick(), fixed pure-Python work that
calls no brauerloop code.  Each sample is divided by its own reading; the
row keeps the median of those quotients as scaled_median, in yardstick
runs per call, and the least reading as yardstick_s.  A paired record
gives the scaled medians and their ratios beside the raw ones (the
scaled_ fields), so a row whose code did not change reads near 1 there
even when the host changed speed between the two children or within one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from brauerloop import cli, commvar, escheme, linalg, loopchain, pfdet, psitable
from brauerloop.circlealg import ExactMatrix, cp_inv, s_mul
from brauerloop.exactpoly import MultiPoly
from brauerloop.linkpat import enumerate_patterns, maximal_pattern, rank_table
from brauerloop.psitable import MdegTable

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
LAYER_CALLS = 20
REPEATS = 7
E2E_REPEATS = 3
PAIRS = 3
YARDSTICK_RUNS = 3
# a fixed strictly diagonally dominant matrix: no leading minor vanishes
_YARDSTICK_MATRIX = [[60 if i == j else (i * j) % 7 - 3 for j in range(16)] for i in range(16)]


def yardstick() -> int:
    """Fixed pure-Python work that calls no brauerloop code, of the kinds the
    rows time: dict updates with tuple keys and big-integer values, and a
    fraction-free integer elimination whose entries grow."""
    terms: dict = {}
    for i in range(10000):
        key = (i % 97, i % 89)
        terms[key] = terms.get(key, 0) + i * 12345678901234567
    m = [row[:] for row in _YARDSTICK_MATRIX]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            m[i] = [(m[k][k] * x - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return len(terms) + m[-1][-1]


def host_readings() -> list[float]:
    """CPU seconds of YARDSTICK_RUNS runs of yardstick(), each with the
    garbage collector off, so that no collection of the rows' objects
    lands in a reading."""
    runs = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(YARDSTICK_RUNS):
            start = time.process_time()
            yardstick()
            runs.append(time.process_time() - start)
    finally:
        if collecting:
            gc.enable()
    return runs


def timed(fn, repeats: int = REPEATS, number: int = 1) -> dict:
    """CPU seconds per call: median and minimum of repeats samples of number
    calls, and the median of each sample over the yardstick reading (the
    least of host_readings()) taken right before it."""
    runs, scaled, readings = [], [], []
    for _ in range(repeats):
        readings.append(min(host_readings()))
        start = time.process_time()
        for _ in range(number):
            fn()
        runs.append((time.process_time() - start) / number)
        scaled.append(runs[-1] / readings[-1])
    median = statistics.median(runs)
    return {"unit": "s", "median": float(f"{median:.4g}"),
            "min": float(f"{min(runs):.4g}"), "repeats": repeats, "calls_per_sample": number,
            "yardstick_s": float(f"{min(readings):.4g}"),
            "scaled_median": float(f"{statistics.median(scaled):.4g}")}


def source_digest(src: Path) -> str:
    """The sha256 of the modules of the package directory src."""
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


def suite(name: str, n: int | None = None, seed: int = 0, points: int | None = None,
          store: cli.TableStore | None = None) -> None:
    """One verify suite as `brauerloop verify <name>` runs it, by default at its defaults."""
    args = argparse.Namespace(n=n, max_n=None, seed=seed, points=points)
    report = cli.run_suite(name, cli.suite_jobs(name, args, store or cli.TableStore(None)))
    assert report.passed, name


# ------------------------------------------------------------------ groups


def exactpoly() -> dict:
    """Layer and end-to-end timings of the polynomial kernel.

    Fixtures: w = A + z_1 - z_2 and g = recursion_step(base_mdeg(6), maximal
    pattern, 1), the pinned N=6 step (6086 terms).  Layer rows: mul_w_g
    (w * g), tau_g, ddiff_g, exact_divide_wg_w ((w * g).exact_divide(w)),
    evaluate_g_integer (g.evaluate at a list of one integer point).  Step
    rows: recursion_step_n6 and recursion_step_n7, the same step at N=6 and
    N=7.  Memory row: base_mdeg7_term_bytes, the bytes of base_mdeg(7)'s
    term dict and its keys (the coefficients are the same objects under
    any key layout).
    fixture_terms counts the terms of g and w * g.  End-to-end rows:
    delta_n7, commvar.delta(7), and commuting_degree_n7, the same degree by
    the truncated chain commvar.commuting_degree(7), which a checkout from
    before that function does not time.  The exchange group times
    verify_exchange.
    """
    n = 6
    w = MultiPoly.linear(n, 1, {1: 1, 2: -1})
    g = psitable.recursion_step(psitable.base_mdeg(n), maximal_pattern(n), 1)
    wg = w * g
    point = (7, [3, -5, 11, 2, -13, 17])
    base6, base7 = psitable.base_mdeg(6), psitable.base_mdeg(7)
    keys = sys.getsizeof(base7.terms) + sum(sys.getsizeof(k) for k in base7.terms)
    rows = {
        "fixture_terms": {"unit": "terms", "g": len(g.terms), "w*g": len(wg.terms)},
        "mul_w_g": timed(lambda: w * g, number=LAYER_CALLS),
        "tau_g": timed(lambda: g.tau(1), number=LAYER_CALLS),
        "ddiff_g": timed(lambda: g.ddiff(1), number=LAYER_CALLS),
        "exact_divide_wg_w": timed(lambda: wg.exact_divide(w), number=LAYER_CALLS),
        "evaluate_g_integer": timed(lambda: g.evaluate([point]), number=LAYER_CALLS),
        "recursion_step_n6": timed(
            lambda: psitable.recursion_step(base6, maximal_pattern(6), 1)),
        "recursion_step_n7": timed(
            lambda: psitable.recursion_step(base7, maximal_pattern(7), 1)),
        "base_mdeg7_term_bytes": {"unit": "bytes", "terms": len(base7.terms),
                                  "dict_and_keys": keys,
                                  "per_term": round(keys / len(base7.terms), 1)},
        "delta_n7": timed(lambda: commvar.delta(7), E2E_REPEATS),
    }
    if hasattr(commvar, "commuting_degree"):
        rows["commuting_degree_n7"] = timed(lambda: commvar.commuting_degree(7), E2E_REPEATS)
    return rows


def exchange() -> dict:
    """Timings of the exchange identity check.

    End-to-end rows, on tables built beforehand: verify_exchange_n5,
    verify_exchange_n6 and criterion_03, the exchange suite at its defaults
    (N=2..6), which acceptance criterion 03 reads.  Layer row:
    exchange_residual_n6_fixture, one exchange residual by MultiPoly.horner_u on the fixture
    g = recursion_step(base_mdeg(6), maximal pattern, 1) (6086 terms), with
    P = F = E = g and T = tau_1 g at i = 1.
    """
    n = 6
    g = psitable.recursion_step(psitable.base_mdeg(n), maximal_pattern(n), 1)
    t = g.tau(1)
    layers = [[(2, g), (-2, t)], [(1, g), (-2, g), (-1, t), (2, g)], [(1, t), (-1, g)]]
    store = cli.TableStore(None)
    tables = {k: store.get(k) for k in range(2, 7)}
    return {
        "exchange_residual_n6_fixture": timed(
            lambda: MultiPoly.horner_u(n, 1, layers), number=LAYER_CALLS),
        "verify_exchange_n5": timed(lambda: psitable.verify_exchange(tables[5]), E2E_REPEATS),
        "verify_exchange_n6": timed(lambda: psitable.verify_exchange(tables[6]), E2E_REPEATS),
        "criterion_03": timed(lambda: suite("exchange", store=store), E2E_REPEATS),
    }


def chainsuites() -> dict:
    """Timings of the geometry and algebra suites and of the D1 localization.

    Layer rows: check_rank_bounds_n6, on one N=6 sample of the maximal
    pattern with its rank table, as the geometry suite calls it;
    rank_dense_n30, linalg.rank of one fixed dense 30 x 30 integer matrix
    (entries -9..9, drawn from its own seed 30), a shape no library path
    ranks but which costs the leftmost-pivot reduction the most;
    cp_inv_n8_unit_diagonal and cp_inv_n8_integer_diagonal, an N=8
    unit-diagonal conjugator and the same matrix with an integer diagonal;
    s_mul_n8_s0 and s_mul_n8_s_minus_3_2, two N=8 integer matrices at s = 0
    and s = -3/2.  Check rows take REPEATS samples of one pass over a fixed
    set: sfamily_check_n8_100 and strip_check_n8_100, the jobs
    algebra/sfamily/N8 and algebra/strip/N8 of the algebra suite with 100
    instances, seed 1; tangent_dimension_n6_patterns at one sample of each
    N=6 pattern and stabilizer_codim_n6_patterns at one t per N=6 pattern;
    cp_inv_n6_unit_diagonal_20, 20 N=6 unit-diagonal conjugators;
    sample_point_n6_patterns, one sample_point per N=6 pattern at one
    fixed conjugator and t = (2, 3, 5, 7, 11, 13).
    End-to-end rows: geometry_suite_n6_30 and algebra_suite_n8_100 (the
    chain workload's sizes, seed 1); criterion_08 and criterion_09, the two
    suites at their defaults, which those acceptance criteria read;
    d1_localization_n16_cli_point, d1_mdeg_localization at the point that `brauerloop degrees --scheme D1
    --n 16` draws (seed 0); transition_matrix_n10, the 945-state move
    counts, and stationary_n10, the whole chain solve at N=10.
    """
    rng = random.Random(8)
    pi6 = maximal_pattern(6)
    sample6 = escheme.random_sample(pi6, rng).matrix
    bounds6 = rank_table(pi6)
    unit = escheme.random_conjugator(8, rng)
    scaled = ExactMatrix([[rng.choice((-3, -2, 2, 3)) if i == j else x
                           for j, x in enumerate(row)] for i, row in enumerate(unit.rows)])
    p, q = (ExactMatrix.build(8, lambda i, j: rng.choice((0, 0, -4, -1, 2, 3, 5)))
            for _ in range(2))
    a16, z16 = psitable.random_point(16, cli._rng(0, "d1point/16"))
    samples6 = [escheme.random_sample(pi, rng) for pi in enumerate_patterns(6)]
    conjugators6 = [escheme.random_conjugator(6, rng) for _ in range(20)]
    jobs = dict(cli.algebra_jobs([8], seed=1, count=100))
    conjugator6, t6 = escheme.random_conjugator(6, random.Random(6)), (2, 3, 5, 7, 11, 13)
    patterns6 = list(enumerate_patterns(6))
    dense_rng = random.Random(30)
    dense30 = [[dense_rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]
    return {
        "sfamily_check_n8_100": timed(jobs["algebra/sfamily/N8"]),
        "strip_check_n8_100": timed(jobs["algebra/strip/N8"]),
        "tangent_dimension_n6_patterns": timed(
            lambda: [escheme.tangent_dimension(sp.matrix) for sp in samples6]),
        "stabilizer_codim_n6_patterns": timed(
            lambda: [escheme.stabilizer_codim(sp.pattern, sp.t) for sp in samples6]),
        "cp_inv_n6_unit_diagonal_20": timed(lambda: [cp_inv(p6) for p6 in conjugators6]),
        "sample_point_n6_patterns": timed(
            lambda: [escheme.sample_point(pi, t6, conjugator6) for pi in patterns6]),
        "check_rank_bounds_n6": timed(
            lambda: escheme.check_rank_bounds(sample6, bounds6), number=LAYER_CALLS),
        "rank_dense_n30": timed(lambda: linalg.rank(dense30), number=LAYER_CALLS),
        "cp_inv_n8_unit_diagonal": timed(lambda: cp_inv(unit), number=LAYER_CALLS),
        "cp_inv_n8_integer_diagonal": timed(lambda: cp_inv(scaled), number=LAYER_CALLS),
        "s_mul_n8_s0": timed(lambda: s_mul(p, q, 0), number=LAYER_CALLS),
        "s_mul_n8_s_minus_3_2": timed(lambda: s_mul(p, q, Fraction(-3, 2)), number=LAYER_CALLS),
        "geometry_suite_n6_30": timed(
            lambda: suite("geometry", n=6, seed=1, points=30), E2E_REPEATS),
        "algebra_suite_n8_100": timed(
            lambda: suite("algebra", n=8, seed=1, points=100), E2E_REPEATS),
        "criterion_08": timed(lambda: suite("geometry"), E2E_REPEATS),
        "criterion_09": timed(lambda: suite("algebra"), E2E_REPEATS),
        "d1_localization_n16_cli_point": timed(
            lambda: pfdet.d1_mdeg_localization(16, a16, z16), E2E_REPEATS),
        "transition_matrix_n10": timed(lambda: loopchain.transition_matrix(10)),
        "stationary_n10": timed(lambda: loopchain.stationary(10), E2E_REPEATS),
    }


def tables() -> dict:
    """Timings of building, hashing, writing and reloading tables.

    Every hashing or writing row starts from a copy of a table built
    beforehand, made with the same fields but without its serialized
    text, so the text is paid for in each call as a fresh table would.
    Rows: compute_table_n5 and compute_table_n6; representatives_n7,
    compute_table(7), which builds the N=7 orbit representatives alone;
    content_hash_n5;
    write_table_n5 and write_table_n6, to an absent file; store_load_n5 and
    store_load_n6, TableStore.load from a file written beforehand; and
    cmd_table_n6_cold and cmd_table_n6_warm, the whole `brauerloop table
    --n 6` command with no file in the table directory and with the file it
    wrote there, its stdout discarded.
    Rows with a cheap call take REPEATS samples, the cmd_table rows and
    representatives_n7 E2E_REPEATS, all of one call.
    """
    def fresh(table: MdegTable) -> MdegTable:
        return dataclasses.replace(table)

    def write_absent(table: MdegTable, path: Path) -> None:
        path.unlink(missing_ok=True)
        cli.write_table(fresh(table), path)

    def cmd_table(directory: Path, cold: bool) -> None:
        if cold:
            (directory / "mdeg-6.json").unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["table", "--n", "6", "--table-dir", str(directory)])

    built = {n: psitable.compute_table(n) for n in (5, 6)}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = cli.TableStore(root / "store")
        for n, table in built.items():
            cli.write_table(table, store.path(n))
        out = root / "out.json"
        cold, warm = root / "cold", root / "warm"
        cmd_table(warm, cold=False)  # writes the file the warm row keeps
        return {
            "compute_table_n5": timed(lambda: psitable.compute_table(5)),
            "compute_table_n6": timed(lambda: psitable.compute_table(6)),
            "content_hash_n5": timed(lambda: fresh(built[5]).content_hash()),
            "write_table_n5": timed(lambda: write_absent(built[5], out)),
            "write_table_n6": timed(lambda: write_absent(built[6], out)),
            "store_load_n5": timed(lambda: store.load(5)),
            "store_load_n6": timed(lambda: store.load(6)),
            "cmd_table_n6_cold": timed(lambda: cmd_table(cold, cold=True), E2E_REPEATS),
            "cmd_table_n6_warm": timed(lambda: cmd_table(warm, cold=False), E2E_REPEATS),
            "representatives_n7": timed(lambda: psitable.compute_table(7), E2E_REPEATS),
        }


def sumrules() -> dict:
    """Timings of the Pfaffian sum rule and the square-zero cone checks.

    Layer row: total_mdeg_pfaffian_value_n5_points, one pass of
    total_mdeg_pfaffian_value over the integer images of the 20 points
    that sum_rule_total draws for N=5 in `brauerloop verify sumrules`
    (seed 0).  Check rows, on the N=5 table at that suite's points:
    sum_rule_total_n5, and d0_multiplicity_n5, the check of the d1 suite.
    positivity_n5: positivity_spot_check on the N=5 table, 5 trials at seed 1.
    CLI-point row: d1_pfaffian_form_n20_cli_point, d1_mdeg_pfaffian_form at
    the point that `brauerloop degrees --scheme D1 --n 20` draws (seed 0).
    End-to-end rows, on tables N=2..6 built beforehand: criterion_05 and
    criterion_07, the sumrules and d1 suites at their defaults, which those
    acceptance criteria read.
    """
    store = cli.TableStore(None)
    table5 = store.get(5)
    for n in (2, 3, 4, 6):
        store.get(n)
    total_seed, d1_seed = cli._int_seed(0, "total/5"), cli._int_seed(0, "d1/5")
    rng = random.Random(total_seed)
    points5 = [psitable.integer_image(*psitable.random_point(5, rng)) for _ in range(20)]
    a20, z20 = psitable.random_point(20, cli._rng(0, "d1point/20"))
    return {
        "total_mdeg_pfaffian_value_n5_points": timed(
            lambda: [pfdet.total_mdeg_pfaffian_value(5, a, z) for a, z in points5]),
        "sum_rule_total_n5": timed(lambda: psitable.sum_rule_total(table5, seed=total_seed)),
        "d0_multiplicity_n5": timed(lambda: pfdet.d0_multiplicity_check(table5, seed=d1_seed)),
        "positivity_n5": timed(lambda: psitable.positivity_spot_check(table5, trials=5, seed=1)),
        "d1_pfaffian_form_n20_cli_point": timed(
            lambda: pfdet.d1_mdeg_pfaffian_form(20, a20, z20)),
        "criterion_05": timed(lambda: suite("sumrules", store=store), E2E_REPEATS),
        "criterion_07": timed(lambda: suite("d1", store=store), E2E_REPEATS),
    }


GROUPS = {"exactpoly": exactpoly, "exchange": exchange,
          "chainsuites": chainsuites, "tables": tables, "sumrules": sumrules}


# ------------------------------------------------------------------ recording


def value_field(row: dict) -> str | None:
    """The field of a row that a ratio compares: a timed median or the stored bytes."""
    return "median" if "median" in row else "dict_and_keys" if "dict_and_keys" in row else None


# a child interpreter: load the script by path, run one group, write its rows
_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_child", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
rows = module.GROUPS[sys.argv[2]]()
with open(sys.argv[3], "w") as fh:
    json.dump(rows, fh)
"""


def child_rows(group: str, tree: Path, script: Path) -> dict:
    """The rows of one run of the group in a fresh interpreter on tree/src alone."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.json"
        subprocess.run([sys.executable, "-c", _CHILD, str(script), group, str(out)],
                       cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                       check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())


def _spread(before: list[float], after: list[float]) -> dict:
    r = [round(x / y, 3) for x, y in zip(after, before)]
    return {"before": before, "after": after, "ratios": r,
            "median": statistics.median(r), "min": min(r), "max": max(r)}


def compare(before: list[dict], after: list[dict]) -> dict:
    """Each row's per-pair values and after/before ratios, with their median,
    min and max, over runs taken in pairs; for a timed row also those of
    its host-scaled medians, as the scaled_ fields.  A row that only the
    after runs have keeps its after values alone."""
    rows = {}
    for name, row in after[0].items():
        field = value_field(row)
        if field is None:
            continue
        values = [run[name][field] for run in after]
        if name not in before[0]:
            rows[name] = {"field": field, "after": values}
            continue
        rows[name] = {"field": field, **_spread([run[name][field] for run in before], values)}
        if "scaled_median" in row:
            scaled = _spread([run[name]["scaled_median"] for run in before],
                             [run[name]["scaled_median"] for run in after])
            rows[name].update({f"scaled_{key}": value for key, value in scaled.items()})
    return rows


def paired(group: str, before: Path, after: Path, script: Path,
           pairs: int = PAIRS) -> dict:
    """pairs runs of the group per tree, the trees alternating and each
    running first in every other pair, and each row's after/before ratios."""
    samples: dict[str, list[dict]] = {"before": [], "after": []}
    order = [("before", before), ("after", after)]
    for _ in range(pairs):
        for label, tree in order:
            samples[label].append(child_rows(group, tree, script))
        order.reverse()
    return {
        "command": f"PYTHONPATH=src python3 tools/bench.py {group} --before <checkout>",
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": machine(),
        "pairs": pairs,
        "before_sha256": source_digest(before / "src" / "brauerloop"),
        "after_sha256": source_digest(after / "src" / "brauerloop"),
        "rows": compare(samples["before"], samples["after"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("group", choices=sorted(GROUPS))
    parser.add_argument("--before", type=Path, metavar="CHECKOUT", required=True,
                        help="time this checkout's sources against CHECKOUT's, in alternating pairs")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.group}.json"
    bench = json.loads(out.read_text()) if out.is_file() else {}
    bench.setdefault("paired", []).append(paired(args.group, args.before.resolve(), ROOT, SCRIPT))
    tmp = out.with_name(f".{out.name}.tmp")
    try:
        tmp.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
