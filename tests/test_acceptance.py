"""End-to-end acceptance runs.

Every criterion prints exactly one PASS/FAIL line on the terminal
(bypassing capture), then fails the usual way if something is off.  The
criteria that a verify suite checks read the session's one `verify all`
run (the `verify_all` fixture); its pinned stdout fixes every size, seed
and count.  The others call the library directly.  The two heavyweight
computations carry wall-clock budgets; the large-size runs sit at the end.
"""

import contextlib
import time

from conftest import store_table

from brauerloop.commvar import commuting_degree, delta
from brauerloop.linkpat import LinkPattern
from brauerloop.loopchain import stationary
from brauerloop.pfdet import degree_determinant
from brauerloop.psitable import (
    compute_table,
    positivity_spot_check,
    reflection_check,
    rotation_check,
    smallarch_check,
    specialize_check,
)


@contextlib.contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS {label}", flush=True)


def passed(run, suite: str) -> dict[str, str]:
    """The notes of the run's checks of one suite, by id; each must have passed.

    A failure names the suite's failing checks with their witnesses.
    """
    checks = [c for c in run.checks.values() if c.check_id.startswith(f"{suite}/")]
    failed = [f"FAIL {c.check_id} :: {c.witness}" for c in checks if not c.passed]
    assert checks and not failed, "\n".join(failed) or f"no {suite} check ran"
    return {c.check_id: c.note for c in checks}


def test_criterion_01_degree_sums(capsys):
    start = time.perf_counter()
    sums = {}
    for n in range(2, 7):
        table = compute_table(n)
        store_table(table)
        total = table.degree_sum()
        assert total == degree_determinant(n)
        sums[n] = total
    elapsed = time.perf_counter() - start
    with criterion(capsys, "criterion 01: degree sums match the binomial "
                           f"determinant, N=2..6 ({elapsed:.1f}s)"):
        assert sums == {2: 1, 3: 3, 4: 7, 5: 55, 6: 307}
        assert elapsed < 60


def test_criterion_01_stretch_seven(capsys):
    start = time.perf_counter()
    sizes = range(7, 11)
    totals = {n: sum(stationary(n).normalized.values()) for n in sizes}
    elapsed = time.perf_counter() - start
    with criterion(capsys, "criterion 01 stretch: N=7..10 degree sums by chain "
                           f"evaluation ({elapsed:.1f}s)"):
        assert totals == {n: degree_determinant(n) for n in sizes} == {
            7: 6153, 8: 82977, 9: 4196961, 10: 137460201}
        assert elapsed < 600


def test_criterion_02_commuting_sequence(capsys, verify_all):
    with criterion(capsys, "criterion 02: commuting pairs degrees through n=6"):
        assert passed(verify_all, "commuting")["commuting/sequence"] == \
            "1 3 31 1145 154881 77899563"


def test_criterion_03_exchange(capsys, tables, verify_all):
    with criterion(capsys, "criterion 03: exchange identity exact at every "
                           "position, N=2..6"):
        assert passed(verify_all, "exchange") == {
            f"exchange/N{n}": f"{n * len(tables(n).patterns())} identities"
            for n in range(2, 7)}


def test_criterion_04_markov(capsys, verify_all):
    with criterion(capsys, "criterion 04: stationary chain weights equal the "
                           "table values, N=2..6"):
        passed(verify_all, "markov")
        assert stationary(4).normalized == {
            LinkPattern((2, 1, 4, 3)): 3,
            LinkPattern((3, 4, 1, 2)): 1,
            LinkPattern((4, 3, 2, 1)): 3,
        }


def test_criterion_05_sum_rules(capsys, verify_all):
    with criterion(capsys, "criterion 05: sector sum rule (N=2,4,6) and "
                           "Pfaffian total (20 points, N=2..6)"):
        passed(verify_all, "sumrules")


def test_criterion_06_specialization_smallarch(capsys, tables):
    with criterion(capsys, "criterion 06: specialization and small-arch "
                           "identities, N=4 and N=6"):
        for n in (4, 6):
            big, small = tables(n), tables(n - 2)
            for i in range(1, n):
                specialize_check(big, small, i)
            for i in range(1, n + 1):
                smallarch_check(big, i)


def test_criterion_07_square_zero_cone(capsys, verify_all):
    with criterion(capsys, "criterion 07: square-zero cone forms with "
                           "multiplicity 2^(n+r), 20 points, N=2..6"):
        passed(verify_all, "d1")


def test_criterion_08_geometry(capsys, verify_all):
    with criterion(capsys, "criterion 08: component membership, rank bounds, "
                           "tangent and stabilizer dimensions, N=3..6"):
        passed(verify_all, "geometry")


def test_criterion_09_algebra(capsys, verify_all):
    with criterion(capsys, "criterion 09: circular product algebra, 1000 "
                           "instances per property, N=2..8"):
        assert len(passed(verify_all, "algebra")) == 6 * 7


def test_criterion_10_regressions(capsys, tables, verify_all):
    with criterion(capsys, "criterion 10: every edge equation, homogeneity, "
                           "rotation and reflection covariance, positivity"):
        passed(verify_all, "edges")
        for n in range(2, 7):
            table = tables(n)
            table.validate()
            rotation_check(table)
            reflection_check(table)
            positivity_spot_check(table, trials=100)


def test_criterion_02_stretch_seven(capsys):
    start = time.perf_counter()
    d = delta(7)
    elapsed = time.perf_counter() - start
    with criterion(capsys, "criterion 02 stretch: n=7 commuting pairs degree "
                           f"({elapsed:.1f}s)"):
        assert d.degree == 147226330175
        assert elapsed < 1800
        assert commuting_degree(7) == d.degree
