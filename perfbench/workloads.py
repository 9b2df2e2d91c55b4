"""The three benchmark workloads: set-up, one timed pass each, and the output gate.

build   the write path: compute_table(5) with validate, content_hash and
        cli.write_table, then base_mdeg(6) and one N=6 recursion_step.
        Dominated by exactpoly mul / ddiff / exact_divide.
verify  the read path: set-up computes and persists the tables N=2..5; a pass
        reloads them through cli.TableStore and runs the checks that read
        them.  Dominated by exactpoly tau / add / evaluate, pfdet and commvar.
chain   stationary(8) against degree_determinant (a 105-state chain), the
        geometry suite at N=6 and the algebra suite at N=8.  No polynomial
        arithmetic.

A pass is a few named steps, each timed by the caller-supplied ``step``
context manager; a run repeats passes and reports each step's median time
(see run.py).  Steps are kept short so that a run holds many
passes: nothing of size 6 is tabulated, because compute_table(6) alone takes
15-17 s, and the N=7 recursion step (~7 s) is left out too.  The workload seed
reaches the library only through its own seed arguments (suite seeds,
positivity and sum-rule points); build takes no seed.  Every pass returns a
digest of its outputs, so a traced pass can be compared with an untraced
one, and records each check through a Gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from brauerloop import cli, loopchain, pfdet, psitable
from brauerloop.linkpat import maximal_pattern

# Output gate, pinned at the seed commit.
TABLE_HASHES = {
    2: "9fb8712be34bdf95193cd0d8acf08c9d5a9f6762d7f60819f9ff48677a49b703",
    3: "f9c66ecec6770672ea047d3782509383a55f8a61b63393879a5974d41f6ae3cc",
    4: "cd9205eb37d6150e7dec937f580ea820d1cfb59c044e82951af1919ee6fdabc4",
    5: "f381ca162463d129132f8408373c3d7332091105dc871f871326c4933f47be7c",
}
STEP6_HASH = "e0ac0c2d6349b6fb106a2a1b46e205600f162335fa3e41dbbcda742fe7e68dc0"
STEP6_TERMS = 6086
DEGREE_SUMS = {2: 1, 3: 3, 4: 7, 5: 55}
STATIONARY_N, STATIONARY_SUM = 8, 82977
COMMUTING = "1 3 31 1145 154881"

# Sizes of the checks inside one pass.
VERIFY_MAX_N = 5         # tables and every check of verify; the suites use their default points
POSITIVITY_TRIALS = 5
GEOMETRY_SAMPLES = 30
ALGEBRA_INSTANCES = 100


class Gate:
    """Counts attempted and failed checks; failures keep a one-line witness."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{label}: got {got!r}, want {want!r}")

    def run(self, label: str, fn):
        """Call fn(); an exception is a failed check.  Returns fn's result or None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every library error becomes a witness
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def suite(self, report: cli.SuiteReport) -> list:
        for c in report.checks:
            self.attempted += 1
            if not c.passed:
                self.failures.append(f"{c.check_id}: {c.witness}")
        return [[c.check_id, c.passed, c.note] for c in report.checks]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _table_size(check_id: str) -> int:
    """The N of a check id ending in /N<size>, else 0."""
    last = check_id.rsplit("/", 1)[-1]
    return int(last[1:]) if last[:1] == "N" and last[1:].isdigit() else 0


def _suite_args(seed: int, *, n=None, max_n=None, points=None) -> argparse.Namespace:
    return argparse.Namespace(n=n, max_n=max_n, seed=seed, points=points)


# ----------------------------------------------------------------------- set-up


def setup(workload: str, workdir: str | Path) -> None:
    """Work done before timing starts.  verify persists the tables N=2..5."""
    if workload == "verify":
        store = cli.TableStore(Path(workdir))
        for n in range(2, VERIFY_MAX_N + 1):
            cli.write_table(psitable.compute_table(n), store.path(n))


# ----------------------------------------------------------------------- passes


def build_pass(gate: Gate, seed: int, workdir: Path, step) -> dict:
    out: dict = {}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = Path(tmp) / "mdeg-5.json"
        with step("table5"):
            table = psitable.compute_table(5)
            gate.run("validate/N5", table.validate)
            out["N5"] = table.content_hash()
            gate.expect("write_table/N5", cli.write_table(table, path), True)
        gate.expect("content_hash/N5", out["N5"], TABLE_HASHES[5])
        gate.expect("written_hash/N5", json.loads(path.read_text())["hash"], TABLE_HASHES[5])
    with step("step6"):
        poly = psitable.recursion_step(psitable.base_mdeg(6), maximal_pattern(6), 1)
        out["step6"] = [_digest(poly.to_obj()), len(poly.terms)]
    gate.expect("recursion_step/N6/hash", out["step6"][0], STEP6_HASH)
    gate.expect("recursion_step/N6/terms", out["step6"][1], STEP6_TERMS)
    return out


def verify_pass(gate: Gate, seed: int, workdir: Path, step) -> dict:
    store = cli.TableStore(workdir)
    sizes = range(2, VERIFY_MAX_N + 1)
    out: dict = {}
    with step("load"):
        for n in sizes:
            table = store.get(n)
            out[f"N{n}"] = [table.content_hash(), table.degree_sum()]
    for n in sizes:
        gate.expect(f"content_hash/N{n}", out[f"N{n}"][0], TABLE_HASHES[n])
        gate.expect(f"degree_sum/N{n}", out[f"N{n}"][1], DEGREE_SUMS[n])
    for suite in ("exchange", "sumrules", "d1", "markov", "commuting"):
        jobs = cli.suite_jobs(suite, _suite_args(seed, max_n=VERIFY_MAX_N), store)
        # the commuting suite also crosschecks the N=6 table, which is not persisted
        jobs = [job for job in jobs if _table_size(job[0]) <= VERIFY_MAX_N]
        with step(suite):
            report = cli.run_suite(suite, jobs)
        out[suite] = gate.suite(report)
    notes = {cid: note for cid, _, note in out["commuting"]}
    gate.expect("commuting/sequence", notes.get("commuting/sequence"), COMMUTING)
    big, small = store.get(4), store.get(2)
    checks = [(f"specialize/N4/{i}", lambda i=i: psitable.specialize_check(big, small, i))
              for i in range(1, 4)]
    checks += [(f"smallarch/N4/{i}", lambda i=i: psitable.smallarch_check(big, i))
               for i in range(1, 5)]
    for n in sizes:
        table = store.get(n)
        checks.append((f"rotation/N{n}", lambda t=table: psitable.rotation_check(t)))
        checks.append((f"positivity/N{n}", lambda t=table: psitable.positivity_spot_check(
            t, trials=POSITIVITY_TRIALS, seed=seed)))
    with step("identities"):
        out["checks"] = [[label, gate.run(label, fn)] for label, fn in checks]
    return out


def chain_pass(gate: Gate, seed: int, workdir: Path, step) -> dict:
    out: dict = {}
    with step("stationary"):
        sol = loopchain.stationary(STATIONARY_N)
        det = pfdet.degree_determinant(STATIONARY_N)
    gate.expect(f"stationary/N{STATIONARY_N}/sum", sum(sol.normalized.values()), STATIONARY_SUM)
    gate.expect(f"stationary/N{STATIONARY_N}/determinant", det, STATIONARY_SUM)
    out["stationary"] = sorted([list(pi.pairing), w] for pi, w in sol.normalized.items())
    store = cli.TableStore(None)
    for suite, args in (("geometry", _suite_args(seed, n=6, points=GEOMETRY_SAMPLES)),
                        ("algebra", _suite_args(seed, n=8, points=ALGEBRA_INSTANCES))):
        with step(suite):
            report = cli.run_suite(suite, cli.suite_jobs(suite, args, store))
        out[suite] = gate.suite(report)
    return out


PASSES = {"build": build_pass, "verify": verify_pass, "chain": chain_pass}


def run_pass(workload: str, gate: Gate, seed: int, workdir: Path, step) -> str:
    """One pass; returns the digest of its outputs.

    workdir holds the persisted tables for verify and temporary files for
    build; step(name) is a context manager that times one named step.
    """
    return _digest(PASSES[workload](gate, seed, workdir, step))
