"""Timings of building, hashing, writing and reloading tables, as BENCH rows.

Run it once per checkout, on the same machine, with that checkout's sources
first on the path:

    PYTHONPATH=<checkout>/src python3 tools/bench_tables.py --label before
    PYTHONPATH=src python3 tools/bench_tables.py --label after

The timer, the repeat counts and the label handling are those of
tools/bench_exactpoly.py: each run replaces its label's entry in
BENCH_tables.json, and once both labels are present after_over_before
holds the ratio of every row's median CPU seconds per call.  Rows with a
cheap call take REPEATS samples, the cmd_table rows E2E_REPEATS samples,
all of one call.

Every hashing or writing row starts from a new MdegTable over the entries
of a table built beforehand, so a table that keeps its serialized text
pays for it in each call as a fresh one would.  Rows: compute_table(5);
content_hash at N=5; write_table at N=5 and N=6 to an absent file;
TableStore.load at N=5 and N=6 from a file written beforehand; and the
whole `brauerloop table --n 6` command, cold (no file in the table
directory) and warm (the file it wrote is there), its stdout discarded.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from bench_exactpoly import E2E_REPEATS, record, timed

from brauerloop import cli, psitable
from brauerloop.psitable import MdegTable

OUT = Path(__file__).resolve().parent.parent / "BENCH_tables.json"
COMMAND = "PYTHONPATH=<checkout>/src python3 tools/bench_tables.py --label <before|after>"


def fresh(table: MdegTable) -> MdegTable:
    return MdegTable(table.n, table.entries, table.edges)


def write_absent(table: MdegTable, path: Path) -> None:
    path.unlink(missing_ok=True)
    cli.write_table(fresh(table), path)


def cmd_table(directory: Path, cold: bool) -> None:
    if cold:
        (directory / "mdeg-6.json").unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["table", "--n", "6", "--table-dir", str(directory)])


def rows() -> dict:
    tables = {n: psitable.compute_table(n) for n in (5, 6)}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = cli.TableStore(root / "store")
        for n, table in tables.items():
            cli.write_table(table, store.path(n))
        out = root / "out.json"
        cold, warm = root / "cold", root / "warm"
        cmd_table(warm, cold=False)  # writes the file the warm row keeps
        return {
            "compute_table_n5": timed(lambda: psitable.compute_table(5)),
            "content_hash_n5": timed(lambda: fresh(tables[5]).content_hash()),
            "write_table_n5": timed(lambda: write_absent(tables[5], out)),
            "write_table_n6": timed(lambda: write_absent(tables[6], out)),
            "store_load_n5": timed(lambda: store.load(5)),
            "store_load_n6": timed(lambda: store.load(6)),
            "cmd_table_n6_cold": timed(lambda: cmd_table(cold, cold=True), E2E_REPEATS),
            "cmd_table_n6_warm": timed(lambda: cmd_table(warm, cold=False), E2E_REPEATS),
        }


def main(argv: list[str] | None = None) -> int:
    return record(OUT, COMMAND, __doc__.split("\n\n")[0], rows, argv)


if __name__ == "__main__":
    sys.exit(main())
