"""Command line surface: table persistence, degree reports, verify suites,
and byte-stable output."""

import hashlib
import json
import os
import stat
from argparse import Namespace
from fractions import Fraction

import pytest
from conftest import table_tree

from brauerloop import cli
from brauerloop.circlealg import _divided
from brauerloop.errors import ExponentOverflow, IdentityViolation
from brauerloop.exactpoly import MAX_EXPONENT, MultiPoly
from brauerloop.linkpat import enumerate_patterns, maximal_pattern
from brauerloop.psitable import MdegTable


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_table_write_then_keep(tmp_path, capsys):
    args = ["table", "--n", "2", "--table-dir", str(tmp_path)]
    code, out = run(args, capsys)
    assert code == 0
    assert "wrote" in out
    path = tmp_path / "mdeg-2.json"
    assert path.is_file()
    payload = json.loads(path.read_text())
    assert payload["n"] == 2
    # second run loads the file and leaves it alone
    code, out = run(args, capsys)
    assert code == 0
    assert "kept" in out
    assert json.loads(path.read_text()) == payload


def test_table_refuses_foreign_overwrite(tmp_path, capsys):
    target = tmp_path / "shared.json"
    code, _ = run(["table", "--n", "2", "--table-dir", str(tmp_path),
                   "--out", str(target)], capsys)
    assert code == 0
    with pytest.raises(SystemExit):
        cli.main(["table", "--n", "3", "--table-dir", str(tmp_path),
                  "--out", str(target)])
    capsys.readouterr()
    assert json.loads(target.read_text())["n"] == 2
    code, _ = run(["table", "--n", "3", "--table-dir", str(tmp_path),
                   "--out", str(target), "--force"], capsys)
    assert code == 0
    assert json.loads(target.read_text())["n"] == 3


def canonical_file(table: MdegTable) -> str:
    """The table file as a json.dumps of the whole payload would write it."""
    obj = table_tree(table)
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    payload = {"n": table.n, "hash": digest, "table": obj}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_written_file_is_the_canonical_payload(tmp_path, tables, n):
    table = tables(n)
    want = canonical_file(table)
    assert table.content_hash() == json.loads(want)["hash"]
    path = tmp_path / f"mdeg-{n}.json"
    assert cli.write_table(table, path)
    assert path.read_text() == want


def test_table_command_serializes_once(tmp_path, capsys, monkeypatch):
    # the table's text is written entry by entry, each entry once
    calls = []
    to_json = MultiPoly.to_json

    def counted(self, suffixes):
        calls.append(self.nz)
        return to_json(self, suffixes)

    monkeypatch.setattr(MultiPoly, "to_json", counted)
    args = ["table", "--n", "3", "--table-dir", str(tmp_path)]
    for word in ("wrote", "kept"):  # computed, then reloaded
        calls.clear()
        code, out = run(args, capsys)
        assert code == 0 and out.splitlines()[-1].startswith(word)
        assert calls == [3] * len(enumerate_patterns(3))


def test_identical_file_is_kept_unparsed(tmp_path, monkeypatch, tables):
    path = tmp_path / "mdeg-3.json"
    assert cli.write_table(tables(3), path)
    before = path.stat().st_mtime_ns

    def refuse(*args, **kw):
        raise AssertionError("an identical file was parsed")

    with monkeypatch.context() as patch:
        patch.setattr(cli.json, "loads", refuse)
        assert cli.write_table(tables(3), path) is False
    assert path.stat().st_mtime_ns == before
    # a file naming the same hash in another layout is parsed and kept too
    spaced = json.dumps(json.loads(canonical_file(tables(3))))
    path.write_text(spaced)
    assert cli.write_table(tables(3), path) is False
    assert path.read_text() == spaced


def test_refusal_names_the_foreign_hash(tmp_path, tables):
    path = tmp_path / "mdeg.json"
    assert cli.write_table(tables(2), path)
    with pytest.raises(SystemExit, match=tables(2).content_hash()):
        cli.write_table(tables(3), path)
    for text in ("[]", "[" * 100_000):
        path.write_text(text)
        with pytest.raises(SystemExit, match="hash unreadable"):
            cli.write_table(tables(3), path)


def test_table_corrupt_file_is_recomputed(tmp_path, capsys):
    # the second text nests too deeply for json.loads, which raises RecursionError
    for text in ("{not json", "[" * 100_000):
        path = tmp_path / "mdeg-2.json"
        path.write_text(text)
        store = cli.TableStore(tmp_path)
        assert store.load(2) is None
        table = store.get(2)
        assert table.n == 2


def test_table_with_fractional_coefficient_is_recomputed(tmp_path, tables):
    # a well-formed file whose hash matches, but one coefficient is 1/2
    obj = tables(3).to_obj()
    obj["entries"][0][1][0][0] = "1/2"
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    payload = {"n": 3, "hash": hashlib.sha256(blob.encode()).hexdigest(), "table": obj}
    store = cli.TableStore(tmp_path)
    store.path(3).write_text(json.dumps(payload))
    assert store.load(3) is None
    assert store.get(3).content_hash() == tables(3).content_hash()


def tampered_table_is_recomputed(tmp_path, tables, obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    payload = {"n": 3, "hash": hashlib.sha256(blob.encode()).hexdigest(), "table": obj}
    store = cli.TableStore(tmp_path)
    store.path(3).write_text(json.dumps(payload))
    assert store.load(3) is None
    assert store.get(3).content_hash() == tables(3).content_hash()


def test_table_with_overflowing_exponent_is_recomputed(tmp_path, tables):
    # a well-formed file whose hash matches, but one A-exponent needs a wider field
    obj = tables(3).to_obj()
    obj["entries"][0][1][0][1] = MAX_EXPONENT + 1
    with pytest.raises(ExponentOverflow):
        MdegTable.from_obj(obj)
    tampered_table_is_recomputed(tmp_path, tables, obj)


def test_table_with_overflowing_size_is_recomputed(tmp_path, tables):
    # the size sets each entry's field count, so it is checked before any entry
    obj = tables(3).to_obj()
    obj["n"] = 2 ** 70
    tampered_table_is_recomputed(tmp_path, tables, obj)


def test_table_missing_an_entry_is_recomputed(tmp_path, tables):
    # a well-formed file whose hash matches, with one non-base entry and its edge gone
    obj = tables(3).to_obj()
    base = list(maximal_pattern(3).pairing)
    k = next(k for k, (pairing, _) in enumerate(obj["entries"]) if pairing != base)
    del obj["entries"][k], obj["edges"][k]
    tampered_table_is_recomputed(tmp_path, tables, obj)


def test_table_requires_n():
    with pytest.raises(SystemExit):
        cli.main(["table"])
    with pytest.raises(SystemExit):
        cli.main(["table", "--n", "1"])


def test_table_json_format(tmp_path, capsys):
    code, out = run(["table", "--n", "3", "--table-dir", str(tmp_path),
                     "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["patterns"] == 3
    assert set(obj["degrees"].values()) == {1}


def test_table_rejects_sizes_it_cannot_finish(tmp_path):
    with pytest.raises(SystemExit, match=r"--n must lie in 2\.\.6"):
        cli.main(["table", "--n", "7", "--table-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_write_table_is_atomic(tmp_path, monkeypatch, tables):
    path = tmp_path / "mdeg.json"
    assert cli.write_table(tables(2), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cli.write_table(tables(3), path, force=True)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["mdeg.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_written_file_has_the_mode_open_gives(tmp_path, tables, umask, mode):
    path = tmp_path / "mdeg.json"
    old = os.umask(umask)
    try:
        assert cli.write_table(tables(2), path)
        with open(tmp_path / "opened", "w"):
            pass
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "opened").stat().st_mode) == mode


def test_table_write_failure_is_reported(tmp_path):
    # a target that is a directory, and a table directory that is a file
    target, blocker = tmp_path / "target", tmp_path / "blocker"
    target.mkdir()
    (target / "inside").write_text("kept")
    blocker.write_text("kept")
    for flags, shown, reason in [
        (["--out", str(target), "--table-dir", str(tmp_path / "tables")], target,
         "Is a directory"),
        (["--table-dir", str(blocker)], blocker / "mdeg-2.json", "File exists"),
    ]:
        with pytest.raises(SystemExit, match=f"^error: cannot write {shown}: {reason}$"):
            cli.main(["table", "--n", "2", *flags])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "target"]
    assert [p.name for p in target.iterdir()] == ["inside"]
    assert (target / "inside").read_text() == blocker.read_text() == "kept"


@pytest.mark.parametrize("argv, message", [
    (["--scheme", "E", "--n", "0"], r"--n must lie in 1\.\.10"),
    (["--scheme", "E", "--n", "11"], r"--n must lie in 1\.\.10"),
    (["--scheme", "E", "--max-n", "11"], r"--max-n must lie in 2\.\.10"),
    (["--scheme", "D1", "--n", "0"], r"--n must lie in 1\.\.20"),
    (["--scheme", "D1", "--n", "21"], r"--n must lie in 1\.\.20"),
    (["--scheme", "commuting", "--n", "8"], r"--n must lie in 1\.\.7"),
    (["--scheme", "commuting", "--max-n", "0"], r"--max-n must lie in 1\.\.7"),
    (["--scheme", "E", "--max-n", "1"], r"--max-n must lie in 2\.\.10"),
])
def test_degrees_rejects_sizes_it_cannot_finish(tmp_path, argv, message):
    with pytest.raises(SystemExit, match=message):
        cli.main(["degrees", *argv, "--table-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_degrees_smallest_sizes(tmp_path, capsys):
    code, out = run(["degrees", "--scheme", "E", "--n", "1",
                     "--table-dir", str(tmp_path)], capsys)
    assert code == 0 and "determinant 1, table sum 1" in out
    code, out = run(["degrees", "--scheme", "commuting", "--n", "1"], capsys)
    assert code == 0 and out.strip() == "1"
    code, _ = run(["degrees", "--scheme", "D1", "--n", "1"], capsys)
    assert code == 0


def test_degrees_commuting(capsys):
    code, out = run(["degrees", "--scheme", "commuting", "--max-n", "4"], capsys)
    assert code == 0
    assert out.strip() == "1 3 31 1145"


def test_degrees_loop_scheme(tmp_path, capsys):
    code, out = run(["degrees", "--scheme", "E", "--max-n", "3",
                     "--table-dir", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "determinant 1, table sum 1" in lines[0]
    assert "determinant 3, table sum 3" in lines[1]


DEGREES_E_MAX_8 = "ef1c1b59091982d06cca000bc5c1e8bd0afb0fbc8326a6b8a80e4359276c31db"


def test_degrees_report_is_pinned(tmp_path, capsys, tables):
    # N=2..6 read the persisted tables, N=7 and 8 solve the chain
    store = cli.TableStore(tmp_path)
    for n in range(2, 7):
        cli.write_table(tables(n), store.path(n))
    code, out = run(["degrees", "--scheme", "E", "--max-n", "8",
                     "--table-dir", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEGREES_E_MAX_8


@pytest.mark.parametrize("n, line", [
    (9, "E N=9: determinant 4196961, chain sum 4196961"),
    (10, "E N=10: determinant 137460201, chain sum 137460201"),
])
def test_degrees_chain_sizes(tmp_path, capsys, n, line):
    code, out = run(["degrees", "--scheme", "E", "--n", str(n),
                     "--table-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out == line + "\n"


def test_degrees_square_zero_cone(capsys):
    code, out = run(["degrees", "--scheme", "D1", "--n", "3",
                     "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["localization"] == obj["pfaffian_form"]


def test_degrees_needs_size(capsys):
    with pytest.raises(SystemExit):
        cli.main(["degrees", "--scheme", "D1"])
    with pytest.raises(SystemExit):
        cli.main(["degrees", "--scheme", "commuting"])


def test_verify_markov(tmp_path, capsys):
    args = ["verify", "markov", "--max-n", "3", "--table-dir", str(tmp_path)]
    code, out = run(args, capsys)
    assert code == 0
    assert "suite markov: 2/2 checks passed" in out
    assert all(line.startswith(("PASS", "suite")) for line in out.splitlines())
    # reports are byte stable run to run
    code, again = run(args, capsys)
    assert again == out


def test_verify_algebra_small(capsys):
    code, out = run(["verify", "algebra", "--n", "2", "--points", "15",
                     "--seed", "7"], capsys)
    assert code == 0
    assert "6/6 checks passed" in out


def test_algebra_witness_names_the_drawn_matrices(monkeypatch):
    # the checks draw and multiply denominator-cleared matrices; a failure
    # still reports the matrices as drawn, Fraction entries included
    rng = cli._rng(0, "assoc/3")
    drawn = [_divided(*cli._random_cleared(3, rng)) for _ in range(3)]
    assert all(any(isinstance(x, Fraction) for row in m.rows for x in row) for m in drawn)
    monkeypatch.setattr(cli, "cp_mul", lambda p, q: p - q)  # not associative
    with pytest.raises(IdentityViolation) as err:
        cli._check_assoc(3, cli._rng(0, "assoc/3"), 1)
    p, q, r = drawn
    assert str(err.value) == f"instance 0: P={p!r}, Q={q!r}, R={r!r}"


@pytest.mark.parametrize("row, col", [(0, 0), (0, 3), (2, 1), (3, 3)])
def test_strip_witness_is_the_first_entry_in_scan_order(monkeypatch, row, col):
    # one wrong entry of the product: the row-at-a-time compare names the
    # entry (i, i + d) that the scan over rows i, then d = 0..n-1, meets first
    cp_mul = cli.cp_mul

    def off_by_one(p, q):
        m = cp_mul(p, q)
        m.rows[row][col] += 1
        return m

    rng = cli._rng(0, "strip/4")
    drawn = [_divided(*cli._random_cleared(4, rng)) for _ in range(2)]
    monkeypatch.setattr(cli, "cp_mul", off_by_one)
    with pytest.raises(IdentityViolation) as err:
        cli._check_strip(4, cli._rng(0, "strip/4"), 3)
    i, d = row + 1, (col - row) % 4
    p, q = drawn
    assert str(err.value) == f"instance 0 at ({i}, {i + d}): P={p!r}, Q={q!r}"


def test_sfamily_check_catches_a_kernel_without_its_off_arc_term(monkeypatch):
    # the cleared identity v T(P) T(Q) = T(v^N (P x_s Q)) needs the u^N
    # terms; a kernel that drops them must fail the first instance, s = u/v
    def arc_terms_only(p, q, u, v):
        return cli._times(v ** p.n, cli.cp_mul(p, q))

    monkeypatch.setattr(cli, "s_mul_cleared", arc_terms_only)
    with pytest.raises(IdentityViolation, match=r"^instance 0, s=-?\d+(/\d+)?: P="):
        cli._check_sfamily(4, cli._rng(0, "sfamily/4"), 5)


def test_verify_json_format(tmp_path, capsys):
    code, out = run(["verify", "markov", "--n", "2", "--table-dir",
                     str(tmp_path), "--format", "json"], capsys)
    assert code == 0
    [obj] = json.loads(out)
    assert obj["suite"] == "markov"
    assert obj["passed"] is True
    assert obj["checks"][0]["status"] == "pass"


def test_verify_all_json_is_one_document(tmp_path, capsys):
    code, out = run(["verify", "all", "--n", "3", "--points", "5", "--table-dir",
                     str(tmp_path), "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == list(cli.SUITES)
    assert all(r["passed"] for r in reports)


@pytest.mark.parametrize("argv", [
    ["verify", "sumrules", "--n", "3", "--points", "-4"],
    ["verify", "algebra", "--points", "-2"],
    ["verify", "d1", "--points", "0"],
])
def test_points_must_be_positive(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--table-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --points: must be at least 1, not {argv[-1]}" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["degrees", "--scheme", "commuting", "--n", "3", "--max-n", "5"],
    ["verify", "exchange", "--max-n", "4", "--n", "3"],
])
def test_n_and_max_n_exclude_each_other(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_verify_rejects_out_of_range_size(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["verify", "exchange", "--n", "9", "--table-dir", str(tmp_path)])


@pytest.mark.parametrize("argv, message", [
    (["exchange", "--max-n", "1"], r"--max-n must lie in 2\.\.6"),
    (["algebra", "--max-n", "1"], r"--max-n must lie in 2\.\.8"),
    (["geometry", "--max-n", "2"], r"--max-n must lie in 3\.\.6"),
    (["d1", "--max-n", "1"], r"--max-n must lie in 2\.\.6"),
    (["commuting", "--max-n", "0"], r"--max-n must lie in 1\.\.7"),
    (["commuting", "--n", "0"], r"--n must lie in 1\.\.7"),
    (["commuting", "--n", "9"], r"--n must lie in 1\.\.7"),
])
def test_verify_rejects_sizes_it_cannot_finish(tmp_path, capsys, argv, message):
    # a size that would run nothing, or never finish, is refused up front
    with pytest.raises(SystemExit, match=message):
        cli.main(["verify", *argv, "--table-dir", str(tmp_path)])
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())


# every verify suite in report order, with the top of its size range
SUITE_TOPS = {"algebra": 8, "geometry": 6, "edges": 6, "exchange": 6, "sumrules": 6,
              "markov": 6, "d1": 6, "commuting": 7}
VERIFY_ALL_IDS = "641cf28d9bd8ba07904c258c0ebff8eb620f3be1616edc5c0aa6cfdfd732ee8f"


def suite_ids(suite, max_n=None):
    # building jobs runs no check and computes no table
    args = Namespace(n=None, max_n=max_n, seed=0, points=None)
    return sorted(cid for cid, _ in cli.suite_jobs(suite, args, cli.TableStore(None)))


def test_verify_larger_max_n_stands_for_each_top():
    for suite, top in SUITE_TOPS.items():
        assert suite_ids(suite, max_n=8) == suite_ids(suite, max_n=top), suite


def test_verify_all_accepts_a_larger_max_n(tmp_path, monkeypatch):
    reached = []

    def run_nothing(suite, jobs):
        reached.append(suite)
        return cli.SuiteReport(suite, (), 0.0)

    monkeypatch.setattr(cli, "run_suite", run_nothing)
    assert cli.main(["verify", "all", "--max-n", "8", "--table-dir", str(tmp_path)]) == 0
    assert reached == list(SUITE_TOPS)


def test_verify_all_check_ids_are_pinned():
    listing = [(suite, suite_ids(suite)) for suite in SUITE_TOPS]
    assert hashlib.sha256(json.dumps(listing).encode()).hexdigest() == VERIFY_ALL_IDS


VERIFY_EDGES = "9551ce0a4004ca30c154db069d60c5e8459b2a274c7ddb41df39d5fede63d660"


def test_verify_edges_report_is_pinned(tmp_path, capsys, tables):
    # the edge equations are checked on persisted tables, not only in a build
    store = cli.TableStore(tmp_path)
    for n in range(2, 7):
        cli.write_table(tables(n), store.path(n))
    code, out = run(["verify", "edges", "--table-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "suite edges: 5/5 checks passed"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_EDGES


VERIFY_ALL = "b57f6446583374fb5fea427dc62ea7e84f4b212d839660ca9f0490aea52d9c9b"


def test_verify_all_report_is_pinned(verify_all):
    # every suite at its defaults, the table suites on tables reloaded from files
    assert verify_all.code == 0
    assert len(verify_all.out.splitlines()) == 194
    assert hashlib.sha256(verify_all.out.encode()).hexdigest() == VERIFY_ALL


def test_seed_derivation_is_stable():
    assert cli._int_seed(0, "x") == cli._int_seed(0, "x")
    assert cli._int_seed(0, "x") != cli._int_seed(1, "x")
    assert cli._int_seed(0, "x") != cli._int_seed(0, "y")
