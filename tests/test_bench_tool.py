"""tools/bench.py keeps every paired record, and the checked-in BENCH files are its output.

The script is loaded by path, as it is run, with one fast fake group in
place of the timed ones and its output in a temporary directory.  It runs
a fake script in child interpreters, each on the sources of one of two
fake trees.  The host yardstick is checked on a fake clock
that runs at two speeds, between children and within one row.
"""

import importlib.util
import itertools
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "tools" / "bench.py"
# a single-checkout run, kept as history from before paired records
RUN_KEYS = {"label", "date", "machine", "source_sha256", "rows"}
PAIRED_KEYS = {"command", "date", "machine", "pairs", "before_sha256", "after_sha256", "rows"}
PAIRED_ROW_KEYS = {"field", "before", "after", "ratios", "median", "min", "max"}
AFTER_ONLY_KEYS = {"field", "after"}
# a timed row's host-scaled values, in records taken since the yardstick
SCALED_KEYS = {f"scaled_{key}" for key in PAIRED_ROW_KEYS - {"field"}}

# a stand-in for tools/bench.py in a child: one group whose rows read the
# tree's own module, and a log of the order in which the trees ran
FAKE_SCRIPT = """
import os
import fakemod

def fake():
    with open(os.environ["FAKE_LOG"], "a") as fh:
        fh.write(fakemod.NAME + "\\n")
    rows = {"row": {"unit": "s", "median": fakemod.VALUE},
            "bytes": {"unit": "bytes", "dict_and_keys": 1000},
            "peak": {"unit": "bytes", "peak": 5000, "kept": 2000, "file": 400},
            "count": {"unit": "terms", "g": 7}}
    if hasattr(fakemod, "NEW"):  # a row of a function only one tree has
        rows["new"] = {"unit": "s", "median": fakemod.NEW}
    return rows

GROUPS = {"fake": fake}
"""


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timer_keeps_four_significant_figures(bench, monkeypatch):
    clock = iter([0.0, 0.000049876])
    monkeypatch.setattr(bench.time, "process_time", lambda: next(clock))
    monkeypatch.setattr(bench, "host_readings", lambda: [0.0030003])
    row = bench.timed(lambda: None, repeats=1)
    assert row["median"] == row["min"] == 4.988e-05
    assert row["yardstick_s"] == 0.003 and row["scaled_median"] == 0.01662


def test_yardstick_scales_out_two_host_speeds(bench, monkeypatch):
    # a fake clock on which the yardstick and the row both run 1.7 times
    # slower in a slow child, with the yardstick's readings jittering by 2 %
    clock, speed = [0.0], [1.0]
    jitter = itertools.cycle([1.0, 1.02, 0.98])

    def tick(seconds: float) -> None:
        clock[0] += seconds * speed[0]

    monkeypatch.setattr(bench.time, "process_time", lambda: clock[0])
    monkeypatch.setattr(bench, "yardstick", lambda: tick(0.004 * next(jitter)))
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for slow_before, slow_after in ((False, True), (True, False), (True, True)):
        for label, slow in (("before", slow_before), ("after", slow_after)):
            speed[0] = 1.7 if slow else 1.0
            runs[label].append({"row": bench.timed(lambda: tick(0.25), repeats=3)})
    row = bench.compare(runs["before"], runs["after"])["row"]
    assert set(row) == PAIRED_ROW_KEYS | SCALED_KEYS
    assert row["ratios"] == [1.7, 0.588, 1.0]
    assert row["scaled_ratios"] == pytest.approx([1.0] * 3, abs=0.03)
    assert runs["after"][0]["row"]["yardstick_s"] == pytest.approx(0.004 * 1.7 * 0.98)


def test_yardstick_scales_out_a_speed_change_inside_a_row(bench, monkeypatch):
    # the host slows to 1.7 times after the third of seven samples: each
    # sample is scaled by the reading taken right before it, so the row's
    # scaled median is the one it has at a steady speed
    clock, speed, done = [0.0], [1.0], [0]
    jitter = itertools.cycle([1.0, 1.02, 0.98])

    def tick(seconds: float) -> None:
        clock[0] += seconds * speed[0]

    def sample() -> None:
        tick(0.25)
        done[0] += 1
        if done[0] == 3:
            speed[0] = 1.7

    monkeypatch.setattr(bench.time, "process_time", lambda: clock[0])
    monkeypatch.setattr(bench, "yardstick", lambda: tick(0.004 * next(jitter)))
    changing = bench.timed(sample, repeats=7)
    speed[0] = 1.0
    steady = bench.timed(lambda: tick(0.25), repeats=7)
    assert changing["median"] == pytest.approx(1.7 * steady["median"])
    assert changing["scaled_median"] == steady["scaled_median"] == pytest.approx(0.25 / 0.00392, rel=1e-3)
    # one reading for the whole row would leave the row 1.7 times slow
    assert changing["median"] / changing["yardstick_s"] == \
        pytest.approx(1.7 * steady["scaled_median"], rel=1e-3)


def test_load_peak_row_is_compared_by_its_peak(bench, tmp_path):
    store = bench.cli.TableStore(tmp_path)
    bench.cli.write_table(bench.psitable.compute_table(3), store.path(3))
    row = bench.load_peak(store, 3)
    assert row["peak"] >= row["kept"] > 0
    assert row["file"] == store.path(3).stat().st_size
    assert bench.value_field(row) == "peak"


def fake_tree(root, name, value, extra=""):
    """A tree whose src holds fakemod, and a brauerloop module that names it."""
    src = root / name / "src"
    (src / "brauerloop").mkdir(parents=True)
    (src / "fakemod.py").write_text(f"NAME = {name!r}\nVALUE = {value!r}\n{extra}")
    (src / "brauerloop" / "__init__.py").write_text(f"# tree {name}\n")
    return root / name


@pytest.fixture
def fake_script(tmp_path, monkeypatch):
    script = tmp_path / "fake_bench.py"
    script.write_text(FAKE_SCRIPT)
    log = tmp_path / "order.log"
    monkeypatch.setenv("FAKE_LOG", str(log))
    return script, log


def test_identical_trees_give_a_spread_that_includes_one(bench, tmp_path, fake_script):
    script, log = fake_script
    before, after = fake_tree(tmp_path, "a", 2.5), fake_tree(tmp_path, "b", 2.5)
    record = bench.paired("fake", before, after, script, pairs=3)
    # alternating, and each tree first in every other pair
    assert log.read_text().split() == ["a", "b", "b", "a", "a", "b"]
    assert set(record) == PAIRED_KEYS and record["pairs"] == 3
    assert sorted(record["rows"]) == ["bytes", "peak", "row"]  # a count has no ratio
    assert {name: row["field"] for name, row in record["rows"].items()} == \
        {"bytes": "dict_and_keys", "peak": "peak", "row": "median"}
    assert record["rows"]["peak"]["before"] == [5000] * 3
    for row in record["rows"].values():
        assert set(row) == PAIRED_ROW_KEYS
        assert row["ratios"] == [1.0] * 3
        assert row["min"] <= 1 <= row["max"]
    assert record["rows"]["row"]["before"] == record["rows"]["row"]["after"] == [2.5] * 3
    assert record["before_sha256"] != record["after_sha256"]  # the trees' own sources


def test_a_row_only_the_after_tree_times_keeps_its_after_values(bench, tmp_path, fake_script):
    script, _ = fake_script
    before, after = fake_tree(tmp_path, "a", 2.5), fake_tree(tmp_path, "b", 2.5, "NEW = 0.5\n")
    rows = bench.paired("fake", before, after, script, pairs=3)["rows"]
    assert rows["new"] == {"field": "median", "after": [0.5] * 3}
    assert set(rows["row"]) == PAIRED_ROW_KEYS


def test_paired_rows_read_each_tree(bench, tmp_path, fake_script, monkeypatch):
    script, log = fake_script
    before, after = fake_tree(tmp_path, "a", 4.0), fake_tree(tmp_path, "b", 3.0)
    monkeypatch.setattr(bench, "SCRIPT", script)
    monkeypatch.setattr(bench, "ROOT", after)
    monkeypatch.setattr(bench, "GROUPS", {"fake": None})
    for _ in range(2):
        assert bench.main(["fake", "--before", str(before)]) == 0
    stored = json.loads((after / "BENCH_fake.json").read_text())
    assert list(stored) == ["paired"] and len(stored["paired"]) == 2
    for record in stored["paired"]:
        assert record["command"] == "PYTHONPATH=src python3 tools/bench.py fake --before <checkout>"
        row = record["rows"]["row"]
        assert row["ratios"] == [0.75] * bench.PAIRS
        assert row["median"] == row["min"] == row["max"] == 0.75
    with pytest.raises(SystemExit):  # paired records are the only kind
        bench.main(["fake", "--label", "after"])


def test_a_failed_write_keeps_the_file(bench, tmp_path, monkeypatch):
    out = tmp_path / "BENCH_fake.json"
    out.write_text('{\n  "runs": []\n}\n')
    held = out.read_bytes()
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "GROUPS", {"fake": None})
    monkeypatch.setattr(bench, "paired", lambda *args: {"rows": {}})

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(bench.os, "replace", fail)
    with pytest.raises(OSError):
        bench.main(["fake", "--before", str(tmp_path)])
    assert out.read_bytes() == held
    assert os.listdir(tmp_path) == [out.name]


def test_checked_in_files_are_the_writers_format(bench):
    files = {path.stem.removeprefix("BENCH_"): path for path in ROOT.glob("BENCH_*.json")}
    assert sorted(files) == sorted(bench.GROUPS)
    for group, path in files.items():
        stored = json.loads(path.read_text())
        assert stored and set(stored) <= {"runs", "paired"}
        assert all(set(run) == RUN_KEYS for run in stored.get("runs", []))
        for record in stored.get("paired", []):
            assert set(record) == PAIRED_KEYS
            assert record["command"] == \
                f"PYTHONPATH=src python3 tools/bench.py {group} --before <checkout>"
            for row in record["rows"].values():
                if set(row) == AFTER_ONLY_KEYS:
                    assert len(row["after"]) == record["pairs"]
                    continue
                assert set(row) in (PAIRED_ROW_KEYS, PAIRED_ROW_KEYS | SCALED_KEYS)
                assert len(row["ratios"]) == record["pairs"] >= 3
                assert row["min"] <= row["median"] <= row["max"]
                if "scaled_ratios" in row:
                    assert len(row["scaled_ratios"]) == record["pairs"]
                    assert row["scaled_min"] <= row["scaled_median"] <= row["scaled_max"]
        assert path.read_text() == json.dumps(stored, indent=2, sort_keys=True) + "\n"
