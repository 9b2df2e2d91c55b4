"""tools/bench.py keeps every run, and the checked-in BENCH files are its output.

The script is loaded by path, as it is run, with one fast fake group in
place of the timed ones and its output in a temporary directory.  The
paired mode runs a fake script in child interpreters, each on the sources
of one of two fake trees.  The host yardstick is checked on a fake clock
that runs at two speeds, between children and within one row.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "tools" / "bench.py"
RUN_KEYS = {"label", "date", "machine", "source_sha256", "rows"}
PAIRED_KEYS = {"command", "date", "machine", "pairs", "before_sha256", "after_sha256", "rows"}
PAIRED_ROW_KEYS = {"field", "before", "after", "ratios", "median", "min", "max"}
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
    return {"row": {"unit": "s", "median": fakemod.VALUE},
            "bytes": {"unit": "bytes", "dict_and_keys": 1000},
            "count": {"unit": "terms", "g": 7}}

GROUPS = {"fake": fake}
"""


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def command(group: str) -> str:
    return f"PYTHONPATH=<checkout>/src python3 tools/bench.py {group} --label <before|after>"


def test_every_run_is_appended(bench, tmp_path, monkeypatch):
    medians = iter([2.0, 3.0, 6.0])

    def fake() -> dict:
        """row: the next of three medians."""
        return {"row": {"unit": "s", "median": next(medians)}}

    monkeypatch.setattr(bench, "GROUPS", {"fake": fake})
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    for label in ("before", "after", "after"):
        assert bench.main(["fake", "--label", label]) == 0
    stored = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert stored["command"] == command("fake")
    assert [set(run) for run in stored["runs"]] == [RUN_KEYS] * 3
    assert [(run["label"], run["rows"]["row"]["median"]) for run in stored["runs"]] == \
        [("before", 2.0), ("after", 3.0), ("after", 6.0)]
    assert stored["after_over_before"] == {"row": 3.0}


def test_ratios_pair_the_last_after_with_an_earlier_before(bench):
    def run(label: str, median: float) -> dict:
        return {"label": label, "rows": {"row": {"median": median}}}

    assert bench.ratios([run("before", 2.0), run("after", 1.0), run("before", 8.0)]) == \
        {"row": 0.5}
    assert bench.ratios([run("after", 1.0), run("before", 2.0)]) == {}
    assert bench.ratios([run("before", 2.0)]) == {}


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


def fake_tree(root, name, value):
    """A tree whose src holds fakemod, and a brauerloop module that names it."""
    src = root / name / "src"
    (src / "brauerloop").mkdir(parents=True)
    (src / "fakemod.py").write_text(f"NAME = {name!r}\nVALUE = {value!r}\n")
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
    assert log.read_text().split() == ["a", "b"] * 3  # alternating, before first
    assert set(record) == PAIRED_KEYS and record["pairs"] == 3
    assert sorted(record["rows"]) == ["bytes", "row"]  # a count has no ratio
    for row in record["rows"].values():
        assert set(row) == PAIRED_ROW_KEYS
        assert row["ratios"] == [1.0] * 3
        assert row["min"] <= 1 <= row["max"]
    assert record["rows"]["row"]["before"] == record["rows"]["row"]["after"] == [2.5] * 3
    assert record["before_sha256"] != record["after_sha256"]  # the trees' own sources


def test_paired_rows_read_each_tree(bench, tmp_path, fake_script, monkeypatch):
    script, log = fake_script
    before, after = fake_tree(tmp_path, "a", 4.0), fake_tree(tmp_path, "b", 3.0)
    monkeypatch.setattr(bench, "SCRIPT", script)
    monkeypatch.setattr(bench, "ROOT", after)
    monkeypatch.setattr(bench, "GROUPS", {"fake": None})
    for _ in range(2):
        assert bench.main(["fake", "--before", str(before)]) == 0
    stored = json.loads((after / "BENCH_fake.json").read_text())
    assert stored["runs"] == [] and stored["after_over_before"] == {}
    assert len(stored["paired"]) == 2
    for record in stored["paired"]:
        assert record["command"] == "PYTHONPATH=src python3 tools/bench.py fake --before <checkout>"
        row = record["rows"]["row"]
        assert row["ratios"] == [0.75] * bench.PAIRS
        assert row["median"] == row["min"] == row["max"] == 0.75
    with pytest.raises(SystemExit):  # one side at a time
        bench.main(["fake", "--before", str(before), "--label", "after"])


def test_checked_in_files_are_the_writers_format(bench):
    files = {path.stem.removeprefix("BENCH_"): path for path in ROOT.glob("BENCH_*.json")}
    assert sorted(files) == sorted(bench.GROUPS)
    for group, path in files.items():
        stored = json.loads(path.read_text())
        assert stored["command"] == command(group)
        assert stored["runs"] and all(set(run) == RUN_KEYS for run in stored["runs"])
        assert stored["after_over_before"] == bench.ratios(stored["runs"])
        for record in stored.get("paired", []):
            assert set(record) == PAIRED_KEYS
            assert record["command"] == \
                f"PYTHONPATH=src python3 tools/bench.py {group} --before <checkout>"
            for row in record["rows"].values():
                assert set(row) in (PAIRED_ROW_KEYS, PAIRED_ROW_KEYS | SCALED_KEYS)
                assert len(row["ratios"]) == record["pairs"] >= 3
                assert row["min"] <= row["median"] <= row["max"]
                if "scaled_ratios" in row:
                    assert len(row["scaled_ratios"]) == record["pairs"]
                    assert row["scaled_min"] <= row["scaled_median"] <= row["scaled_max"]
