"""tools/bench.py keeps every run, and the checked-in BENCH files are its output.

The script is loaded by path, as it is run, with one fast fake group in
place of the timed ones and its output in a temporary directory.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "tools" / "bench.py"
RUN_KEYS = {"label", "date", "machine", "source_sha256", "rows"}


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
    row = bench.timed(lambda: None, repeats=1)
    assert row["median"] == row["min"] == 4.988e-05


def test_checked_in_files_are_the_writers_format(bench):
    files = {path.stem.removeprefix("BENCH_"): path for path in ROOT.glob("BENCH_*.json")}
    assert sorted(files) == sorted(bench.GROUPS)
    for group, path in files.items():
        stored = json.loads(path.read_text())
        assert stored["command"] == command(group)
        assert stored["runs"] and all(set(run) == RUN_KEYS for run in stored["runs"])
        assert stored["after_over_before"] == bench.ratios(stored["runs"])
