"""Self-tests of the benchmark: tracer coverage, output equality, seed handling.

    python3 -m pytest perfbench -q        # about a minute on 2 cores

The traced runs are the real workloads, so a wrapper that the library
bypasses (a function looked up under a name the tracer did not patch) shows
up as a per-layer metric that stays zero where it must not.
"""

from __future__ import annotations

import gc
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

NONZERO = {
    "build": [
        "exactpoly.mul.calls", "exactpoly.mul.self_s", "exactpoly.mul.term_pairs",
        "exactpoly.exact_divide.calls", "exactpoly.exact_divide.self_s",
        "exactpoly.exact_divide.quotient_terms", "exactpoly.ddiff.calls",
        "exactpoly.ddiff.self_s", "psitable.recursion_step.calls",
        "psitable.recursion_step.self_s", "psitable.recursion_step.total_s",
        "psitable.patterns_filled", "psitable.step_useful_ratio", "psitable.stored_terms",
        "psitable.validate.total_s", "psitable.content_hash.total_s",
        "cli.write_table.total_s", "cli.table_bytes",
    ],
    "verify": [
        "exactpoly.mul.calls", "exactpoly.mul.self_s", "exactpoly.mul.term_pairs",
        "exactpoly.exact_divide.calls", "exactpoly.exact_divide.self_s",
        "exactpoly.exact_divide.quotient_terms", "exactpoly.ddiff.calls",
        "exactpoly.ddiff.self_s", "exactpoly.tau.self_s", "exactpoly.add.self_s",
        "exactpoly.specialize_a.self_s", "exactpoly.subs_z.self_s",
        "exactpoly.evaluate.calls", "exactpoly.evaluate.self_s", "exactpoly.evaluate.terms",
        "exactpoly.theta.calls", "psitable.stored_terms",
        "psitable.verify_exchange.total_s", "psitable.positivity.total_s",
        "psitable.sum_rule_total.total_s", "psitable.smallarch.total_s",
        "psitable.specialize.total_s", "psitable.rotation.total_s",
        "psitable.validate.total_s", "psitable.content_hash.total_s",
        "linkpat.apply_e.calls", "linkpat.apply_e.self_s", "linkpat.apply_f.calls",
        "linkpat.apply_f.self_s", "linkpat.enumerate_patterns.self_s",
        "pfdet.skew_sum.calls", "pfdet.skew_sum.self_s",
        "pfdet.d1_mdeg_localization.self_s", "pfdet.total_mdeg_pfaffian_value.total_s",
        "commvar.delta.calls", "commvar.delta.total_s", "commvar.crosscheck.total_s",
        "cli.store_load.total_s", "cli.store_hit_ratio",
    ],
    "chain": [
        "linkpat.apply_e.calls", "linkpat.apply_e.self_s", "linkpat.apply_f.calls",
        "linkpat.apply_f.self_s", "linkpat.enumerate_patterns.self_s",
        "loopchain.transition_matrix.total_s", "loopchain.stationary.total_s",
        "loopchain.states", "linalg.rank.calls", "linalg.rank.self_s", "linalg.rank.cells",
        "linalg.solve.self_s", "linalg.det.self_s",
        "circlealg.cp_mul.calls", "circlealg.cp_mul.self_s", "circlealg.cp_inv.self_s",
        "circlealg.s_mul.self_s", "escheme.random_sample.total_s",
        "escheme.check_rank_bounds.total_s", "escheme.tangent_dimension.total_s",
        "escheme.stabilizer_codim.total_s", "escheme.sample_useful_ratio",
    ],
}

# Layers a workload must not touch at all: the "no change" side of each prediction.
UNTOUCHED = {
    "build": ("loopchain.", "linalg.", "circlealg.", "escheme.", "commvar.", "pfdet."),
    "chain": ("exactpoly.", "psitable.", "commvar.", "pfdet.", "cli."),
}


@pytest.fixture(scope="module")
def traced():
    results = {}

    def get(workload: str, seed: int = 1) -> dict:
        if (workload, seed) not in results:
            results[workload, seed] = run.run(workload, seed, 0, trace=True)
        return results[workload, seed]

    return get


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_passes_and_matches_untraced(traced, workload):
    result = traced(workload)
    # the failures include the digest comparison between traced and untraced passes
    assert result["failures"] == []
    assert set(result["metrics"]) == {m for m, _ in per_layer_metrics()} | {"trace.overhead_s"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_expected_layers_are_nonzero(traced, workload):
    metrics = traced(workload)["metrics"]
    assert [m for m in NONZERO[workload] if not metrics[m][0] > 0] == []


@pytest.mark.parametrize("workload", sorted(UNTOUCHED))
def test_bypassed_layers_stay_zero(traced, workload):
    metrics = traced(workload)["metrics"]
    touched = [m for m, (v, _) in metrics.items() if m.startswith(UNTOUCHED[workload]) and v]
    assert touched == []


def test_build_counts_repeat_across_seeds(traced):
    first, second = traced("build", 1)["metrics"], traced("build", 2)["metrics"]
    counts = [m for m, unit in per_layer_metrics() if unit in ("count", "bytes", "ratio")]
    assert {m: first[m][0] for m in counts} == {m: second[m][0] for m in counts}
    assert first["psitable.patterns_filled"][0] == 14  # 15 patterns at N=5, one is the base


def test_tracer_patches_every_binding():
    from brauerloop import escheme, linalg, loopchain, pfdet
    from brauerloop.exactpoly import MultiPoly

    original_rank = linalg.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert loopchain.rank is escheme.rank is linalg.rank is not original_rank
        assert MultiPoly.__rmul__ is MultiPoly.__mul__
        p = MultiPoly.gen_a(2)
        _ = 2 * p, p * p, 1 + p
        loopchain.rank([[1, 2], [2, 4]])
        pfdet.det([[1, 2], [3, 4]])
    finally:
        tracer.uninstall()
    assert linalg.rank is original_rank and loopchain.rank is original_rank
    summary = tracer.summary()
    assert summary["exactpoly.mul"]["calls"] == 2
    assert summary["exactpoly.add"]["calls"] == 1
    assert summary["linalg.rank"]["calls"] == 1 and summary["linalg.det"]["calls"] == 1
    assert tracer.counters["linalg.rank.cells"] == 4


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [("a", 0.0, 10.0, -1, True), ("b", 1.0, 4.0, 0, True),
                       ("c", 2.0, 3.0, 1, True), ("b", 5.0, 6.0, 0, True)]
    s = tracer.summary()
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert s["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert s["c"]["self_s"] == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_step_times_are_scaled_by_host_speed():
    # (wall, cpu, host scale) of steps a and b in three passes
    passes = [{"steps": {"a": (2.0, 1.0, 0.5), "b": (1.0, 1.0, 1.0)}},
              {"steps": {"a": (4.0, 2.0, 0.5), "b": (3.0, 3.0, 1.0)}},
              {"steps": {"a": (6.0, 3.0, 0.5), "b": (2.0, 2.0, 1.0)}}]
    assert run.median_steps(passes, 0) == 4.0
    assert run.median_steps(passes, 1) == 3.0
    assert run.median_steps(passes, 0, scaled=False) == 6.0


def test_host_scale_uses_the_readings_of_the_step():
    clock = run.HostClock()
    clock.readings = [(float(t), run.REFERENCE_S * (1 if t < 10 else 2)) for t in range(20)]
    assert clock.scale(2, 8) == 1.0
    assert clock.scale(12, 18) == 0.5
    assert clock.scale(9.4, 9.6) == 1.0  # the 5 readings nearest to 9.5: 7..11
    assert clock.scale(0, 19) == pytest.approx(2 / 3)  # median of all 20: 1.5 * REFERENCE_S


def test_host_clock_reads_during_work_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with run.HostClock() as clock:
        end = time.perf_counter() + 3 * run.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(clock.readings) >= 2
    assert clock.wall > sum(r for _, r in clock.readings) and clock.cpu > 0
    assert gc.isenabled()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_steal_counts_only_the_cpus_the_step_ran_on():
    before, after = {"0": 5, "1": 7}, {"0": 5 + run.CLOCK_TICKS, "1": 9}
    assert run.stolen_s(before, after, {"0"}) == 1.0
    assert run.stolen_s(before, after, {"0", "1"}) == 1.0 + 2 / run.CLOCK_TICKS
    assert run.stolen_s(before, after, {None}) == 0.0
    assert set(run._steal_ticks()) >= {run._current_cpu()}
