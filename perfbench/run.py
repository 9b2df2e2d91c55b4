"""Benchmark entry point for brauerloop.

    python3 perfbench/run.py --workload {build,verify,chain} --seed N \
        --seconds T --trace {0,1}

Run from the repository root (any directory works; paths are resolved from
this file).  One run, single-threaded, one workload:

1. set-up, five times, each in a fresh interpreter and its own directory:
   importing the package, and for verify computing and persisting the
   tables N=2..5; reported as the median ``setup_s``.  Set-up runs in child
   interpreters because for build and chain it is only the package import,
   which one interpreter can time only once;
2. passes in this interpreter for at least ``--seconds``.  Each pass is a
   few named steps.  From the second pass on, a HostClock reads the host's
   speed twice a second with a fixed reference_work(): the shared host
   runs the same code up to twice as slow for stretches longer than a run,
   which no statistic within one run can remove.  ``wall_s`` and ``cpu_s``
   are the sum over steps of each step's median time in the run (without
   the clock's readings; wall time also without the hypervisor's steal,
   see stolen_s), each step's time first multiplied by the host
   scale read during it (see HostClock).  The unscaled figures are
   printed too.  ``setup_s`` is not scaled: the set-ups run before the
   passes, in other interpreters, and the passes' scale made it noisier.  ``peak_rss_mib`` is the growth of this interpreter's peak
   RSS over its value after the imports, read after the first pass, i.e.
   one pass's working set;
3. with ``--trace 1``, the untraced passes get half of ``--seconds``; then
   the tracer is installed and the same passes run for the other half.
   Its per-layer metrics are reported, together with the tracing overhead
   (traced minus untraced ``wall_s``) and a check that both produced
   identical output digests.

Every output is checked against values pinned at the seed commit (see
workloads.py).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment stamp and every metric by name and unit.  The exit
status is 0 only when every check passed.  Scratch files go to
``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

WORKLOADS = ("build", "verify", "chain")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# A child interpreter that times the import of the package and the
# workload's set-up; argv: the two sys.path entries, workload, directory.
SETUP_PROGRAM = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.setup(sys.argv[3], sys.argv[4])
print(time.perf_counter() - start)
"""


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "brauerloop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def env_stamp() -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }


# The fixed integer matrix that reference_work() eliminates.
_REFERENCE_RNG = random.Random(7)
REFERENCE_MATRIX = [[_REFERENCE_RNG.randint(-9, 9) for _ in range(12)] for _ in range(11)]


def reference_work() -> tuple:
    """Fixed pure-Python work that never calls brauerloop, of the kinds the
    workloads do: dict updates with tuple keys and big-integer values (the
    polynomial arithmetic of build and verify), and Gauss-Jordan elimination
    over Fractions whose entries grow large (chain's stationary solve)."""
    terms: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        terms[key] = terms.get(key, 0) + i * 12345678901234567
    m = [[Fraction(x) for x in row] for row in REFERENCE_MATRIX]
    for r, row in enumerate(m):
        lead = row[r]
        m[r] = row = [x / lead for x in row]
        for i in range(len(m)):
            if i != r:
                f = m[i][r]
                m[i] = [a - f * b for a, b in zip(m[i], row)]
    return len(terms), m[-1][-1]


# Median warm reading of reference_work() taken by HostClock during the
# workloads' passes on the reference host (2-vCPU Xeon VM, Python 3.11.7).
REFERENCE_S = 0.0095
SAMPLE_INTERVAL_S = 0.5
# A step is scaled by the readings taken during it, or by this many
# readings nearest to its middle if it holds fewer.
NEAREST_READINGS = 5


class HostClock:
    """Reads the host's speed every SAMPLE_INTERVAL_S of wall time.

    The shared host runs the same code up to twice as slow for stretches of
    seconds to tens of minutes: longer than a run, and longer than a step
    (chain's stationary(8) is one 7-10 s call).  While the clock is active, a
    SIGALRM handler interrupts the pass, runs reference_work() once to bring
    its data back into the caches the pass took over, and takes the CPU
    time of a second run (so that time stolen by the hypervisor or another
    process does not count), with the garbage collector off (a collection
    would traverse the pass's objects).  A time multiplied by REFERENCE_S over a reading is in
    seconds of a host that runs reference_work() in REFERENCE_S.  The
    handler's own time is summed in ``wall`` and ``cpu`` so that steps can
    leave it out.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self.wall = self.cpu = 0.0

    def _tick(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            start, cpu_start = time.perf_counter(), time.process_time()
            reference_work()
            self.readings.append((start, time.process_time() - cpu_start))
        finally:
            if collecting:
                gc.enable()
        self.wall += time.perf_counter() - wall0
        self.cpu += time.process_time() - cpu0

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.readings:  # passes shorter than one interval
            self._tick(signal.SIGALRM, None)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reading between ``start`` and ``end``
        (perf_counter values), or over the NEAREST_READINGS readings nearest
        to their middle if fewer fall between them."""
        inside = [r for t, r in self.readings if start <= t <= end]
        if len(inside) < NEAREST_READINGS:
            middle = (start + end) / 2
            nearest = sorted(self.readings, key=lambda reading: abs(reading[0] - middle))
            inside = [r for _, r in nearest[:NEAREST_READINGS]]
        return REFERENCE_S / statistics.median(inside)


CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _steal_ticks() -> dict[str, int]:
    """Steal time of each CPU from /proc/stat, in clock ticks: time in which
    the hypervisor ran another guest while that CPU had work ({} where
    /proc/stat cannot be read)."""
    try:
        rows = [line.split() for line in Path("/proc/stat").read_text().splitlines()]
    except OSError:
        return {}
    return {row[0][3:]: int(row[8]) for row in rows
            if row[0].startswith("cpu") and row[0][3:].isdigit() and len(row) > 8}


def _current_cpu() -> str | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        return Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36]
    except (OSError, IndexError):
        return None


def stolen_s(before: dict[str, int], after: dict[str, int], cpus: set) -> float:
    """Seconds of steal on ``cpus`` between two _steal_ticks() readings."""
    return sum(after.get(c, 0) - before.get(c, 0) for c in cpus) / CLOCK_TICKS


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_once(workload: str, workdir: Path, gate) -> float | None:
    """One set-up in a fresh interpreter; its time, or None (a failed check)."""
    cmd = [sys.executable, "-c", SETUP_PROGRAM, str(SRC), str(HERE), workload, str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        gate.expect(f"setup/{workload} finished within {SETUP_TIMEOUT_S} s", False, True)
        return None
    sys.stderr.write(proc.stderr)
    gate.expect(f"setup/{workload} exit status", proc.returncode, 0)
    return float(proc.stdout) if proc.returncode == 0 else None


def timed_passes(workload: str, gate, seed: int, workdir: Path,
                 seconds: float) -> tuple[list[dict], float]:
    """Repeat whole passes until ``seconds`` have elapsed (at least one pass).

    Each pass records the digest of its outputs and, for each named step,
    its wall time less steal (see stolen_s) and its CPU time, both without
    the time spent in the HostClock's readings, and the host scale read
    during it.  The clock starts after
    the first pass, so that the peak RSS read then (returned with the
    passes) is the package's and one pass's, without the readings'.
    """
    import workloads

    passes: list[dict] = []
    spans: list[tuple[dict, str, float, float, float, float]] = []
    clock = HostClock()

    @contextlib.contextmanager
    def step(name: str):
        steal0, cpus = _steal_ticks(), {_current_cpu()}
        start, cpu0 = time.perf_counter(), time.process_time()
        paused, paused_cpu = clock.wall, clock.cpu
        yield
        wall = time.perf_counter() - start - (clock.wall - paused)
        cpu = time.process_time() - cpu0 - (clock.cpu - paused_cpu)
        cpus.add(_current_cpu())
        # Time the hypervisor gave our CPU to another guest is no work of
        # the step; it is not in the CPU time either, which bounds it.
        wall = max(cpu, wall - stolen_s(steal0, _steal_ticks(), cpus))
        spans.append((passes[-1]["steps"], name, wall, cpu, start, time.perf_counter()))

    def one_pass() -> None:
        passes.append({"steps": {}})
        passes[-1]["digest"] = workloads.run_pass(workload, gate, seed, workdir, step)

    begin = time.perf_counter()
    one_pass()
    peak_rss = _peak_rss_mib()
    with clock:
        while time.perf_counter() - begin < seconds:
            one_pass()
    for steps, name, wall, cpu, start, end in spans:
        steps[name] = (wall, cpu, clock.scale(start, end))
    digests = {p["digest"] for p in passes}
    gate.expect("distinct output digests over the passes", len(digests), 1)
    return passes, peak_rss


def median_steps(passes: list[dict], column: int, scaled: bool = True) -> float:
    """Sum over the named steps of each step's median time (0 wall, 1 CPU).

    With ``scaled``, each time is first multiplied by its host scale.
    """
    return sum(statistics.median(p["steps"][name][column] * (p["steps"][name][2] if scaled else 1)
                                 for p in passes)
               for name in passes[0]["steps"])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Execute one run and return everything it measured (see module docstring)."""
    import workloads
    from tracer import Tracer, per_layer_metrics

    rss_after_imports = _peak_rss_mib()
    stamp = env_stamp()
    gate = workloads.Gate()
    metrics: dict[str, tuple[float, str]] = {}
    info = "no passes"
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        setups = []  # seconds of each set-up, None if it failed
        for k in range(1 if trace else SETUP_REPEATS):
            setup_dir = Path(tmp) / f"setup{k}"
            setup_dir.mkdir()
            setups.append(setup_once(workload, setup_dir, gate))
        if None not in setups:
            # a traced run splits its time between untraced and traced passes
            seconds = seconds / 2 if trace else seconds
            plain, peak_rss = timed_passes(workload, gate, seed, setup_dir, seconds)
            wall = median_steps(plain, 0)
            if trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced, _ = timed_passes(workload, gate, seed, setup_dir, seconds)
                finally:
                    tracer.uninstall()
                gate.expect("traced and untraced output digests",
                            {p["digest"] for p in traced}, {p["digest"] for p in plain})
                layers = tracer.layer_metrics(len(traced))
                for name, unit in per_layer_metrics():
                    metrics[name] = (layers[name], unit)
                metrics["trace.overhead_s"] = (median_steps(traced, 0) - wall, "s")
                tracer.write_spans(scratch / "spans" / f"{workload}-seed{seed}.jsonl")
            else:
                metrics["wall_s"] = (wall, "s")
                metrics["cpu_s"] = (median_steps(plain, 1), "s")
                metrics["setup_s"] = (statistics.median(setups), "s")
                metrics["peak_rss_mib"] = (peak_rss - rss_after_imports, "MiB")
            info = (f"{len(plain)} passes; unscaled wall {median_steps(plain, 0, False):.4f} s, "
                    f"cpu {median_steps(plain, 1, False):.4f} s; median host scale "
                    f"{statistics.median(s for p in plain for *_, s in p['steps'].values()):.3f}")
    stamp["loadavg_end"] = _loadavg()
    if not trace:
        passed = gate.attempted - len(gate.failures)
        metrics["pass_ratio"] = (passed / gate.attempted if gate.attempted else 0.0, "ratio")
    return {"workload": workload, "seed": seed, "trace": trace, "env": stamp, "info": info,
            "attempted": gate.attempted, "failures": gate.failures, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="brauerloop benchmark: one run of one workload")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "brauerloop" / "__init__.py").is_file():
        print(f"error: no brauerloop sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = len(result["failures"])
    for message in result["failures"]:
        print(f"FAIL {message}", file=sys.stderr)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"{args.workload} {result['info']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio {failed}/{result['attempted']}")
    print(json.dumps({
        "correct": failed == 0 and result["attempted"] > 0,
        "attempted": max(result["attempted"], 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if failed == 0 and result["attempted"] > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
