"""Repeat benchmark runs over ten seeds and summarise them.

    python3 perfbench/record.py [--out perfbench/baseline.json]

Makes ten untraced runs of run.py per workload of BENCHMARK.json, seeds 1
to 10, each as its own process with BENCHMARK.json's run_seconds.  The
workloads are interleaved (seed 1 of every workload, then seed 2, ...), so
that a slow stretch of the host spreads over all workloads instead of
shifting one workload's figures.  Then one traced run per workload (seed 1)
records the per-layer metrics.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, flagging any spread above a third of the metric's
bound.  The summary, with the environment stamp and the unscaled times of
every run, is written to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    info = next((ln for ln in lines if " passes; " in ln), None)
    result = json.loads(lines[-1]) if lines else {}
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": time.monotonic() - start,
            "env": env, "info": info, "result": result}


def spread_row(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            runs[workload].append(one_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[workload][-1]['elapsed_s']:.0f} s", flush=True)
    traced = {w: one_run(w, FIRST_SEED, seconds, 1) for w in names}
    everything = [r for w in names for r in runs[w] + [traced[w]]]
    ok = all(r["exit"] == 0 and r["result"].get("correct") for r in everything)
    summary: dict = {"run_seconds": seconds, "workloads": {}}
    for workload in names:
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]
                      if name in r["result"].get("metrics", {})]
            if len(values) < 2:  # failed runs; ok is already False
                continue
            row = spread_row(values)
            row["steady"] = row["spread"] < bound / 3
            end_to_end[name] = row
            print(f"{workload:7s} {name:13s} median {row['median']:.4f}  "
                  f"spread {row['spread']:.2%}  bound {bound:.0%}"
                  f"{'' if row['steady'] or name == 'setup_s' else '  NOT STEADY'}  "
                  f"[{' '.join(f'{v:.4g}' for v in row['values'])}]")
        t = traced[workload]
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "traced": [{"seed": t["seed"], "metrics": {k: v["value"] for k, v in
                                                      t["result"].get("metrics", {}).items()}}],
            "runs": [{k: r[k] for k in ("seed", "exit", "elapsed_s", "info", "env")}
                     for r in runs[workload] + [t]],
        }
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
