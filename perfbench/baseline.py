"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads fill,cli-cold] [--trace 1] [--out FILE]

For every workload and end-to-end metric it prints the median over the
runs, the quartiles (statistics.quantiles, n=4), the quartile distance as
a share of the median, and the metric's bound from BENCHMARK.json.  A
spread below a third of the bound is marked ok.  With --out, the runs,
the summary and the environment (Python version, usable cores, CPU
model, git commit when there is one) are written as JSON, timed runs
under "timed" and traced ones under "traced" of the same file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    report.update(environment=environment(), run_seconds=bench["run_seconds"])
    section = report.setdefault("traced" if args.trace else "timed", {})
    for name in names:
        runs = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["wall_s"] = wall
            result["printed"] = {
                label.strip(): float(value)
                for label, value, _ in (l.rsplit(None, 2) for l in lines[1:-1])
            }
            runs.append(result)
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(name, seed, f"{wall:.0f}s", result["attempted"], result["failed"],
                  vals if not args.trace else "", flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            summary[metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "unit": runs[0]["metrics"][metric]["unit"],
            }
            if metric in bounds:
                s = summary[metric]
                ok = "ok" if s["spread"] < bounds[metric] / 3 else "WIDE"
                print(f"  {metric:20s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                      f"  spread {s['spread']:.3f}  bound {bounds[metric]}  {ok}")
        section[name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
