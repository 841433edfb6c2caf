"""carpetloop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-warm --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports carpetloop from
./src.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (see BENCHMARK.json), times in reference seconds
(see README.md); with --trace 1 they are the per-layer ones, measured by
wrapping the library's public functions.  The lines before it repeat
every figure by name with its unit, the times as measured, and the
per-command splits.  Failed requests are written, with their space and
loop JSON and any traceback, to .perfbench/failures-<workload>-<seed>.json,
also when the run crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("batch-warm", "cli-cold", "fill")
# pace()'s median time on the machine that recorded BASELINE.json.
PACE_REFERENCE_S = 0.02


def quantiles(xs: list[float]) -> dict:
    """The median and the tail: the highest order statistic with ten samples above it."""
    s = sorted(xs)
    k = max(0, len(s) - 11)
    return {
        "p50": statistics.median(s),
        "tail": s[k],
        "tail_pct": 100.0 * (k + 1) / len(s),
        "n": len(s),
    }


def end_to_end(run, rss_kb: int) -> tuple[dict, dict]:
    # One figure per distinct input: its median over the times it ran.
    by_input = {}
    for _, dt, key in run.requests:
        by_input.setdefault(key, []).append(dt)
    per_input = [statistics.median(ts) for ts in by_input.values()]
    q = quantiles(per_input)
    setup = statistics.median(run.setup)
    raw = {
        "setup_s": (setup, "s"),
        "request_s.p50": (q["p50"], "s"),
        "request_s.tail": (q["tail"], "s"),
        # Requests per busy second, counting each input once.
        "requests_per_s": (len(per_input) / sum(per_input), "1/s"),
    }
    # Times in reference seconds: as measured, scaled by how much slower
    # than PACE_REFERENCE_S the machine ran the fixed work of pace() during
    # this run.  See README.md, "Reference seconds".
    pace = statistics.median(run.pace)
    scale = PACE_REFERENCE_S / pace
    metrics = {
        name: (value / scale if unit == "1/s" else value * scale, unit)
        for name, (value, unit) in raw.items()
    }
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    detail = {f"{name} as measured": v for name, v in raw.items()}
    detail.update({
        "pace_s": (pace, "s"),
        "request_s tail percentile": (q["tail_pct"], "%"),
        "inputs": (q["n"], "count"),
        "requests": (len(run.requests), "count"),
    })
    for kind, xs in sorted(run.times.items()):
        qk = quantiles(xs)
        detail[f"{kind}.p50"] = (qk["p50"], "s")
        if len(xs) > 10:
            detail[f"{kind}.tail (p{qk['tail_pct']:.0f} of {qk['n']})"] = (qk["tail"], "s")
    return metrics, detail


def per_layer(extra: dict, tracer, requests: set) -> dict:
    from tracing import layer_metrics

    spans = [s for s in tracer.spans if s[5] in requests]
    counts = {r: c for r, c in tracer.counts.items() if r in requests}
    m = layer_metrics(spans, counts, len(requests))
    startup_ns = sum(c.get("cli.startup_ns", 0) for c in counts.values())
    m["cli.startup_s"] = startup_ns / 1e9 / max(len(requests), 1)
    m["trace.overhead"] = extra.get("overhead", 0.0)
    plus = tracer.counts.get("plus", {})
    plus_spans = [s for s in tracer.spans if s[5] == "plus"]
    base = extra.get("plus_base", 0)
    m["homotopy.plus.share"] = extra.get("plus_found", 0) / base if base else 0.0
    m["homotopy.plus.base"] = base
    m["homotopy.plus.loop_s"] = extra.get("plus_loop_s", 0.0)
    for key in ("clamped_faces", "sampled_faces", "samples", "inexact_gaps", "gap_samples"):
        m[f"homotopy.plus.{key}"] = plus.get(f"homotopy.{key}", 0)
    for name in ("verify_containment", "convergence_gap"):
        m[f"homotopy.plus.{name}_s"] = sum(
            s[3] - s[2] for s in plus_spans if s[1] == f"homotopy.{name}"
        ) / 1e9
    ratios = ("trace.overhead", "homotopy.plus.share")
    return {
        k: (v, "ratio" if k in ratios else "s" if k.endswith("_s") else "count")
        for k, v in m.items()
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "carpetloop", "__init__.py")):
        print(f"no carpetloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import carpetloop

    if os.path.dirname(os.path.dirname(os.path.abspath(carpetloop.__file__))) != SRC:
        print(f"carpetloop imported from {carpetloop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, merge

    # On SIGTERM, unwind: subprocess.run kills its child and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    run = workloads.Run()
    run_workload = {
        "batch-warm": workloads.batch_warm, "cli-cold": workloads.cli_cold, "fill": workloads.fill,
    }[args.workload]
    try:
        extra = run_workload(run, args.seed, args.seconds, work, tracer)
        if args.workload == "cli-cold":
            for rid, path in extra.get("dumps", ()):
                with open(path) as f:
                    merge(tracer.spans, tracer.counts, json.load(f), rid)
        if args.trace:
            metrics = per_layer(extra, tracer, set(extra["traced"]))
            detail = {}
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        else:
            rss = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
            ).ru_maxrss
            metrics, detail = end_to_end(run, rss)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Written even when the run crashes, so no failed input is lost.
        failed_ids = {f["request"] for f in run.failures}
        if run.failures:
            path = os.path.join(OUT, f"failures-{args.workload}-{args.seed}.json")
            with open(path, "w") as f:
                json.dump(run.failures, f, indent=1)
            print(f"{len(failed_ids)} failed requests; inputs in {path}", file=sys.stderr)
    detail["failed_ratio"] = (len(failed_ids) / run.attempted, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in list(metrics.items()) + list(detail.items()):
        print(f"  {name:44s} {value:14.6f} {unit}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(failed_ids),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if run.wrong_verdict else 0


if __name__ == "__main__":
    sys.exit(main())
