"""bernalg benchmark: one run of one workload.

    python3 bench/run.py --workload sparse_report --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding `src/`).  The
run writes its inputs, worker results and span traces under `.bench_out/`,
measures in a fresh single-threaded interpreter, and prints one JSON object
as its last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See bench/README.md for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 11
RUN_LIMIT = 170.0   # seconds; the whole run must end well within 180

sys.path.insert(0, ROOT)
from bench import calibrate, gen, trace, workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "total_s": "s", "cpu_s": "s", "item_s.p50": "s",
              "item_s.p90": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, ROOT, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args, deadline):
    """Run python3 with args; stops it at the run's deadline."""
    try:
        proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{' '.join(args[:3])} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} failed:\n{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(files, deadline) -> tuple:
    """Median set-up time over SETUP_RUNS fresh interpreters: (scaled, raw)."""
    probe = os.path.join("bench", "setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        setup, kernel = map(float, _python([probe] + files, deadline).split())
        scaled.append(setup * calibrate.REFERENCE_S / kernel)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def _scales(p) -> tuple:
    """(wall, cpu) factors that bring a pass to the reference machine speed."""
    ref = calibrate.REFERENCE_S
    return ref / statistics.median(p["cal_wall"]), ref / statistics.median(p["cal_cpu"])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def end_to_end(result: dict, setup: float, scaled: bool = True) -> dict:
    """The end-to-end metrics; times at the reference speed unless not scaled."""
    passes = [p for p in result["passes"] if "fraction_counts" not in p]
    scales = [_scales(p) if scaled else (1.0, 1.0) for p in passes]
    per_item = [statistics.median(p["item_wall"][k] * w for p, (w, _) in zip(passes, scales))
                for k in range(len(result["items"]))]
    values = {
        "setup_s": setup,
        "total_s": statistics.median(sum(p["item_wall"]) * w for p, (w, _) in zip(passes, scales)),
        "cpu_s": statistics.median(sum(p["item_cpu"]) * c for p, (_, c) in zip(passes, scales)),
        "item_s.p50": statistics.median(per_item),
        "item_s.p90": percentile(per_item, 90),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(result: dict) -> dict:
    passes = [p for p in result["passes"] if "layers" in p]
    out = {}
    for name in passes[0]["layers"]:
        values = [p["layers"][name] for p in passes]
        if name.endswith("_s"):
            values = [v * _scales(p)[0] for v, p in zip(values, passes)]
            out[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            if len(set(values)) != 1:
                print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
            unit = "ratio" if name.endswith("_share") else "count"
            out[name] = {"value": values[0], "unit": unit}
    for name, n in result["fraction_counts"].items():
        out[name] = {"value": n, "unit": "count"}
    return {name: out[name] for name in trace.per_layer_names()}


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT
    if not os.path.isfile(os.path.join(SRC, "bernalg", "__init__.py")):
        raise BenchError(f"no bernalg sources under {SRC}; run from a source checkout")
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = os.path.join(run_dir, "inputs")
    manifest = gen.write_inputs(args.workload, args.seed, inputs)
    # warm the bytecode caches, so set-up time does not include compiling
    _python(["-c", "import bernalg, bernalg.cli"], deadline)
    setup = raw_setup = None
    if not args.trace:
        files = [os.path.join(inputs, m["file"]) for m in manifest
                 if m.get("role") != "malformed"]
        setup, raw_setup = setup_seconds(files, deadline)
    out = os.path.join(run_dir, "worker.json")
    _python(["-m", "bench.worker", "--workload", args.workload, "--inputs", inputs,
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
            deadline)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    passes = result["passes"]
    timed = [sum(p["item_wall"]) for p in passes if "fraction_counts" not in p]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(result['items'])} "
          f"items, {len(timed)} timed passes, pass wall s {[round(t, 3) for t in timed]}",
          file=sys.stderr)
    for line in result["unexpected"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not args.trace:
        raw = end_to_end(result, raw_setup, scaled=False)
        print("unscaled: " + json.dumps({k: v["value"] for k, v in raw.items()}),
              file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    return {"correct": not result["unexpected"],
            "attempted": len(result["items"]) * len(passes),
            "failed": sum(p["failed"] for p in passes),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bernalg benchmark, one run of one workload")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
