"""One benchmark run of one workload, in a fresh interpreter.

    python3 -m bench.worker --workload W --inputs DIR --seconds S --trace 0|1 --out FILE

Runs whole passes over the workload's items until S seconds are used (at
least one pass).  Each pass first builds every item's input afresh, untimed,
so no pass reuses an object an earlier one has analysed.  Each item is timed
alone; the checks of the outputs run outside the timed calls.  The first
pass checks every output against the oracle; later passes must reproduce
the first pass's output exactly, and must not run much faster than it (a
sign that the program keeps results across calls on equal inputs, so that
later passes would time cache hits, not the work).

With --trace 1 the spans of each pass are kept in memory, reduced to
per-layer metrics at the end of the pass, and the first pass's spans are
written next to FILE.  One more pass then counts Fraction operations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from bench import calibrate, workloads
from bench.trace import FractionCounter, Tracer

# A run never starts an item after this many seconds; the remaining items of
# the pass are recorded as failed, so a run ends within 180 s.
RUN_DEADLINE = 140.0
# The calibration kernel runs before the first item of a pass, then before
# any item that starts this many seconds after the last kernel, and at the
# end of the pass.
CALIBRATE_EVERY = 0.1
# The run fails if the median later pass takes under CACHE_RATIO of the first,
# both measured at the calibration kernel's speed.
CACHE_RATIO = 0.5


class ItemTimeout(BaseException):
    """Raised by the alarm when an item exceeds its limit.  A BaseException,
    so that no handler in the program can swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout()


class Runner:
    def __init__(self, items, limit: float, started: float):
        self.items = items
        self.limit = limit
        self.started = started
        self.first = [None] * len(items)     # (output, problems) of pass 1
        self.unexpected = []                 # failures that are not a known fault
        signal.signal(signal.SIGALRM, _alarm)

    def run_pass(self, start=None, before=None, around=None):
        """One pass; returns its record: wall and cpu seconds per item, the
        failed count, and the calibration kernel's (wall, cpu) samples.
        `start` runs after the untimed preparation of the items, `before`
        before each item, and `around` is a context around each item call."""
        for item in self.items:
            item.prepare()
        if start is not None:
            start()
        walls, cpus, failed, cal = [], [], 0, [calibrate.kernel_seconds()]
        last_cal = time.perf_counter()
        for k, item in enumerate(self.items):
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY:
                cal.append(calibrate.kernel_seconds())
                last_cal = time.perf_counter()
            if before is not None:
                before()
            left = RUN_DEADLINE - (time.perf_counter() - self.started)
            output, problem = None, None
            w0 = w1 = c0 = c1 = 0.0
            if left <= 0:
                problem = "not started: the run deadline has passed"
            else:
                signal.setitimer(signal.ITIMER_REAL, min(self.limit, left))
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    with around or contextlib.nullcontext():
                        output = item.run()
                except ItemTimeout:
                    problem = f"exceeded the {self.limit:g} s item limit"
                except Exception as exc:  # the item fails; the run goes on
                    problem = f"raised {type(exc).__name__}: {exc}"
                finally:
                    w1, c1 = time.perf_counter(), time.process_time()
                    signal.setitimer(signal.ITIMER_REAL, 0)
            if problem is None:
                problem = self._verdict(k, item, output)
            if problem is not None:
                failed += 1
                if not (output is not None and item.is_known_fault(output)):
                    self.unexpected.append(f"{item.name}: {problem}")
            walls.append(w1 - w0)
            cpus.append(c1 - c0)
        cal.append(calibrate.kernel_seconds())
        return {"item_wall": walls, "item_cpu": cpus, "failed": failed,
                "cal_wall": [w for w, _ in cal], "cal_cpu": [c for _, c in cal]}

    def _verdict(self, k, item, output):
        if self.first[k] is None:
            problems = item.check(output)
            self.first[k] = (output, problems[0] if problems else None)
        first_output, first_problem = self.first[k]
        if output != first_output:
            return "output differs from the first pass"
        return first_problem

    def check_no_cache(self, passes):
        """Flag later passes that run much faster than the first.  Each pass
        is divided by its median kernel time, since the host's speed alone
        moved passes of this benchmark by up to 1.9x within one run."""
        if len(passes) < 2:
            return
        scaled = [sum(p["item_wall"]) / statistics.median(p["cal_wall"]) for p in passes]
        later = statistics.median(scaled[1:])
        if later < CACHE_RATIO * scaled[0]:
            self.unexpected.append(
                f"later passes take {later / scaled[0]:.3f} of the first pass's time: "
                "results persist across calls, so the passes after the first do not "
                "measure the work")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    with open(os.path.join(args.inputs, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    items = workloads.build_items(args.workload, args.inputs, manifest)
    runner = Runner(items, workloads.ITEM_LIMIT[args.workload], started)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    passes = []
    t0 = time.perf_counter()
    while True:
        if tracer is None:
            record = runner.run_pass()
        else:
            record = runner.run_pass(start=tracer.reset_pass, before=tracer.begin_item)
            record["layers"] = tracer.pass_metrics()
            if not passes:
                tracer.write_spans(os.path.splitext(args.out)[0] + ".spans.tsv.gz")
        passes.append(record)
        if time.perf_counter() - t0 >= args.seconds:
            break
    runner.check_no_cache(passes)

    result = {"items": [item.name for item in items], "passes": passes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        counter = FractionCounter()
        passes.append(dict(runner.run_pass(around=counter), fraction_counts=True))
        result["fraction_counts"] = counter.metrics()
    result["unexpected"] = runner.unexpected
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
