"""One-off reference timings at the ROADMAP's sizes, too long for every run.

    python3 bench/reference.py

Times one `build_report` call on each of bdown(18) and bdown(28) (dims 20
and 30), on input written by the generator, and checks the report against
the closed forms, as the workloads do.
"""

import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import bernalg  # noqa: E402
from bench import gen, workloads  # noqa: E402


SIZES = (18, 28)


def main():
    print(f"Python {platform.python_version()} on {platform.machine()}")
    status = 0
    for n in SIZES:
        item = workloads.ReportItem(bernalg, gen.serialize(gen.family("bdown", n)),
                                    {"kind": "bdown", "n": n, "name": f"bdown{n}"})
        item.prepare()
        t0 = time.perf_counter()
        output = item.run()
        dt = time.perf_counter() - t0
        problems = item.check(output)
        status |= bool(problems)
        print(f"bdown({n}) dim {n + 2}: build_report {dt:.2f} s, "
              f"{'checks pass' if not problems else problems[0]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
