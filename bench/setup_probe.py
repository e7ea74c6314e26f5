"""Set-up time of one fresh interpreter, as the benchmark's `setup_s`.

    PYTHONPATH=src:. python3 bench/setup_probe.py FILE.alg ...

Imports bernalg (its bytecode caches already warm), then parses and builds
every file given.  Prints the seconds this took, then the median of five
runs of the calibration kernel made right after.
"""

import sys
import time

t0 = time.perf_counter()
from bernalg import fileformat  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        fileformat.to_algebra(fileformat.parse(fh.read()))
setup = time.perf_counter() - t0

import statistics  # noqa: E402

from bench import calibrate  # noqa: E402

kernel = statistics.median(calibrate.kernel_seconds()[0] for _ in range(5))
print(repr(setup), repr(kernel))
