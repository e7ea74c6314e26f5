"""A fixed pure-Python kernel that measures how fast the machine runs now.

The host this benchmark was built on is shared: the same pass over the same
items takes 15 % more or less wall time from one minute to the next, and
process CPU time moves with it.  The worker runs this kernel between items;
the benchmark scales each pass's times by REFERENCE_S / (the pass's median
kernel time), which cancels the machine's speed of the moment and leaves the
program's own cost.  The kernel does exact Fraction elimination, as bernalg
does, and never calls bernalg, so no change to bernalg can move it.  It runs
with the cyclic garbage collector off, so the heap bernalg leaves behind does
not slow it.
"""

import gc
import time

from bench import gen

# The kernel's median time on the reference machine (2-core x86_64 VM,
# Python 3.11.7); scaled times are seconds at that machine's speed.  The
# kernel is the generator's exact inverse: a change to gen.inverse changes
# the kernel, and REFERENCE_S must then be measured again.
REFERENCE_S = 0.008

_MATRIX = [[(3 * i + 5 * j) % 7 - 3 + (i == j) * 4 for j in range(6)] for i in range(6)]


def kernel_seconds() -> tuple:
    """(wall, cpu) seconds of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(4):
            gen.inverse(_MATRIX)
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()
