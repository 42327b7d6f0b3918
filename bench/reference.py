"""How fast this machine runs Python right now, from a fixed reference kernel.

On a shared machine the speed of one CPU drifts by a third and more over
tens of seconds, as other tenants come and go. Identical ops then differ by
more than any change worth measuring. The benchmark times this kernel just
before and just after each op and scales the op's wall time to the speed at
which the kernel takes ``NOMINAL_S``, so a drift that slows both cancels out
and a change to the program, which cannot touch the kernel, does not.
"""

from __future__ import annotations

import gc
import random
import time

#: kernel time at the nominal speed that gated timings are scaled to
NOMINAL_S = 0.025

_rng = random.Random(0)
_TABLE = {(i, i % 7): _rng.random() * _rng.random() for i in range(300)}


def _kernel() -> float:
    # interpreter-bound like the program: tuple keys, dict and set traversal
    total = 0.0
    for _ in range(400):
        for (i, r), v in _TABLE.items():
            if (i + r) % 3:
                total += v
        total += len({k for k in _TABLE if k[1] < 4})
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run, with the cyclic GC off so the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
