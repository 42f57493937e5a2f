"""The machine's speed at the moment, as the time of a fixed piece of work.

Other tenants of a shared machine slow it by up to 1.7x, in phases of
seconds and in drifts over minutes.  Timed just before each operation,
in the process that times the operations, this work slows with the
machine, so an operation's time divided by it moves with the program
and much less with the machine.  It calls nothing in pvgrid, so no
change to pvgrid changes it.  Allocation, hashing and dict lookups
tracked the slowdowns of ``cli_mix`` (interpreter start and imports)
better than a plain integer loop, and those of ``fleet_minutely`` as
well.
"""

from __future__ import annotations

import time

SIZE = 15_000  # about 10 ms on a 2-core Xeon VM


def loop_s() -> float:
    """Wall seconds to build a dict of ``SIZE`` string keys and read a third of it."""
    start = time.perf_counter()
    pairs = [(i * 0.5, str(i)) for i in range(SIZE)]
    table = {key: value for value, key in pairs}
    total = 0.0
    for i in range(0, SIZE, 3):
        total += table[str(i)]
    return time.perf_counter() - start
