"""A gauge of the machine's current speed.

The benchmark is meant to run on shared machines whose speed swings by up
to 1.5x for tens of seconds at a time, driven by other tenants.  The
workload process times probe() every quarter second from a timer; the
benchmark scales each measured time by REFERENCE_S over the probe times
around it, which reports times at the speed at which the probe takes
REFERENCE_S.  The probe is fixed pure-Python code, written here so that no
change to the package moves it.
"""

import gc
import time

# Probe time on the machine the benchmark was written on (a 2-vCPU Xeon VM
# at 2.1 GHz running CPython 3.11) when no other tenant slowed it down.
REFERENCE_S = 0.004


def probe() -> int:
    # Integer arithmetic, then a dict of tuple keys as large as an L2 cache:
    # the package's work is both interpreter-bound and memory-bound.  The
    # garbage collector stays off so the probe's cost does not depend on
    # the size of the workload's heap.
    gc.disable()
    try:
        acc = 0
        for i in range(30000):
            acc += i * i % 7
        table = {(i, i * 7919 % 4099): i for i in range(8000)}
        for i in range(8000):
            acc += table[(i, i * 7919 % 4099)]
        return acc
    finally:
        gc.enable()


def timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start
