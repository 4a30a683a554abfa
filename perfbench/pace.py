"""The host's pace, read from a fixed reference loop, and times scaled by it.

On a shared host the CPU's speed can alternate between levels (on the
2-vCPU host of the reference figures, about 1.7x apart, in phases of 0.5 s
to over a minute) while the program does the same work.  A wall time then
depends on the share of each level the run happened to get.  So each timed
operation is bracketed by two runs of a fixed loop, and its time is given
in *reference seconds*:

    wall seconds x LOOP_S / (mean wall time of the two loop runs)

that is, the seconds the operation would take on a host that runs the loop
in ``LOOP_S``.  A slower or faster phase stretches the operation and the
loop by similar factors, which mostly cancel (the README's "Reference
seconds" gives what is left).  The loop is pure Python and uses nothing
from phsid or numpy, so a change to the program cannot move it.

The loop formats 200 floats to text and parses them back: interpreter-bound
work like phsid's CSV I/O and Python-level integrator loops.
"""

import time

LOOP_S = 0.001         # nominal wall time of the loop; the reference host ran it in 0.9-1.8 ms
_VALUES = [i / 7 for i in range(1, 201)]
_PASSES = 6


def loop_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    for _ in range(_PASSES):
        text = ",".join(f"{v:.17g}" for v in _VALUES)
        sum(float(t) for t in text.split(","))
    return time.perf_counter() - start


def timed(fn, *args):
    """``fn(*args)`` and its time in reference seconds.  An exception from
    ``fn`` propagates."""
    before = loop_s()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall * 2 * LOOP_S / (before + loop_s())


loop_s()    # first run pays for the loop's own warm-up
