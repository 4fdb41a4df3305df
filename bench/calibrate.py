"""A fixed calibration job, timed by run.py before every benchmark job.

    python3 bench/calibrate.py

Like a benchmark job it is a fresh interpreter that imports numpy and
runs pure-Python counting: a (height, area mod 101) DP shaped like the
program's kernels but none of its code, so no change to the program
moves it.  Its wall time tells how fast the host starts an interpreter,
loads numpy and runs Python just then.
"""

import gc

import numpy  # noqa: F401  (its load time is part of the calibration)

gc.disable()
states = {(0, 0): 1}
for _ in range(24):
    nxt: dict = {}
    for (height, area), ways in states.items():
        for step, weight in ((1, 1), (-1, 1), (0, 2)):
            key = (height + step, (area + height + step) % 101)
            nxt[key] = nxt.get(key, 0) + weight * ways
    states = nxt
