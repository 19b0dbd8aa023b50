"""The machine's speed, measured with a fixed reference workload.

The speed of a small shared machine moves by far more than a benchmark bound
allows: on the 2-core machine the benchmark was defined on, whole runs got
up to 35 % slower or faster within minutes, interpreter start-up too, while
the program's operation counts stayed identical.  So each untraced worker
times `reference()`, a fixed pure-Python workload shaped like the
program's hot loops (dict rows reduced mod a prime), right after its
command, and run.py scales the run's times by REFERENCE_S over the run's
mean reference time: they read as seconds on a machine that runs the
reference in REFERENCE_S.  The reference does not use the program, so a
change to the program moves the scaled times as much as the raw ones.
"""

import time

PRIME = 32003
REFERENCE_S = 0.2  # nominal time of reference(), about its median on that machine


def reference():
    """90 sparse rows of 40 entries, echelonized mod a prime, three times."""
    rank = 0
    for r in range(3):
        pivots = {}
        for i in range(90):
            row = {(i * 7 + j * 13 + r) % 151: (i * j + r + 1) % PRIME for j in range(40)}
            while row:
                col = min(row)
                piv = pivots.get(col)
                if piv is None:
                    inv = pow(row[col], PRIME - 2, PRIME)
                    pivots[col] = {k: v * inv % PRIME for k, v in row.items()}
                    break
                c = row[col]
                for k, v in piv.items():
                    nv = (row.get(k, 0) - c * v) % PRIME
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        rank += len(pivots)
    return rank


def reference_seconds():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
