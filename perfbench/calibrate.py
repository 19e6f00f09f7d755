"""How fast the host runs Python right now, from a fixed reference routine.

The host's speed for interpreted code changes by up to 2x within seconds
(other tenants share the cores).  Timing the same fixed routine just
before and just after a job tells how fast the host was during it, and
scaling the job's time by REFERENCE_S / (that routine's time) gives the
job's time on a host where the routine takes REFERENCE_S.  The routine is
pure-Python work of the kind grpf does: Bott's algorithm on fixed weights
and Gaussian elimination mod p, from the benchmark's own oracles.
"""

import random
import time

import oracles

REFERENCE_S = 0.010

_rng = random.Random(0)
_MATRIX = [[_rng.randrange(10007) for _ in range(14)] for _ in range(14)]
_WEIGHTS = [[a, b] + [0] * 10 for a in range(-20, 20) for b in range(-20, a + 1, 3)]


def reference_seconds():
    """Wall time of one run of the reference routine."""
    start = time.perf_counter()
    for weight in _WEIGHTS:
        oracles.bott(weight)
    for _ in range(4):
        oracles.rank_mod(_MATRIX, 10007)
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """``seconds`` at reference speed, from the routine's times around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
