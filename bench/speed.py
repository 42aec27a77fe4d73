"""Machine speed, measured with a fixed reference work, and times in
reference seconds.

The 2-vCPU virtual machine the benchmark was written on lends a process a
CPU whose speed swings by up to 2x, in spells lasting from seconds to
minutes, in wall time and CPU time alike. A spell can cover a whole run,
which no statistic over one run's passes removes. So the worker times a
fixed piece of work that does not touch ``splitmev`` (a JSON round trip of
a fixed document) before the first request of a pass, after every
``EVERY`` requests and after the last, and each request's wall time is
scaled by how much slower or faster than usual that work ran around it.
"""

from __future__ import annotations

import json
from time import perf_counter

# the reference work's time on the machine of trajectory/BENCH_seed.json at
# its usual speed; a time of t wall seconds while the reference work took
# r seconds is t * REF_S / r reference seconds
REF_S = 0.013
# requests between two timings of the reference work (about half a second
# of optimize requests)
EVERY = 100

_DOC = json.dumps([
    {"from": f"0x{i:040x}", "to": f"0x{7 * i:040x}", "value": 1.5 * i, "children": [{"k": j} for j in range(3)]}
    for i in range(300)
])


def reference_s() -> float:
    """Least of three timings of the reference work, in wall seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(6):
            json.dumps(json.loads(_DOC))
        best = min(best, perf_counter() - t0)
    return best


def scaled(wall: list[float], ref: list[float]) -> list[float]:
    """Request ``j``'s wall time ``wall[j]`` in reference seconds, from the
    reference timings ``ref`` taken before request 0, after every ``EVERY``
    requests and after the last: the mean of the two timings around its
    group of requests stands for the machine's speed while it ran."""
    return [t * REF_S / ((ref[j // EVERY] + ref[j // EVERY + 1]) / 2) for j, t in enumerate(wall)]
