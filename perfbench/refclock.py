"""Operation times in reference loops, which follow the machine's speed.

On a shared machine other tenants cut this process's speed by up to half
for minutes at a time, CPU time as much as wall time, so one run's
seconds differ from the next run's far more than any change worth
measuring. The reference loop is fixed pure-Python work of the kind
graphkt does. Timed between operations, it slows with them, and an
operation's seconds over the loop's seconds hold steady. The loop never
calls graphkt, so a change to graphkt moves the ratio as it moves the time.
"""

from __future__ import annotations

import time

# Small and big integer arithmetic with list and dict access, all in a
# core's own cache: 2-4 ms on the reference machine.
REF_ITERS = 10_000
REF_MODULUS = (1 << 255) - 19
# The optional second part scans every SCAN_STEP-th column of a fixed
# SCAN_SIZE x SCAN_SIZE list-of-lists matrix, as elimination scans its
# matrix: 3.3 MB of row pointers, more than a core's own cache holds, so
# the scan slows, as large matrices do, when other tenants crowd the
# cache the machine shares. It adds 1-4 ms.
SCAN_SIZE = 640
SCAN_STEP = 7
# The loop is timed again once the operations since its last timing have
# taken this long, so each operation is compared with the loop's time at
# most this far from it.
REF_EVERY_S = 0.1


def scan_matrix() -> list:
    return [
        [1 if (i * 7919 + j * 104729) % 97 == 0 else 0 for j in range(SCAN_SIZE)]
        for i in range(SCAN_SIZE)
    ]


def reference_loop(matrix=None) -> int:
    acc, row, seen = 1, list(range(64)), {}
    for i in range(REF_ITERS):
        j = i & 63
        acc = acc * 3 + row[j]
        if acc.bit_length() > 256:
            acc %= REF_MODULUS
        row[j] = acc & 0xFFFF
        seen[j] = i
    if matrix is not None:
        for j in range(0, SCAN_SIZE, SCAN_STEP):
            for row in matrix:
                e = row[j]
                if e:
                    acc += e
    return acc


class RefClock:
    """Times the reference loop between operations and turns the seconds
    of the operations between two timings into reference loops, using the
    mean of the two. With ``scan`` the loop includes the matrix scan."""

    def __init__(self, scan: bool):
        self.matrix = scan_matrix() if scan else None
        self.last = 0.0  # seconds of the latest reference loop
        self.pending = []  # (case index, seconds) since that loop
        self.since = 0.0
        self.loops = []  # seconds of every reference loop timed
        self.total = 0.0  # reference loops charged to operations so far

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_loop(self.matrix)
        dt = time.perf_counter() - t0
        self.loops.append(dt)
        return dt

    def start(self) -> None:
        self.last, self.pending, self.since = self.sample(), [], 0.0

    def add(self, i: int, seconds: float, costs: list) -> None:
        self.pending.append((i, seconds))
        self.since += seconds
        if self.since >= REF_EVERY_S:
            self.flush(costs)

    def flush(self, costs: list) -> None:
        if not self.pending:
            return
        now = self.sample()
        ref = (self.last + now) / 2
        for i, seconds in self.pending:
            costs[i].append(seconds / ref)
            self.total += seconds / ref
        self.last, self.pending, self.since = now, [], 0.0
