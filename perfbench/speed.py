"""A fixed reference workload that gauges how fast the machine runs right now.

On a shared host the speed of a core drifts: on the 2-vCPU reference machine
the same code ran up to twice as long from one second to the next, and slow
stretches lasted minutes, so commands timed minutes apart differed by more
than any bound a benchmark can usefully set.  ``probe`` times a small, fixed
mix of the work the pipeline does (interpreted Python, numpy passes over
128^2-sized arrays, a SuperLU factorization with triangular solves, and
a 16 MB array allocated and passed over, as large factorizations do).  The
child runs it just before and just after each timed step; the step's time
divided by the probe's time, times ``REFERENCE_S``, is the step's time at the
reference speed.  A command that runs slower only because the machine is
slower is then not reported as slower.
"""

from __future__ import annotations

import os
import statistics
import struct
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: probe time, in seconds, that defines the reference speed.  About the
#: probe's median on the reference machine, so that normalized times read
#: close to raw ones there.  Changing it rescales every normalized figure.
REFERENCE_S = 0.03
#: repetitions per probe; each part's median is taken over them
REPEATS = 7

_N = 32
_matrix = None


def _operator():
    """A 32^2 five-point Laplacian plus a small shift, in CSC form."""
    global _matrix
    if _matrix is None:
        ones = np.ones(_N)
        line = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
        eye = sp.identity(_N)
        _matrix = (sp.kron(line, eye) + sp.kron(eye, line)
                   + 0.1 * sp.identity(_N * _N)).tocsc()
    return _matrix


def _parts() -> tuple[float, float, float, float]:
    matrix = _operator()
    t0 = time.perf_counter()
    acc = 0
    for k in range(60000):
        acc += (k * k) % 7
    t1 = time.perf_counter()
    a = np.arange(16384, dtype=float)
    for _ in range(250):
        a = np.sqrt(a * 1.0001 + 1.0)
    t2 = time.perf_counter()
    lu = spla.splu(matrix)
    b = np.ones(_N * _N)
    for _ in range(40):
        b = lu.solve(b)
    t3 = time.perf_counter()
    big = np.ones(1 << 21)  # 16 MB of fresh pages, past the L2 cache
    for _ in range(6):
        np.multiply(big, 1.0000001, out=big)
    t4 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2, t4 - t3


def probe() -> float:
    """Seconds the reference mix takes now: the sum of each part's median."""
    samples = [_parts() for _ in range(REPEATS)]
    return float(sum(statistics.median(part) for part in zip(*samples)))


def probe_apart() -> float:
    """``probe`` run in a forked copy of this process, so that the memory and
    the library pages it touches do not count in this process's peak RSS."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            os.write(write_end, struct.pack("d", probe()))
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    if len(data) != 8:
        raise RuntimeError("speed probe process failed")
    return struct.unpack("d", data)[0]


def at_reference(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
