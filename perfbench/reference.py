"""Reference kernel: how fast this CPU runs right now, for normalising times.

On a shared VM the speed of a vCPU moves by a quarter within minutes, in CPU
time as much as in wall time, because other guests share its cores and
caches.  So the worker runs a fixed reference kernel between units of work
and scales each stretch of work by REF_S over the kernel's CPU time around
it.  The kernel mixes the three kinds of work cyclrc does: numpy table
look-ups on small arrays, batched elimination on larger ones, and
interpreter loops over ints and dicts.  It runs no cyclrc code, so no
change to cyclrc can move it.

The scaled figures are CPU seconds at the speed where one kernel run takes
REF_S seconds: the speed of an otherwise idle 2-vCPU Xeon VM.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.017  # CPU seconds of one kernel run on an idle 2-vCPU Xeon VM
CHUNK_S = 0.5  # run the kernel again once this much CPU time of work has passed


class Reference:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        q = self.q = 1024
        self.log = rng.permutation(q - 1).astype(np.int64)
        self.exp = np.concatenate([self.log, self.log])
        self.a, self.b = rng.integers(0, q - 1, (2, 2048))
        self.big_a, self.big_b = rng.integers(0, q - 1, (2, 60000))
        self.mats = rng.integers(0, 97, (400, 8, 8))
        self._kernel(1)  # first touch of every array and code path

    def _kernel(self, reps: int) -> None:
        q, log, exp = self.q - 1, self.log, self.exp
        for _ in range(60 * reps):
            exp[log[self.a % q] + log[self.b % q]]
        for _ in range(3 * reps):
            exp[log[self.big_a % q] + log[self.big_b % q]]
            m = self.mats.copy()
            for k in range(8):
                m = (m * m[:, k:k + 1, k:k + 1] - m[:, :, k:k + 1] * m[:, k:k + 1, :]) % 97
        s, d = 0, {}
        for j in range(20000 * reps):
            s += j * j % 7
            d[j & 255] = s

    def time(self) -> float:
        """CPU seconds of one kernel run, after an untimed run.

        The untimed run brings the kernel's data and code back into the
        caches, so that what the work left there does not change the time.
        """
        self._kernel(1)
        c0 = time.process_time()
        self._kernel(1)
        return time.process_time() - c0


_shared: list[Reference] = []


def reference() -> Reference:
    """The process's one Reference, built on first use."""
    if not _shared:
        _shared.append(Reference())
    return _shared[0]


def timed_units(units) -> dict:
    """Run the callables in `units` in order and time them.

    Returns the CPU time (user + system) and wall time of the units alone,
    the reference kernel's median time, and `work_s`: the CPU time scaled,
    stretch by stretch, by REF_S over the mean of the two kernel runs that
    bracket the stretch.  A stretch ends after the unit that brings its CPU
    time to CHUNK_S, and after the last unit.
    """
    ref = reference()
    refs = [ref.time()]
    cpu = wall = work = stretch = 0.0
    units = list(units)
    for i, fn in enumerate(units):
        c0, t0 = time.process_time(), time.perf_counter()
        fn()
        dt = time.process_time() - c0
        wall += time.perf_counter() - t0
        cpu += dt
        stretch += dt
        if stretch >= CHUNK_S or i == len(units) - 1:
            refs.append(ref.time())
            work += stretch * 2 * REF_S / (refs[-2] + refs[-1])
            stretch = 0.0
    return {"cpu_s": cpu, "wall_s": wall, "work_s": work, "ref_s": statistics.median(refs)}


def scaled(cpu_s: float) -> float:
    """cpu_s at reference speed, against one kernel run now (for set-up time)."""
    return cpu_s * REF_S / reference().time()
