"""A fixed reference kernel, timed next to every op, that tracks machine speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over minutes, which no run length or median removes.  So every
end-to-end time is reported scaled to a nominal machine on which one run of
this kernel takes ``NOMINAL_S``::

    reported = measured * NOMINAL_S / median(kernel times of the same run)

The kernel never calls gme_maps, so no change to the program can move it.
It mixes the kinds of work the ops do: interpreter loops, small LAPACK calls,
copies of strided mid-size arrays and JSON encoding.
"""

from __future__ import annotations

import json
from time import perf_counter

# About the kernel's median on a quiet 2-core x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31 on one thread).  It only sets the scale: changing it changes
# every reported time, so it is fixed with the benchmark.
NOMINAL_S = 0.0015
SAMPLES_PER_PROBE = 15


class ReferenceKernel:
    def __init__(self, np):
        rng = np.random.default_rng(20160926)
        self._eigh = np.linalg.eigh
        self._small = [a + a.T for a in rng.standard_normal((8, 16, 16))]
        self._mid = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._floats = [float(v) for v in rng.standard_normal(250)]

    def sample(self) -> float:
        """Seconds for one run of the kernel."""
        t0 = perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        for a in self._small:
            self._eigh(a)
        x = self._mid.reshape(8, 16, 8, 16).transpose(1, 0, 3, 2).reshape(128, 128)
        (x + 0.5 * self._mid.conj().T).sum()
        json.dumps([[v, -v] for v in self._floats])
        return perf_counter() - t0
