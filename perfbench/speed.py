"""Machine-speed probes.

On a shared host the speed of a piece of work drifts by up to 1.7x over tens
of seconds. A fixed, smoe-independent probe of the same kind slows by about
the same factor, so each measured cycle is bracketed by one and the workload
reports its times at the probe's reference speed:

    t_reported = t_measured * probe.ref_s / t_probe

Interpreter-bound work (small numpy calls driven from Python) follows the
`interp` probe; BLAS- and memory-bound work follows the `blas` probe.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_A = np.arange(1024, dtype=np.float64).reshape(32, 32) / 1024.0
_X = np.linspace(-1.0, 1.0, 128 * 512).reshape(128, 512)
_Y = np.linspace(-1.0, 1.0, 512 * 1024).reshape(512, 1024)


def _interp_once() -> float:
    """Small-array numpy calls (allocation, concatenation, matmul, copies,
    reductions, FFT) and dict work, like the program's own inner loops."""
    t0 = time.perf_counter()
    for i in range(30):
        x = np.zeros((40, 32)) + float(i)
        y = np.concatenate([x, x])
        z = (y @ _A).T.copy()
        np.exp(-z * z).mean(axis=0)
        d = {j: j * i for j in range(20)}
        sum(d.values())
        f = np.fft.rfft(y[:, :16], axis=1)
        np.log(np.maximum(np.abs(f), 1e-10)).sum()
    return time.perf_counter() - t0


def _blas_once() -> float:
    """One mid-sized float64 matrix product."""
    t0 = time.perf_counter()
    _X @ _Y
    return time.perf_counter() - t0


class Probe:
    """A fixed piece of work and its time at the reference speed: about its
    median on the 2-core x86-64 host (OpenBLAS 0.3.31, Python 3.11) the
    benchmark was tuned on, so scaled times there read close to raw ones."""

    def __init__(self, name: str, ref_s: float, once):
        self.name = name
        self.ref_s = ref_s
        self._once = once

    def factor(self) -> float:
        """Reference time over the probe's time now (median of three):
        above 1 when the machine runs slower than the reference."""
        return self.ref_s / statistics.median(self._once() for _ in range(3))


INTERP = Probe("interp", 2.0e-3, _interp_once)
BLAS = Probe("blas", 3.0e-3, _blas_once)
