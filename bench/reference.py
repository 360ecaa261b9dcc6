"""Frozen reference kernels that measure the host's current speed.

Neither kernel imports thermalqfi, so a change to the package cannot move
them. Every timed unit of the benchmark is bracketed by one kernel call on
each side, and its wall time is divided by the mean of the two; the ratio
(in "ref" units) cancels the run-to-run drift of the host's speed, which on
a shared 2-vCPU VM swings raw seconds by 1.2-1.7x between processes.

- ``SmallKernel`` mirrors the figure sweeps and the verify battery: an
  11x11 complex ``eigh``, basis-change products, ``abs()**2`` reductions
  through ``math.fsum`` and a plain Python float loop, i.e. mostly
  per-call overhead with a little LAPACK.
- ``DenseKernel`` mirrors the large-spin points: a 201x201 complex
  ``eigh`` plus dense products, i.e. mostly LAPACK and BLAS.

The inputs are fixed (seed 0), independent of the workload seed.
``NOMINAL_S`` is each kernel's approximate duration on the machine the
benchmark was defined on (2-vCPU Xeon, OpenBLAS Haswell kernels); it
converts ref units back to seconds at that machine's speed.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.linalg import eigh as _eigh  # bound now, so tracing numpy.linalg later never sees the kernels


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (x + x.conj().T)


class SmallKernel:
    """About 1 ms of small-matrix numpy calls and Python float arithmetic."""

    name = "small"
    ROUNDS = 12
    NOMINAL_S = 1e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = _hermitian(rng, 11)
        self.b = _hermitian(rng, 11)
        self.floats = rng.uniform(0.1, 1.0, size=64).tolist()

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(self.ROUNDS):
            w, v = _eigh(self.a)
            bt = v.conj().T @ self.b @ v
            acc += math.fsum((np.abs(bt) ** 2).ravel().tolist())
            acc += math.fsum((w * np.real(np.diag(bt))).tolist())
            p = self.floats
            for x in p:
                acc += 2.0 * x * x / (x + 0.5)
        return acc


class DenseKernel:
    """About 20 ms of one 201x201 complex eigensolve plus dense products."""

    name = "dense"
    NOMINAL_S = 20e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = _hermitian(rng, 201)
        self.b = _hermitian(rng, 201)

    def __call__(self) -> float:
        w, v = _eigh(self.a)
        bt = v.conj().T @ self.b @ v
        c = 1j * (self.a @ self.b - self.b @ self.a)
        return float(np.sum(np.abs(bt) ** 2)) + float(np.real(np.trace(c))) + float(w[-1])


def timed(kernel) -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
