"""Fixed host-speed reference kernel.

The benchmark runs this kernel next to every step and divides each timing
by the kernel's time, so that drift in the host's own speed (neighbours on
a shared machine) cancels out of the reported figures. The kernel mixes the
kinds of work the workloads do: a pure-Python loop that parses text and
builds small objects (about 60% of its time), NumPy element-wise, reduction
and scatter operations on cell-sized arrays, and BLAS products.

Do not change this file. Every host-normalised figure is expressed in
milliseconds on a host where this kernel takes NOMINAL_MS, so changing the
kernel silently rescales every figure measured before the change.
"""
from __future__ import annotations

import time

import numpy as np

# Host-normalised timings are reported as raw * NOMINAL_MS / median kernel
# time: milliseconds on a host where one kernel call takes 5 ms.
NOMINAL_MS = 5.0


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


class ReferenceKernel:
    """Fixed work on fixed data; `run()` returns its wall time in ms."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(20241003))
        self.lines = [f"{t},{t % 32},{(7 * t) % 32},{1 if t % 3 else -1}"
                      for t in range(0, 2_400_000, 1000)]
        self.grid = rng.standard_normal((16, 32, 32))
        self.cols = rng.standard_normal((18, 1024))
        self.filters = rng.standard_normal((16, 18))
        self.weight = rng.standard_normal((512, 1024))
        self.vector = rng.standard_normal(1024)
        self.flat_index = rng.integers(0, 2 * 32 * 32, size=20000)
        self.sorted_t = np.sort(rng.integers(0, 900_000, size=30000))
        self.checksum = 0.0

    def _python_part(self):
        total = 0
        for line in self.lines:
            t, x, y, p = line.split(",")
            total += int(t) + int(x) + int(y) + int(p)
        chain = None
        for i in range(1200):
            chain = _Node(float(i), (chain,))
        return total + chain.value

    def _numpy_part(self):
        g = self.grid
        acc = 0.0
        for _ in range(12):
            mean = g.mean(axis=(1, 2), keepdims=True)
            var = g.var(axis=(1, 2), keepdims=True)
            z = (g - mean) / np.sqrt(var + 1e-5)
            s = (z >= 0.5).astype(np.float64)
            acc += float((z * s).sum())
        counts = np.bincount(self.flat_index, minlength=2 * 32 * 32)
        grid = np.zeros(2 * 32 * 32)
        np.add.at(grid, self.flat_index[:4000], 1.0)
        hits = np.searchsorted(self.sorted_t, np.arange(0, 900_000, 10_000))
        return acc + float(counts[7]) + float(grid.sum()) + float(hits[-1])

    def _blas_part(self):
        acc = 0.0
        for _ in range(16):
            acc += float((self.filters @ self.cols).sum())
        for _ in range(2):
            acc += float((self.weight @ self.vector).sum())
            acc += float((self.vector @ self.weight.T).sum())
        return acc

    def run(self):
        t0 = time.perf_counter()
        value = self._python_part() + self._numpy_part() + self._blas_part()
        elapsed = time.perf_counter() - t0
        self.checksum += value
        return elapsed * 1e3
