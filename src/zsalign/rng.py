"""Seeded, splittable random source (PCG64 behind numpy's Generator).

Every stochastic component (init, shuffling, reparameterization noise,
projection directions, evaluation sampling) draws from its own child
stream spawned off one master seed, so runs are reproducible end to end.
"""

import numpy as np


class Rng:
    def __init__(self, seed=None, _seq=None):
        if _seq is None:
            _seq = np.random.SeedSequence(seed)
        self._seq = _seq
        self._gen = np.random.Generator(np.random.PCG64(_seq))

    def spawn(self, n):
        """Derive `n` independent child streams."""
        return [Rng(_seq=s) for s in self._seq.spawn(n)]

    def standard_normal(self, rows, cols, dtype=np.float32):
        return self._gen.standard_normal((rows, cols)).astype(dtype)

    def unit_directions(self, count, dim, dtype=np.float32):
        """`count` directions uniform on the unit sphere in R^dim."""
        if dim < 1:
            raise ValueError("direction dimension must be >= 1")
        v = self._gen.standard_normal((count, dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        # a numerically zero draw has probability ~0; redraw defensively
        while np.any(norms < 1e-12):
            bad = norms[:, 0] < 1e-12
            v[bad] = self._gen.standard_normal((int(bad.sum()), dim))
            norms = np.linalg.norm(v, axis=1, keepdims=True)
        return (v / norms).astype(dtype)

    def uniform(self, low, high, shape, dtype=np.float32):
        return self._gen.uniform(low, high, shape).astype(dtype)

    def permutation(self, n):
        return self._gen.permutation(n)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)
