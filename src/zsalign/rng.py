"""Seeded, splittable random source (PCG64 behind numpy's Generator).

Every stochastic component (init, shuffling, reparameterization noise,
projection directions, evaluation sampling) draws from its own child
stream spawned off one master seed, so runs are reproducible end to end.
"""

import numpy as np

# the most doubles `uniform` holds at once before rounding them to `dtype`
_BLOCK = 1 << 16


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
        draw = self._gen.standard_normal((rows, cols))
        return draw.astype(dtype, copy=False)

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
        return (v / norms).astype(dtype, copy=False)

    def uniform(self, low, high, shape, dtype=np.float32):
        """A `shape` array of `dtype` drawn uniformly from [low, high).

        The doubles are drawn in C order in blocks of at most `_BLOCK`
        and each is rounded once into the result, so a draw never holds
        a full-size float64 array. The values, and the stream position
        after them, are bitwise those of one whole-array draw cast to
        `dtype`."""
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            stop = min(start + _BLOCK, flat.size)
            flat[start:stop] = self._gen.uniform(low, high, stop - start)
        return out

    def permutation(self, n):
        return self._gen.permutation(n)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)
