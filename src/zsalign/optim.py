"""Adam with bias correction, updated in place chunk by chunk.

The first and second moments are each one float64 vector over the
concatenated parameters (float64 so that g*g cannot overflow float32
storage). The parameters themselves stay where they are: a step walks the
moment vectors in chunks of `_CHUNK` elements, gathers the gradients of the
chunk into a float64 scratch buffer, updates the moments in place, and
subtracts the update from each parameter slice the chunk covers. A large
weight spans many chunks; many small tensors share one. Three scratch
buffers of at most `_CHUNK` elements are allocated once, at construction,
so a step allocates no whole-array temporaries.

The result is bitwise identical to the whole-array update

    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    p -= (lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)).astype(p.dtype)

because every element is computed on its own by the same IEEE-rounded
operations in the same order. The only rewrites are commutative
(`g * (1 - b1)` for `(1 - b1) * g`, `m_hat * lr` for `lr * m_hat`); the
bias corrections stay divisions, `eps` is added after the square root,
and the update is cast to the parameter dtype before it is subtracted.
"""

import itertools

import numpy as np

_CHUNK = 1 << 14


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        dtypes = {p.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError("adam parameters must share one dtype, got "
                             + ", ".join(sorted(str(d) for d in dtypes)))
        dtype = dtypes.pop() if dtypes else np.float64
        n = sum(p.data.size for p in self.params)
        self.m = np.zeros(n, dtype=np.float64)
        self.v = np.zeros(n, dtype=np.float64)
        k = min(n, _CHUNK)
        self._grad = np.empty(k, dtype=np.float64)
        self._denom = np.empty(k, dtype=np.float64)
        self._update = np.empty(k, dtype=dtype)
        # per chunk of the flat moments: (start, stop, segments), where a
        # segment is (param index, slice of the flat param, slice of chunk)
        ends = list(itertools.accumulate(p.data.size for p in self.params))
        spans = list(zip([0] + ends[:-1], ends))
        self._plan = []
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            segments = []
            for i, (lo, hi) in enumerate(spans):
                a, b = max(lo, start), min(hi, stop)
                if a < b:
                    segments.append((i, slice(a - lo, b - lo),
                                     slice(a - start, b - start)))
            self._plan.append((start, stop, segments))

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise ValueError("adam step on empty gradient slot")
            if not p.data.flags.c_contiguous:
                raise ValueError("adam parameter data must be C-contiguous, "
                                 "or its update would be written to a copy")
        data = [p.data.reshape(-1) for p in self.params]
        grads = [p.grad.reshape(-1) for p in self.params]
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1, 1 - b2
        bc1, bc2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for start, stop, segments in self._plan:
            k = stop - start
            g, d, u = self._grad[:k], self._denom[:k], self._update[:k]
            m, v = self.m[start:stop], self.v[start:stop]
            for i, ps, cs in segments:
                g[cs] = grads[i][ps]
            np.multiply(g, c2, out=d)
            d *= g
            v *= b2
            v += d
            g *= c1
            m *= b1
            m += g
            np.divide(m, bc1, out=g)
            g *= lr
            np.divide(v, bc2, out=d)
            np.sqrt(d, out=d)
            d += eps
            g /= d
            u[...] = g
            for i, ps, cs in segments:
                data[i][ps] -= u[cs]
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.grad = None
