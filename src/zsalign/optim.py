"""Adam with bias correction, over parameters it stores itself.

An `Adam` copies its parameters, in order, into one flat `data` array
and rebinds each parameter's `data` and `grad` to views of `data` and of
a zeroed flat `grad` array, so the backward pass puts each leaf's
gradient straight into `grad`; a step leaves it zero, and nothing else
clears it. Gradients are written in place (`p.grad[...] = g`): a step
raises `ValueError`, before any state moves, if a parameter's `data` or
`grad` is no longer its view. The moments `m` and `v` are flat arrays of
the same layout and of the parameters' own dtype, so a float32 model
keeps float32 optimizer state. Each of the four flat arrays is its own
anonymous memory map (Unix), zeroed by the kernel, so malloc never
places one in a free chunk of its heap (README "Memory").

Known-zero slots. As the one owner that zeroes them, an `Adam` marks
each parameter's gradient slot known zero (`Tensor._zero_grad`) when it
is built and when a step has completed. The first product to reach a
marked slot in a backward pass (`Tensor.__matmul__`) writes itself into
it with `np.matmul(..., out=)`, so no weight-sized `x.T @ g` is formed
and added to zeros; that write and every later contribution clear the
mark, so later contributions are added (a product's in row blocks, see
`tensor.py`). A second backward without a step therefore adds, as does
the backward after a divergence, which leaves the gradients unstepped,
and a tensor no `Adam` owns always accumulates.
A gradient written by hand does not clear the mark, so code that writes
one steps before any backward reaches that slot (the latent classifier
runs no backward at all). The written gradient is bitwise the added one,
except that it may keep a -0.0 that `0 + g` makes +0.0 (no OpenBLAS
product tried formed one). A step does not pass the sign on to a
parameter: it squares g into `v`; it adds `g * (1 - b1)` to `b1 * m`,
which is -0.0 only where `m` decayed from a negative value to -0.0
(possible for b1 <= 1/2), so `m` may differ only in the sign of a zero;
and a signed-zero update changes no parameter but a -0.0 one, which no
step makes.

A step walks `data`, `grad` and the moments in `_CHUNK`-element slices;
its temporaries are the gradient slice itself, cleared when the slice is
done, and one scratch slice per half of a step, allocated once. Inside
`tensor._one_blas_thread` a step over at least `SPLIT_CHUNKS` slices
runs as two halves cut at the slice boundary nearest the middle, the
second on the helper thread (`tensor._in_halves`); no element's update
reads another's, so the halves give the serial loop's bytes. The slice
is sized for the L2 cache: the five float32 slices a step touches take
1.25 MB at 65,536 elements, inside a 2 MiB L2 per core. Steps over the
three paper-scale partitions took a median 64-74 ms at 16K elements,
55-62 ms at 64K and 62-67 ms at 128K, and over the bench_fit partitions
379-398 us at 16K and 291-311 us at 64K (2-vCPU Xeon VM), each serial.
The result is bitwise identical to the whole-array update in the
parameters' dtype

    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

because every element is computed on its own by the same IEEE-rounded
operations in the same order. The only rewrites are commutative
(`g * (1 - b1)` for `(1 - b1) * g`, `m_hat * lr` for `lr * m_hat`); the
bias corrections stay divisions and `eps` is added after the square root.

In float32 a finite gradient can overflow the second moment: with
b2 = 0.999, `(1 - b2) * g * g` is infinite for |g| above about 5.8e20,
and on the first step `v / (1 - b2)` already for |g| above 1.8e19. An
infinite `v` or denominator would silently freeze that element, so any
overflow in a step, in either half, raises `NonFiniteError` instead,
which ends training with the state partly updated. Tiny gradients have a
cost but no fault: for 1.2e-21 < |g| < 3.4e-18, `(1 - b2) * g * g` is
subnormal, and a 64x200 classifier step over such gradients took 582 us
against 67 us on a 2-vCPU VM.
No gradient fell in that window in the evaluations of the bench_fit and
paper_eval benchmarks or in a 100-epoch acceptance training, so nothing
guards it. (The first moment of an element whose gradient stays zero
decays through the subnormal range too: 0.03% of the element updates of
that training.)
"""

import mmap

import numpy as np

from .tensor import NonFiniteError, _in_halves, splitting

_CHUNK = 1 << 16
# chunks from which a step runs as two halves while `tensor.splitting()`
SPLIT_CHUNKS = 4


def _mapped_zeros(n, dtype):
    """`np.zeros(n, dtype)` in its own private anonymous mapping, with
    transparent huge pages asked for, as numpy asks for them on its own
    large arrays."""
    buf = mmap.mmap(-1, max(n * np.dtype(dtype).itemsize, 1),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=dtype, count=n)


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
        self.data, self.grad = _mapped_zeros(n, dtype), _mapped_zeros(n, dtype)
        start = 0
        for p in self.params:
            stop = start + p.data.size
            view = self.data[start:stop].reshape(p.shape)
            view[...] = p.data
            p.data, p.grad = view, self.grad[start:stop].reshape(p.shape)
            p._zero_grad = p.grad
            start = stop
        self._views = [(p.data, p.grad) for p in self.params]
        self.m, self.v = _mapped_zeros(n, dtype), _mapped_zeros(n, dtype)
        # one scratch slice per half of a step
        self._denom = np.empty((2, min(n, _CHUNK)), dtype=dtype)

    def step(self):
        for p, (data, grad) in zip(self.params, self._views):
            if p.data is not data or p.grad is not grad:
                raise ValueError(
                    "adam parameter no longer views the optimizer's storage; "
                    "write its data and gradient in place")
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1, 1 - b2
        bc1, bc2 = 1 - b1 ** self.t, 1 - b2 ** self.t

        def update(starts, denom):
            with np.errstate(over="raise"):
                for start in starts:
                    stop = min(start + _CHUNK, self.data.size)
                    g, d = self.grad[start:stop], denom[:stop - start]
                    m, v = self.m[start:stop], self.v[start:stop]
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
                    self.data[start:stop] -= g
                    g[...] = 0

        starts = range(0, self.data.size, _CHUNK)
        try:
            if len(starts) >= SPLIT_CHUNKS and splitting():
                half = len(starts) // 2
                _in_halves(lambda: update(starts[:half], self._denom[0]),
                           lambda: update(starts[half:], self._denom[1]))
            else:
                update(starts, self._denom[0])
        except FloatingPointError as e:
            raise NonFiniteError(f"adam step {self.t}: {e}") from None
        for p in self.params:
            p._zero_grad = p.grad
