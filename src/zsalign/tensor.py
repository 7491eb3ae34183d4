"""Minimal reverse-mode autodiff over 2-D numpy arrays.

The op catalogue is fixed on purpose: affine (matmul/add), ReLU, softmax,
elementwise exp/sqrt/abs/square, full and axis reductions, and a
column-sort whose gradient is routed through the sorting permutation.
That is everything the losses in this package need, and nothing more.

Reductions accumulate in float64 regardless of storage dtype.
"""

import numbers

import numpy as np


# central-difference step of `finite_difference_check`
FD_STEP = 1e-5


class NonFiniteError(ValueError):
    """NaN or Inf where finite values are required."""


def check_finite(arr, name):
    """Raise if `arr` contains NaN/Inf. Used at API boundaries."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in '{name}'")


def check_type(name, value, kind):
    """Raise TypeError unless `value` is a `kind`, where a bool is no int
    and an int is a valid float. Used on config values."""
    if (not isinstance(value, numbers.Real if kind is float else kind)
            or (isinstance(value, bool) and kind is not bool)):
        raise TypeError(f"'{name}' must be {kind.__name__}, got {value!r}")


def check_fields(obj, zero_ok=()):
    """`check_type` on each field of the dataclass `obj`, by declared type,
    and every `int` field at least 1, or 0 if it is named in `zero_ok`."""
    for name, field in obj.__dataclass_fields__.items():
        value = getattr(obj, name)
        check_type(name, value, field.type)
        low = 0 if name in zero_ok else 1
        if field.type is int and value < low:
            raise ValueError(f"'{name}' must be >= {low}, got {value!r}")


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the computation tape wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self):
        return Tensor(self.data)

    def _accumulate(self, g):
        g = g.astype(self.dtype, copy=False)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Accumulate d(self)/d(param) into .grad of every reachable parameter."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None  # free intermediate buffers
        for node in topo:
            if node.requires_grad and node.grad is not None:
                check_finite(node.grad, "gradient")

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return node(self.data + other.data, (self, other), backward)

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)
        return node(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-as_tensor(other, self.dtype))

    def __mul__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return node(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def __matmul__(self, other):
        other = as_tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return node(self.data @ other.data, (self, other), backward)

    def t(self):
        def backward(g):
            self._accumulate(g.T)
        return node(self.data.T, (self,), backward)

    # ---- elementwise ----------------------------------------------------

    def relu(self):
        mask = self.data > 0
        def backward(g):
            self._accumulate(g * mask)
        return node(self.data * mask, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)
        def backward(g):
            self._accumulate(g * out_data)
        return node(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            # subgradient 0 at exactly zero
            safe = np.where(out_data > 0, out_data, 1.0)
            self._accumulate(np.where(out_data > 0, g / (2.0 * safe), 0.0))

        return node(out_data, (self,), backward)

    def abs(self):
        sign = np.sign(self.data)
        def backward(g):
            self._accumulate(g * sign)
        return node(np.abs(self.data), (self,), backward)

    def square(self):
        def backward(g):
            self._accumulate(g * (2.0 * self.data))
        return node(self.data * self.data, (self,), backward)

    # ---- reductions -----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = np.sum(self.data, axis=axis, keepdims=keepdims,
                          dtype=np.float64).astype(self.dtype)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return node(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n


def node(data, parents, backward):
    """The one way an op adds to the tape: the result needs a gradient iff
    one of its `parents` does, and only then is `backward` recorded."""
    req = any(p.requires_grad for p in parents)
    return Tensor(data, req, parents, backward if req else None)


def softmax(logits):
    """Row-wise softmax, max-shifted for stability."""
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = np.sum(g * probs, axis=1, keepdims=True, dtype=np.float64)
        logits._accumulate(probs * (g - dot.astype(probs.dtype)))

    return node(probs, (logits,), backward)


def sort_ascending_columns(x):
    """Sort each column ascending; gradient flows through the permutation.

    Ties are broken by the stable sort order.
    """
    order = np.argsort(x.data, axis=0, kind="stable")
    out_data = np.take_along_axis(x.data, order, axis=0)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, order, g, axis=0)
        x._accumulate(gx)

    return node(out_data, (x,), backward)


def as_tensor(x, dtype=None):
    """`x` if it is a Tensor, else a constant leaf (of `dtype`, if given)."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def finite_difference_check(loss_fn, params):
    """Compare analytic gradients of `loss_fn()` against central differences.

    `loss_fn` must rebuild the whole forward pass from `params` on every
    call. Parameters should be float64 for a meaningful comparison.
    Returns the normalized error over the concatenated gradient vector:
    ||g_analytic - g_numeric|| / max(||g_analytic|| + ||g_numeric||, 1e-12),
    so parameters with exactly-zero gradients do not dominate via FD noise.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    numeric = []
    for p in params:
        gn = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = gn.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = float(loss_fn().data)
            flat[i] = orig - FD_STEP
            down = float(loss_fn().data)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * FD_STEP)
        numeric.append(gn)
        p.grad = None
    ga = np.concatenate([g.ravel() for g in analytic])
    gn = np.concatenate([g.ravel() for g in numeric])
    num = np.linalg.norm(ga - gn)
    den = max(np.linalg.norm(ga) + np.linalg.norm(gn), 1e-12)
    return num / den
