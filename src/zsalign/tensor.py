"""Minimal reverse-mode autodiff over 2-D numpy arrays.

The op catalogue is what the networks use: `@`, `+`, `*`, unary `-` and
softmax. A layer's bias and ReLU are one node (`nn.Linear`), so is a draw
(`model.Model.reparameterize`), and so is each loss, with its closed-form
gradient (`losses.py`); each adds its node through `node`. A broadcast
operand's gradient is not summed down: `_accumulate` raises.

Contributions to a gradient are added by `_accumulate`, except a
product's to its right operand (a layer's weight), which forms no array
of the weight's size. A node's first gradient (`grad` is None) is stored
as `g + 0`: a fresh array, since `+` hands one array to both operands,
and bitwise `zeros + g`, so a -0.0 is stored as +0.0.

A weight's first product contribution is written straight into a slot
whose owner has marked it known zero (`_zero_grad`; `optim.Adam` marks
its parameters' slots, see there). Any other is added in row blocks of about
`BLOCK` elements, `grad[r:r + rows] += x.T[r:r + rows] @ g`, so a
weight used on several inputs (the common trunk on three, a decoder on
two) takes one block-sized temporary at a time. A block splits only the
product's output rows, never its reduction over the batch, and every
OpenBLAS 0.3.31 product tried (paper and bench shapes, at 1 and 2
threads) gave the whole product's bits. The write, a blocked add and every
`_accumulate` clear the mark.
"""

import numbers

import numpy as np


# central-difference step of `finite_difference_check`
FD_STEP = 1e-5

# elements of a product added to a gradient at a time (1 MB in float32)
BLOCK = 1 << 18


class NonFiniteError(ValueError):
    """NaN or Inf where finite values are required."""


def all_finite(arr):
    """`np.isfinite(arr).all()` without an array-sized temporary: a NaN is
    its array's max and min, and an infinity its max or min."""
    return arr.size == 0 or (np.isfinite(arr.max()) and np.isfinite(arr.min()))


def check_finite(arr, name):
    """Raise if `arr` contains NaN/Inf. Used at API boundaries."""
    if not all_finite(arr):
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


class Tensor:
    """A node in the computation tape wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_zero_grad")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self._zero_grad = None  # `grad`, while its owner knows it is all zero

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _accumulate(self, g):
        g = g.astype(self.dtype, copy=False)
        if g.shape != self.data.shape:
            raise ValueError(f"gradient of shape {g.shape} does not match "
                             f"its operand's {self.data.shape}: a "
                             f"broadcast operand's gradient is not summed")
        if self.grad is None:
            self.grad = g + 0  # a fresh array, bitwise `zeros + g`
        else:
            self.grad += g
        self._zero_grad = None

    def _accumulate_product(self, a, b):
        """`_accumulate(a @ b)` without a temporary of the gradient's size:
        a slot known to be all zero takes the product itself, written in
        place, and any other slot adds it in blocks of `BLOCK` elements,
        whole rows of the product at a time."""
        if self.grad is not None and self._zero_grad is self.grad:
            np.matmul(a, b, out=self.grad)
            self._zero_grad = None
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        rows = max(1, BLOCK // b.shape[1])
        for r in range(0, a.shape[0], rows):
            block = self.grad[r:r + rows]
            block += (a[r:r + rows] @ b).astype(self.dtype, copy=False)
        self._zero_grad = None

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

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return node(self.data + other.data, (self, other), backward)

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)
        return node(-self.data, (self,), backward)

    def __mul__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return node(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate_product(self.data.T, g)

        return node(self.data @ other.data, (self, other), backward)


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
