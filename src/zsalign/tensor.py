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

Halves. Inside `_one_blas_thread`, where an OpenBLAS control is found,
a product of at least `SPLIT_MACS` multiply-adds runs as two parts fixed
by its shapes alone, the second on one helper thread (`_in_halves`)
while the caller runs the first. `x @ w` and `g @ w.T` are cut by output
columns, a weight gradient written into its known-zero slot by output
rows, each at the multiple of 64 nearest the middle (`_cut`); a blocked
add gives each thread half of its row blocks. Every part writes its own
slice of the result in place. Both threads run at one OpenBLAS thread
(the pin sets the count of the whole process, the helper sets none of
its own), and each part is bitwise that slice of the unsplit product at
one thread (every paper-scale product tried; a three-way column cut of
50x64x660 was not), so the bytes depend on neither the configured BLAS
thread count nor the CPU count. `optim.Adam` halves its steps the same
way.

The helper is a one-worker executor. It runs the second part unless it
has not started it by the time the caller's part is done; the caller
then runs it itself. The bytes are the same whichever thread runs it. A
helper woken on the caller's CPU moves off it before it starts
(`_leave_cpu`), where `sched_getcpu` and an affinity control are found
(README "Performance").
"""

import concurrent.futures
import contextlib
import ctypes
import functools
import numbers
import os
import sys

import numpy as np


# central-difference step of `finite_difference_check`
FD_STEP = 1e-5

# elements of a product added to a gradient at a time (1 MB in float32)
BLOCK = 1 << 18

# multiply-adds from which a product runs as two halves (module docstring)
SPLIT_MACS = 1 << 22
_NEVER = sys.maxsize
_split_from = _NEVER  # SPLIT_MACS while `_one_blas_thread` holds a control


@functools.cache
def _openblas_thread_setter():
    """`openblas_set_num_threads_local` of the OpenBLAS that numpy loaded,
    found among the files mapped into this process (Linux), or None where
    no such library or symbol is found. The call sets OpenBLAS's thread
    count, in OpenBLAS 0.3.31 that of the whole process despite its name,
    and returns the count it replaced."""
    try:
        with open("/proc/self/maps") as maps:
            # a line that names a file holds six fields, the last its path
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread inside the block, and split large
    products and `Adam` steps into halves there; restore both after it.
    Do nothing where `_openblas_thread_setter` finds no control."""
    global _split_from
    setter = _openblas_thread_setter()
    if setter is None:
        yield
        return
    before, split_from = setter(1), _split_from
    _split_from = SPLIT_MACS
    try:
        yield
    finally:
        _split_from = split_from
        setter(before)


def splitting():
    """Whether work is being split into halves (`_one_blas_thread`)."""
    return _split_from != _NEVER


@functools.cache
def _cpu_reader():
    """`sched_getcpu` of the C library, the CPU the calling thread runs
    on, or None where it or `os.sched_setaffinity` is not found."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return getcpu


def _leave_cpu(cpu):
    """Move this thread off `cpu` if it may run elsewhere: narrowing its
    affinity to the other CPUs migrates it at once; then restore it."""
    try:
        allowed = os.sched_getaffinity(0)
        others = allowed - {cpu}
        if others and cpu in allowed:
            try:
                os.sched_setaffinity(0, others)
            finally:
                os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _run_off_cpu(cpu, part):
    """The helper's task: move off `cpu`, the caller's, if woken there,
    then run `part()`."""
    if cpu >= 0 and _cpu_reader()() == cpu:
        _leave_cpu(cpu)
    part()


_helper = None  # the helper thread's executor, once it is started


def _forget_helper():
    # a forked child has only the thread that forked
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)


def _in_halves(first, second):
    """Run `second()` on the helper thread, started on first use, while
    this thread runs `first()`; return when both are done, raising the
    first's exception, else the second's. If the helper has not started
    `second` by the time `first` is done, `Future.cancel` takes it back
    and this thread runs it. The helper is told this thread's CPU (-1 if
    unknown), so as not to share it."""
    global _helper
    if _helper is None:
        _helper = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="zsalign-half")
    getcpu = _cpu_reader()
    part = _helper.submit(_run_off_cpu, -1 if getcpu is None else getcpu(),
                          second)
    error = None
    try:
        first()
    finally:
        if part.cancel():
            try:
                second()
            except BaseException as e:  # raised below unless first's is
                error = e
        else:
            error = part.exception()
    if error is not None:
        raise error


def _cut(n):
    """The multiple of 64 nearest n / 2, or None if it is 0 or n."""
    c = (n + 64) // 128 * 64
    return c if 0 < c < n else None


def _product(a, b):
    """`a @ b`; from `_split_from` multiply-adds on, in two halves cut by
    output columns (module docstring)."""
    if a.size * b.shape[-1] < _split_from:
        return a @ b
    c = _cut(b.shape[-1])
    if c is None or a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), np.result_type(a, b))
    _in_halves(lambda: np.matmul(a, b[:, :c], out=out[:, :c]),
               lambda: np.matmul(a, b[:, c:], out=out[:, c:]))
    return out


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
        split = a.size * b.shape[1] >= _split_from
        grad = self.grad
        if grad is not None and self._zero_grad is grad:
            c = _cut(a.shape[0]) if split else None
            if c is None:
                np.matmul(a, b, out=grad)
            else:
                _in_halves(lambda: np.matmul(a[:c], b, out=grad[:c]),
                           lambda: np.matmul(a[c:], b, out=grad[c:]))
            self._zero_grad = None
            return
        if grad is None:
            grad = self.grad = np.zeros_like(self.data)
        rows = max(1, BLOCK // b.shape[1])
        starts = range(0, a.shape[0], rows)

        def add(starts):
            for r in starts:
                block = grad[r:r + rows]
                block += (a[r:r + rows] @ b).astype(self.dtype, copy=False)

        half = len(starts) // 2
        if split and half:
            _in_halves(lambda: add(starts[:half]), lambda: add(starts[half:]))
        else:
            add(starts)
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
                self._accumulate(_product(g, other.data.T))
            if other.requires_grad:
                other._accumulate_product(self.data.T, g)

        return node(_product(self.data, other.data), (self, other), backward)


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
