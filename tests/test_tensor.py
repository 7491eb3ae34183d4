import os
import tracemalloc

import numpy as np
import pytest

from zsalign import (Adam, Architecture, GaussianParams, Linear, Mlp, Model,
                     Rng, SynthConfig, Tensor, TrainSchedule, batch_iter,
                     coral, finite_difference_check, gaussian_w2, icoral,
                     kl_to_standard_normal, l1_reconstruction,
                     schedule_weights, sliced_wasserstein_discrepancy,
                     softmax_cross_entropy, step_joint, synth_generate)
from zsalign.optim import _CHUNK
from zsalign.tensor import (BLOCK, NonFiniteError, all_finite, check_finite,
                            node, softmax)
from zsalign.training import ModelOptimizer


def test_mlp_identity_relu_clamps():
    net = Mlp([2, 2], ["relu"], Rng(0))
    net.layers[0].w.data = np.eye(2, dtype=np.float32)
    net.layers[0].b.data = np.zeros((1, 2), dtype=np.float32)
    out = net(np.array([[-1.0, 2.0]], dtype=np.float32))
    assert np.allclose(out.data, [[0.0, 2.0]])


def test_mlp_zero_weights_gives_bias():
    net = Mlp([3, 4], ["identity"], Rng(0))
    net.layers[0].w.data[:] = 0.0
    net.layers[0].b.data[:] = np.arange(4, dtype=np.float32)
    x = Rng(1).standard_normal(5, 3)
    out = net(x)
    assert np.allclose(out.data, np.tile(np.arange(4), (5, 1)))


def test_mlp_matches_straight_line_oracle():
    # independent re-evaluation with plain numpy
    rng = Rng(42)
    net = Mlp([4, 6, 5, 3], ["relu", "relu", "identity"], rng,
              dtype=np.float64)
    x = rng.standard_normal(7, 4, dtype=np.float64)
    out = net(x).data
    h = x
    for i, layer in enumerate(net.layers):
        h = h @ layer.w.data + layer.b.data
        if net.activations[i] == "relu":
            h = np.maximum(h, 0.0)
    assert np.max(np.abs(out - h)) <= 1e-12 * max(1.0, np.abs(h).max())


def test_mlp_rejects_bad_input():
    net = Mlp([3, 2], ["relu"], Rng(0))
    with pytest.raises(ValueError):
        net(np.zeros((2, 4), dtype=np.float32))


def test_mlp_deterministic():
    net = Mlp([3, 5, 2], ["relu", "identity"], Rng(3))
    x = Rng(4).standard_normal(6, 3)
    a = net(x).data
    b = net(x).data
    assert np.array_equal(a, b)


def test_backward_zero_scale_gives_zeros():
    p = Tensor(Rng(0).standard_normal(3, 4, dtype=np.float64),
               requires_grad=True)
    (l1_reconstruction(np.zeros((3, 4)), p) * 0.0).backward()
    assert np.array_equal(p.grad, np.zeros((3, 4)))


def test_backward_requires_scalar():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (p * 2.0).backward()


def test_backward_finite_difference_small_net():
    rng = Rng(9)
    net = Mlp([3, 4, 2], ["relu", "identity"], rng, dtype=np.float64)
    x = rng.standard_normal(5, 3, dtype=np.float64)

    def loss():
        return softmax_cross_entropy(net(x), [0, 1, 1, 0, 1])

    assert finite_difference_check(loss, net.params()) <= 1e-4


def test_backward_through_shared_subgraph():
    # one node consumed twice must accumulate both contributions
    p = Tensor(np.array([[2.0, 3.0]]), requires_grad=True)
    y = p * p + p * 4.0
    # y > 0, so the L1 loss passes down a gradient of exactly 1
    l1_reconstruction(np.zeros((1, 2)), y).backward()
    assert np.allclose(p.grad, 2.0 * p.data + 4.0)


def test_softmax_rows_on_simplex():
    logits = Tensor(Rng(1).standard_normal(8, 5, dtype=np.float64) * 10)
    p = softmax(logits).data
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0)


@pytest.mark.parametrize("op,reference", [
    (lambda x: x + 1.0, lambda a: a + np.float32(1.0)),
    (lambda x: x + 2, lambda a: a + np.float32(2)),
    (lambda x: x * 0.1, lambda a: a * np.float32(0.1)),
    (lambda x: 0.3 * x, lambda a: a * np.float32(0.3)),
], ids=["add", "add_int", "mul", "rmul"])
def test_scalar_operand_keeps_float32(op, reference):
    a = Rng(2).standard_normal(4, 3)
    out = op(Tensor(a, requires_grad=True)).data
    assert out.dtype == np.float32
    assert out.tobytes() == reference(a).tobytes()


def tiny_model():
    return Model(Architecture(visual_dim=3, attr_dim=3, n_seen_classes=2,
                              structure_dim=4, latent_dim=3, common_hidden=4,
                              dec_visual_hidden=4, dec_semantic_hidden=4),
                 Rng(0))


def constant_linear():
    layer = Linear(3, 3, Rng(0))
    layer.w.requires_grad = layer.b.requires_grad = False
    return layer


def probe(out, g):
    """A scalar node whose backward passes exactly `g` into `out`."""
    return node(np.zeros((), out.dtype), (out,), lambda up: out._accumulate(g))


def test_layer_and_draw_are_one_node_each():
    x = Tensor(Rng(0).standard_normal(4, 3))
    layer = Linear(3, 2, Rng(1))
    for relu in (False, True):
        out = layer(x, relu)
        product, b = out._parents
        assert b is layer.b and product._parents == (x, layer.w)
    mu, logvar = layer(x), layer(x, relu=True)
    draw = tiny_model().reparameterize(GaussianParams(mu, logvar), Rng(2))
    assert draw._parents == (mu, logvar)


@pytest.mark.parametrize("relu", [False, True])
def test_layer_gradients_bitwise_match_masked_oracle(relu):
    rng = Rng(3)
    x = Tensor(rng.standard_normal(6, 4))
    layer = Linear(4, 5, rng)
    layer.b.data[...] = rng.standard_normal(1, 5)
    layer.b.data[0, 2] = -100.0  # every row of column 2 is below zero
    g = rng.standard_normal(6, 5)
    pre = x.data @ layer.w.data + layer.b.data
    gz = g * (pre > 0) if relu else g
    assert relu == (not gz[:, 2].any())
    out = layer(x, relu)
    # the bias and ReLU act in place on the product: the same bytes
    assert out.data.tobytes() == (pre * (pre > 0) if relu else pre).tobytes()
    probe(out, g).backward()
    assert layer.w.grad.dtype == layer.b.grad.dtype == np.float32
    assert np.array_equal(layer.w.grad, x.data.T @ gz)
    assert np.array_equal(layer.b.grad, gz.sum(0, keepdims=True))


def test_draw_gradients_bitwise_match_oracle():
    rng = Rng(4)
    mu = Tensor(rng.standard_normal(5, 3), requires_grad=True)
    logvar = Tensor(rng.standard_normal(5, 3), requires_grad=True)
    g = rng.standard_normal(5, 3)
    out = tiny_model().reparameterize(GaussianParams(mu, logvar), Rng(6))
    noise = Rng(6).standard_normal(5, 3)
    std = np.exp(logvar.data * np.float32(0.5))
    assert out.data.tobytes() == (mu.data + std * noise).tobytes()
    probe(out, g).backward()
    assert mu.grad.tobytes() == g.tobytes()
    assert logvar.grad.dtype == np.float32
    assert np.array_equal(logvar.grad, ((g * noise) * std) * np.float32(0.5))


@pytest.mark.parametrize("op", ["add", "mul"])
def test_broadcast_operand_needing_gradient_raises(op):
    p = Tensor(np.ones((1, 3)), requires_grad=True)
    c = Tensor(np.ones((4, 3)))
    out = p + c if op == "add" else p * c
    with pytest.raises(ValueError, match="broadcast"):
        l1_reconstruction(np.zeros((4, 3)), out).backward()


@pytest.mark.parametrize("shape", [(4, 3), (1, 1), (3,)])
def test_first_gradient_of_another_shape_raises(shape):
    # a non-leaf's first gradient is stored as `g + 0`, which would take
    # any shape; a gradient larger or smaller than its node is refused
    h = Tensor(np.ones((1, 3)), requires_grad=True) * 2.0
    with pytest.raises(ValueError, match="broadcast"):
        h._accumulate(np.ones(shape))
    assert h.grad is None


def test_node_consumed_twice_gets_sum_and_leaves_upstream_untouched():
    # `+` passes one array to both operands: the first store must copy it,
    # or the second contribution would add into the caller's array
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
               requires_grad=True)
    h = x * 2.0
    y = h + h
    g = Rng(0).standard_normal(2, 3)
    before = g.copy()
    y._backward(g)
    assert h.grad.tobytes() == (before + before).tobytes()
    assert g.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_gradient_stores_negative_zero_as_positive(dtype):
    # bitwise `zeros + g`, which turns -0.0 into +0.0
    h = Tensor(np.ones((1, 4), dtype=dtype), requires_grad=True) * 2.0
    g = np.array([[-0.0, 0.0, -1.5, np.nan]], dtype=dtype)
    h._accumulate(g)
    assert h.grad.tobytes() == (np.zeros_like(g) + g).tobytes()
    assert not np.signbit(h.grad[0, 0])
    assert h.grad is not g and np.signbit(g[0, 0])


# every node-building op and loss, over operands that need no gradient
CONSTANT_OPS = {
    "add": lambda a, b: a + b, "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b, "matmul": lambda a, b: a @ b.data.T,
    # the ReLU and the exp of the draw are now parts of the layer and draw
    # nodes; each case keeps its op's name and runs the node that does it
    "relu": lambda a, b: constant_linear()(a, relu=True),
    "exp": lambda a, b: tiny_model().reparameterize(GaussianParams(a, b),
                                                    Rng(0)),
    "softmax": lambda a, b: softmax(a),
    "cross_entropy": lambda a, b: softmax_cross_entropy(a, [0, 2, 1, 0]),
    "l1": lambda a, b: l1_reconstruction(a, b),
    "kl": lambda a, b: kl_to_standard_normal(GaussianParams(a, b)),
    "swd": lambda a, b: sliced_wasserstein_discrepancy(
        a, b, np.eye(3)[:2]),
    "w2": lambda a, b: gaussian_w2(GaussianParams(a, b),
                                   GaussianParams(b, a)),
    "icoral": lambda a, b: icoral(a, b),
    # the deleted tape ops' work now lives in the loss nodes; each entry
    # keeps its op's name and runs the node that does that work, over a
    # mix of constant inputs the entries above do not use
    "sub": lambda a, b: l1_reconstruction(a.data, b),
    "abs": lambda a, b: l1_reconstruction(b, a),
    "div": lambda a, b: coral(a, b),
    "sum": lambda a, b: kl_to_standard_normal(GaussianParams(b, a)),
    "square": lambda a, b: sliced_wasserstein_discrepancy(
        a, b, np.ones((1, 3))),
    "sqrt": lambda a, b: gaussian_w2(GaussianParams(a, b),
                                     GaussianParams(a, b)),
    "sum_axis": lambda a, b: gaussian_w2(GaussianParams(a, a),
                                         GaussianParams(b, b)),
    "mean": lambda a, b: icoral(b, a),
    "t": lambda a, b: icoral(a, b.data),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_OPS))
def test_op_over_constants_records_no_backward(name):
    a = Tensor(np.abs(Rng(3).standard_normal(4, 3)) + 0.1)
    b = Tensor(Rng(4).standard_normal(4, 3))
    out = CONSTANT_OPS[name](a, b)
    assert not out.requires_grad
    assert out._backward is None


def test_constant_leaf_in_mixed_graph_gets_no_gradient():
    p = Tensor(Rng(5).standard_normal(4, 3, dtype=np.float64),
               requires_grad=True)
    c = Tensor(Rng(6).standard_normal(4, 3, dtype=np.float64))
    h = (p * c + c + (-0.5)) @ c.data.T
    # c is also one input of a loss whose other input needs a gradient
    loss = l1_reconstruction(c, p * c) + \
        softmax_cross_entropy(h, [0, 1, 2, 3])
    loss.backward()
    assert p.grad is not None and p.grad.shape == p.shape
    assert c.grad is None


def test_adam_zero_gradient_noop():
    p = Tensor(np.array([[1.0, -2.0]], dtype=np.float32), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], lr=0.1)
    for _ in range(10):
        p.grad[...] = 0
        opt.step()
    assert np.array_equal(p.data, before)
    assert opt.t == 10


def test_adam_empty_gradient_errors():
    p = Tensor(np.ones((1, 1)), requires_grad=True)
    opt = Adam([p])
    # an emptied slot, and a gradient rebound instead of written in place
    for grad in (None, np.ones((1, 1))):
        p.grad = grad
        with pytest.raises(ValueError, match="in place"):
            opt.step()


def test_adam_first_step_matches_hand_recurrence():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam([p], lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
    p.grad[...] = 1.0
    opt.step()
    # bias correction makes the first step exactly lr / (1 + eps)
    assert abs(p.data.item() - (1.0 - 1e-3 / (1.0 + 1e-8))) < 1e-12


def test_adam_two_steps_match_hand_recurrence():
    lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
    p = Tensor(np.array([[0.3]]), requires_grad=True)
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    theta, m, v = 0.3, 0.0, 0.0
    for t in (1, 2):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        p.grad[...] = g
        opt.step()
    assert abs(p.data.item() - theta) < 1e-12


class WholeArrayAdam:
    """Reference: the plain whole-array Adam update in the parameters'
    dtype, one temporary per operation. The chunked in-place `Adam` must
    match it bit for bit."""

    def __init__(self, params, lr, beta1, beta2, eps=1e-8):
        self.params, self.lr, self.eps = params, lr, eps
        self.beta1, self.beta2, self.t = beta1, beta2, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for p in self.params:
            p.grad = None


ORACLE_CASES = {
    # one weight spanning three full chunks and a 5-element tail
    "one_large": ([(3 * _CHUNK + 5, 1)], np.float32),
    # (w, b) pairs of 500 elements: many tensors per chunk, and the weight
    # of pair _CHUNK // 500 straddles the first chunk boundary
    "many_small": ([(9, 50), (1, 50)] * (_CHUNK // 500 + 2), np.float32),
    "float64": ([(_CHUNK + 3, 1), (5, 5), (1, 5)], np.float64),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_adam_chunked_update_bitwise_matches_whole_array(case):
    shapes, dtype = ORACLE_CASES[case]
    gen = np.random.default_rng(7)
    init = [gen.standard_normal(s).astype(dtype) for s in shapes]
    ours = [Tensor(a.copy(), requires_grad=True) for a in init]
    ref = [Tensor(a.copy(), requires_grad=True) for a in init]
    hyper = dict(lr=1.5e-4, beta1=0.5, beta2=0.999)
    opt, oracle = Adam(ours, **hyper), WholeArrayAdam(ref, **hyper)
    for step in range(7):
        for p, q in zip(ours, ref):
            # magnitudes over 12 decades, with exact zeros, so rounding in
            # every operation is exercised
            g = gen.standard_normal(p.data.shape) * \
                10.0 ** gen.uniform(-8, 4, p.data.shape)
            g[gen.random(p.data.shape) < 0.05] = 0.0
            p.grad[...], q.grad = g.astype(dtype), g.astype(dtype)
        opt.step()
        oracle.step()
        for p, q in zip(ours, ref):
            assert p.data.dtype == q.data.dtype
            assert p.data.tobytes() == q.data.tobytes(), f"step {step}"


def test_adam_step_allocates_no_whole_array_temporaries():
    p = Tensor(np.ones((1024, 1024), dtype=np.float32), requires_grad=True)
    opt = Adam([p])
    p.grad[...] = 0.5
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak           # one whole-array temporary: 4 MB


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 500, 999])
def test_all_finite_matches_isfinite_all(dtype, bad, where):
    arr = np.linspace(-1e30, 1e30, 1000, dtype=dtype).reshape(10, 100)
    assert all_finite(arr) and np.isfinite(arr).all()
    arr.reshape(-1)[where] = bad
    assert not all_finite(arr) and not np.isfinite(arr).all()
    with pytest.raises(NonFiniteError, match="'x'"):
        check_finite(arr, "x")


@pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
def test_all_finite_accepts_empty(shape):
    assert all_finite(np.empty(shape, dtype=np.float32))
    check_finite(np.empty(shape), "x")


def test_all_finite_allocates_no_array_sized_temporary():
    arr = np.ones((1000, 1000), dtype=np.float32)
    tracemalloc.start()
    try:
        assert all_finite(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak     # np.isfinite(arr) alone takes 1 MB


def _ce_through(w, xs):
    """Sum over `xs` of the cross-entropy of `x @ w`: the tape uses `w`
    once per input, so its gradient has `len(xs)` contributions."""
    labels = [0, 1, 2, 3]
    total = softmax_cross_entropy(Tensor(xs[0]) @ w, labels)
    for x in xs[1:]:
        total = total + softmax_cross_entropy(Tensor(x) @ w, labels)
    return total


@pytest.mark.parametrize("uses", [1, 2, 4])
def test_first_gradient_store_bitwise_matches_zero_then_add(uses):
    gen = np.random.default_rng(uses)
    init = gen.standard_normal((6, 5)).astype(np.float32)
    w = Tensor(init.copy(), requires_grad=True)
    ref = Tensor(init.copy(), requires_grad=True)
    opt, ref_opt = Adam([w], lr=0.05), Adam([ref], lr=0.05)
    # the oracle's tape runs through a weight no Adam owns, on `ref`'s
    # storage: its gradient starts as None, so every contribution, the
    # first included, is added to zeros
    shadow = Tensor(ref.data, requires_grad=True)
    for step in range(6):
        xs = [gen.standard_normal((4, 6)).astype(np.float32)
              for _ in range(uses)]
        for x in xs:
            # a zero column of x is an exactly zero row of w's gradient
            x[:, gen.random(6) < 0.3] = 0
            if step == 3:
                x[...] = 0                  # every gradient exactly zero
        _ce_through(w, xs).backward()
        _ce_through(shadow, xs).backward()
        assert np.array_equal(w.grad, shadow.grad), f"step {step}"
        ref.grad[...], shadow.grad = shadow.grad, None
        opt.step()
        ref_opt.step()
        for ours, theirs in ((w.data, ref.data), (opt.m, ref_opt.m),
                             (opt.v, ref_opt.v)):
            assert ours.tobytes() == theirs.tobytes(), f"step {step}"
        assert not opt.grad.any()


def test_second_backward_without_step_adds():
    # a divergence leaves the gradients unstepped: a later backward adds
    x = np.arange(24, dtype=np.float32).reshape(4, 6) / 24
    w = Tensor(np.ones((6, 5), dtype=np.float32), requires_grad=True)
    Adam([w])
    _ce_through(w, [x]).backward()
    once = w.grad.copy()
    _ce_through(w, [x]).backward()
    assert w.grad.tobytes() == (once + once).tobytes()


def test_weight_outside_adam_takes_accumulate_path():
    # only the slot an Adam zeroed is written; any other gradient is added
    # to. A gradient set by hand leaves the mark, so the owned slot's ones
    # show the write: they are overwritten, where the unowned ones are kept.
    x = np.random.default_rng(3).standard_normal((4, 6)).astype(np.float32)
    init = np.random.default_rng(4).standard_normal((6, 5))
    w = Tensor(init.astype(np.float32), requires_grad=True)
    owned = Tensor(init.astype(np.float32), requires_grad=True)
    Adam([owned])
    w.grad = np.ones_like(w.data)
    owned.grad[...] = 1
    for p in (w, owned):
        _ce_through(p, [x]).backward()
    assert w.grad.tobytes() == (1 + owned.grad).tobytes()
    fresh = Tensor(init.astype(np.float32), requires_grad=True)
    _ce_through(fresh, [x]).backward()
    assert fresh.grad.tobytes() == (0 + owned.grad).tobytes()


@pytest.mark.parametrize("beta1", [0.5, 0.9])
def test_written_negative_zero_leaves_parameter_bytes_unchanged(beta1):
    # A slot written by a product may keep a -0.0 that `0 + g` makes +0.0.
    # Adam squares g into v, so v never sees the sign. m = b1 * m +
    # (1 - b1) * g sees it only where b1 * m is -0.0: b1 <= 1/2 rounds the
    # smallest negative subnormal m to -0.0. Such an m moves its parameter
    # by a signed zero, which changes no parameter but a -0.0 one, and no
    # step makes a -0.0 parameter. So the parameters keep their bytes.
    gen = np.random.default_rng(5)
    init = gen.standard_normal((8, 8)).astype(np.float32)
    init[0] = 0.0
    written = Tensor(init.copy(), requires_grad=True)
    added = Tensor(init.copy(), requires_grad=True)
    opts = Adam([written], beta1=beta1), Adam([added], beta1=beta1)
    m_signs_differed = False
    for step in range(170):
        g = gen.standard_normal((8, 8)).astype(np.float32)
        g[gen.random((8, 8)) < 0.3] = -0.0
        # rows 0 and 1: one negative gradient, then -0.0 while m decays
        g[:2] = -1.0 if step == 0 else -0.0
        written.grad[...] = g
        added.grad[...] = 0 + g
        for opt in opts:
            opt.step()
        assert written.data.tobytes() == added.data.tobytes(), f"step {step}"
        assert opts[0].v.tobytes() == opts[1].v.tobytes()
        assert np.array_equal(opts[0].m, opts[1].m)
        m_signs_differed |= opts[0].m.tobytes() != opts[1].m.tobytes()
        assert not np.signbit(written.data[written.data == 0]).any()
    assert m_signs_differed == (beta1 <= 0.5)


def test_backward_writes_first_weight_gradient_without_temporary():
    gen = np.random.default_rng(0)
    w = Tensor(np.ones((1024, 1024), dtype=np.float32), requires_grad=True)
    Adam([w])
    x = Tensor(gen.standard_normal((8, 1024)).astype(np.float32))
    loss = l1_reconstruction(np.zeros((8, 1024), dtype=np.float32), x @ w)
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.any()
    assert peak < 1 << 20, peak             # the x.T @ g temporary: 4 MB


@pytest.mark.parametrize("uses, dtype, owned", [
    (2, np.float32, True), (3, np.float32, True), (3, np.float64, True),
    (2, np.float32, False)])
def test_blocked_product_adds_bitwise_match_whole_adds(
        monkeypatch, uses, dtype, owned):
    # wider than one block, with a ragged last block of rows
    k, n = 1024, 600
    rows = BLOCK // n
    assert k > rows and k % rows
    gen = np.random.default_rng(uses)
    w = Tensor(gen.standard_normal((k, n)).astype(dtype), requires_grad=True)
    opt = Adam([w], lr=0.01) if owned else None
    seen = []
    product = Tensor._accumulate_product

    def recording(self, a, b):
        seen.append((a.copy(), b.copy()))
        product(self, a, b)

    monkeypatch.setattr(Tensor, "_accumulate_product", recording)
    for step in range(3):
        xs = [gen.standard_normal((5, k)).astype(dtype) for _ in range(uses)]
        gs = [gen.standard_normal((5, n)).astype(dtype) for _ in range(uses)]
        seen.clear()
        # one contribution to w's gradient, x.T @ g, per input
        total = probe(Tensor(xs[0]) @ w, gs[0])
        for x, g in zip(xs[1:], gs[1:]):
            total = total + probe(Tensor(x) @ w, g)
        total.backward()
        assert len(seen) == uses
        # the oracle forms each contribution whole and adds it in order
        want = seen[0][0] @ seen[0][1]
        if not owned:
            want = np.zeros_like(want) + want
        for a, b in seen[1:]:
            want += a @ b
        assert w.grad.dtype == dtype
        assert w.grad.tobytes() == want.tobytes(), f"step {step}"
        if owned:
            opt.step()
        else:
            w.grad = None


def test_backward_adds_later_weight_gradients_without_temporary():
    gen = np.random.default_rng(1)
    w = Tensor(np.ones((1024, 1024), dtype=np.float32), requires_grad=True)
    Adam([w])
    zeros = np.zeros((8, 1024), dtype=np.float32)
    x1, x2 = (Tensor(gen.standard_normal((8, 1024)).astype(np.float32))
              for _ in range(2))
    loss = l1_reconstruction(zeros, x1 @ w) + l1_reconstruction(zeros, x2 @ w)
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.any()
    assert peak < 2 << 20, peak             # the second x.T @ g: 4 MB


def test_joint_step_allocates_less_than_a_weight():
    # no weight-sized array in the forward, the backward or the step:
    # every weight is used at least twice per joint step
    ds = synth_generate(SynthConfig(n_classes=40, n_seen=30,
                                    samples_per_class=10, visual_dim=512,
                                    attr_dim=64, train_fraction=0.5, seed=1))
    arch = Architecture(visual_dim=512, attr_dim=64, n_seen_classes=30,
                        structure_dim=1024, common_hidden=768)
    model = Model(arch, Rng(0))
    sched = TrainSchedule(batch_size=10)
    opt = ModelOptimizer(model, sched)
    weights = schedule_weights(sched, 30)
    first, second = list(batch_iter(ds, sched.batch_size, Rng(1)))[:2]
    step_joint(model, first, weights, opt, Rng(2))
    largest = max(p.data.nbytes for p in model.all_params())
    tracemalloc.start()
    try:
        step_joint(model, second, weights, opt, Rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest, (peak, largest)


def test_adam_owns_parameter_storage():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.array([[7.0, 8.0, 9.0]]), requires_grad=True)
    opt = Adam([w, b])
    # the parameters, in order, are views into one flat array
    assert opt.data.tolist() == [0, 1, 2, 3, 4, 5, 7, 8, 9]
    assert w.data.base is opt.data and b.data.base is opt.data
    # the tape adds leaf gradients straight into the optimizer's array
    # the output is positive, so the L1 loss passes down a gradient of 1
    l1_reconstruction(np.zeros((1, 3)),
                      Tensor(np.ones((1, 2))) @ w + b).backward()
    assert opt.grad.tolist() == [1, 1, 1, 1, 1, 1, 1, 1, 1]
    opt.step()
    assert not opt.grad.any()
    assert w.data.base is opt.data and b.grad.base is opt.grad


def _malloc_heap():
    with open("/proc/self/maps") as f:
        return [tuple(int(a, 16) for a in line.split()[0].split("-"))
                for line in f if line.rstrip().endswith("[heap]")]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the process's memory map")
def test_adam_arrays_live_outside_the_malloc_heap():
    # freeing an 8 MB array raises glibc's mmap threshold to 8 MB, so a
    # 4 MB numpy array would now come from the heap
    del_me = np.ones(2 << 20, dtype=np.float32)
    del del_me
    w = Tensor(np.ones((1024, 1024), dtype=np.float32), requires_grad=True)
    opt = Adam([w])
    heap = _malloc_heap()
    for arr in (opt.data, opt.grad, opt.m, opt.v):
        start = arr.ctypes.data
        assert not any(lo <= start < hi for lo, hi in heap)
    assert not opt.grad.any() and not opt.m.any() and not opt.v.any()
    assert w.data.base is opt.data and np.all(w.data == 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_state_has_parameter_dtype(dtype):
    w = Tensor(np.zeros((300, 70), dtype=dtype), requires_grad=True)
    b = Tensor(np.zeros((1, 70), dtype=dtype), requires_grad=True)
    opt = Adam([w, b])
    for state in (opt.m, opt.v, opt._denom):
        assert state.dtype == dtype
    assert opt.m.nbytes + opt.v.nbytes == 2 * opt.data.nbytes


def test_adam_overflow_raises():
    # (1 - b2) * g * g overflows float32 at |g| = 1e21, not float64
    for dtype, overflows in ((np.float32, True), (np.float64, False)):
        p = Tensor(np.zeros((2, 3), dtype=dtype), requires_grad=True)
        opt = Adam([p])
        p.grad[0, 1] = 1e21
        if overflows:
            with pytest.raises(NonFiniteError, match="overflow"):
                opt.step()
        else:
            opt.step()
            assert np.isfinite(opt.v).all()


def test_adam_rejects_mixed_dtypes():
    a = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros((1, 2), dtype=np.float64), requires_grad=True)
    with pytest.raises(ValueError, match="dtype"):
        Adam([a, b])


def _adam_state(opt, params):
    return (opt.t, opt.m.tobytes(), opt.v.tobytes(), opt.data.tobytes(),
            opt.grad.tobytes(), [p.data.tobytes() for p in params])


def _stepped_pair():
    """Two parameters under one Adam after one step, and their state."""
    a = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((1, 4), dtype=np.float32), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    a.grad[...], b.grad[...] = 1, 1
    opt.step()
    a.grad[...], b.grad[...] = 1, 1
    return a, b, opt, _adam_state(opt, [a, b])


def test_adam_rejects_non_contiguous_data_untouched():
    a, b, opt, before = _stepped_pair()
    # a transposed copy is not the optimizer's storage, so an update would
    # not reach it
    a.data = np.ascontiguousarray(a.data.T).T
    with pytest.raises(ValueError, match="in place"):
        opt.step()
    assert _adam_state(opt, [a, b]) == before


def test_adam_empty_gradient_leaves_state_untouched():
    a, b, opt, before = _stepped_pair()
    b.grad = None
    with pytest.raises(ValueError, match="in place"):
        opt.step()
    assert _adam_state(opt, [a, b]) == before


def test_standard_normal_deterministic_and_seed_sensitive():
    a = Rng(5).standard_normal(4, 4)
    b = Rng(5).standard_normal(4, 4)
    c = Rng(6).standard_normal(4, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_standard_normal_moments():
    x = Rng(0).standard_normal(1000, 1000, dtype=np.float64)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02


def test_unit_sphere_norms_and_dim1():
    d = Rng(0).unit_directions(100, 5, dtype=np.float64)
    assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) < 1e-12
    d1 = Rng(0).unit_directions(50, 1, dtype=np.float64)
    assert set(np.unique(d1)) <= {-1.0, 1.0}
    with pytest.raises(ValueError):
        Rng(0).unit_directions(3, 0)


def test_unit_sphere_uniformity():
    d = Rng(1).unit_directions(100_000, 3, dtype=np.float64)
    assert np.linalg.norm(d.mean(axis=0)) < 0.02
