"""The loss catalogue: VAE KL, L1 reconstruction, softmax cross-entropy,
sliced Wasserstein discrepancy between classifier predictions, closed-form
W2 between diagonal Gaussians, and (inverse) correlation alignment.

All losses reduce to batch means so their weights are batch-size
independent. Each loss is one tape node: its value is computed in numpy,
elementwise in the inputs' dtype with every sum in float64, and its
backward forms each input's gradient in closed form. The finite-difference
suite (`gradcheck.py`, and the loss tests) checks those gradients.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, as_tensor, node


@dataclass
class GaussianParams:
    """Per-sample diagonal Gaussian (batch x latent-dim), variance kept
    as log-variance so positivity holds by construction."""

    mu: Tensor
    logvar: Tensor

    def __post_init__(self):
        if self.mu.shape != self.logvar.shape:
            raise ValueError("mu and logvar shapes differ")

    @classmethod
    def from_arrays(cls, mu, var):
        mu = np.asarray(mu)
        var = np.asarray(var)
        if np.any(var <= 0):
            raise ValueError("variance must be strictly positive")
        return cls(as_tensor(mu), as_tensor(np.log(var)))


def _loss_node(value, inputs, grads):
    """One scalar node over the tensors `inputs`. Its data is `value` (a
    float64 scalar) as a 0-d array of the inputs' dtype. Its backward calls
    `grads(up)` with the upstream gradient `up` and accumulates the i-th
    array returned into `inputs[i]` if that input needs a gradient."""
    dtype = np.result_type(*(x.dtype for x in inputs))

    def backward(up):
        for x, g in zip(inputs, grads(up)):
            if x.requires_grad:
                x._accumulate(g)

    return node(np.asarray(value, dtype=dtype), inputs, backward)


def kl_to_standard_normal(g):
    """Batch mean of KL(N(mu, diag(var)) || N(0, I)) in closed form."""
    mu, logvar = g.mu.data, g.logvar.data
    var = np.exp(logvar)
    scale = 0.5 / mu.shape[0]
    total = np.sum(mu * mu + var - logvar - 1.0, dtype=np.float64)

    def grads(up):
        s = up * scale
        return mu * (2 * s), (var - 1.0) * s

    return _loss_node(total * scale, (g.mu, g.logvar), grads)


def l1_reconstruction(target, reconstruction):
    """Batch mean of the rows' L1 distances."""
    target = as_tensor(target)
    reconstruction = as_tensor(reconstruction)
    if target.shape != reconstruction.shape:
        raise ValueError(
            f"shape mismatch {target.shape} vs {reconstruction.shape}")
    scale = 1.0 / target.shape[0]
    diff = reconstruction.data - target.data

    def grads(up):
        g = np.sign(diff) * (up * scale)
        return -g, g

    return _loss_node(np.sum(np.abs(diff), dtype=np.float64) * scale,
                      (target, reconstruction), grads)


def softmax_cross_entropy(logits, labels):
    """Mean NLL under a max-shifted softmax."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must be one index per row")
    if labels.min() < 0 or labels.max() >= k:
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ValueError(f"label {bad} out of range [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    logz = np.log(np.sum(e, axis=1, dtype=np.float64))
    nll = logz - shifted[np.arange(n), labels].astype(np.float64)
    # the node's backward runs once per graph, so it may consume `e`
    return _loss_node(nll.mean(), (logits,),
                      lambda up: (softmax_cross_entropy_grad(e, labels, up),))


def softmax_cross_entropy_grad(e, labels, g):
    """Gradient of `g` times the mean NLL with respect to the logits, from
    the max-shifted exponentials `e`: (softmax - onehot) * g / n, with the
    probabilities formed as `tensor.softmax` forms them. The gradient is
    written over `e`, which is returned."""
    n = len(labels)
    e /= e.sum(axis=1, keepdims=True)
    e[np.arange(n), labels] -= 1.0
    e *= g / n
    return e


def sliced_wasserstein_discrepancy(p1, p2, directions):
    """Mean over directions of the 1-D Wasserstein-2^2 distance between the
    projected prediction batches (sorted-sequence matching).

    The gradient of a sorted projection flows back through its sorting
    permutation (Lee et al., arXiv 1903.04064); ties keep the stable-sort
    order."""
    p1 = as_tensor(p1)
    p2 = as_tensor(p2)
    directions = np.asarray(directions)
    if p1.shape != p2.shape:
        raise ValueError("prediction batches differ in shape")
    if p1.shape[0] == 0:
        raise ValueError("empty prediction batch")
    if directions.ndim != 2 or directions.shape[0] == 0:
        raise ValueError("need at least one projection direction")
    if directions.shape[1] != p1.shape[1]:
        raise ValueError(
            f"direction dim {directions.shape[1]} != class count {p1.shape[1]}")
    dirs = directions.astype(p1.dtype)  # M x K
    proj1 = p1.data @ dirs.T
    proj2 = p2.data @ dirs.T
    order1 = np.argsort(proj1, axis=0, kind="stable")
    order2 = np.argsort(proj2, axis=0, kind="stable")
    diff = (np.take_along_axis(proj1, order1, axis=0) -
            np.take_along_axis(proj2, order2, axis=0))
    scale = 1.0 / diff.size

    def grads(up):
        g = diff * (up * (2 * scale))
        g1 = np.empty_like(g)
        g2 = np.empty_like(g)
        np.put_along_axis(g1, order1, g, axis=0)
        np.put_along_axis(g2, order2, g, axis=0)
        return g1 @ dirs, -(g2 @ dirs)

    return _loss_node(np.sum(diff * diff, dtype=np.float64) * scale,
                      (p1, p2), grads)


def gaussian_w2(gx, ga):
    """Batch mean of the closed-form W2 distance between paired diagonal
    Gaussians: sqrt(||mu_x - mu_a||^2 + ||sqrt(var_x) - sqrt(var_a)||^2).
    Where a pair's distance is exactly 0 its subgradient is 0."""
    if gx.mu.shape != ga.mu.shape:
        raise ValueError("Gaussian batches differ in shape")
    batch = gx.mu.shape[0]
    dmu = gx.mu.data - ga.mu.data
    std_x = np.exp(0.5 * gx.logvar.data)
    std_a = np.exp(0.5 * ga.logvar.data)
    dstd = std_x - std_a
    dist = np.sqrt(np.sum(dmu * dmu, axis=1, dtype=np.float64) +
                   np.sum(dstd * dstd, axis=1, dtype=np.float64))

    def grads(up):
        coef = np.divide(up / batch, dist, out=np.zeros_like(dist),
                         where=dist > 0).astype(dmu.dtype)[:, None]
        g_mu, g_std = dmu * coef, dstd * coef
        return g_mu, g_std * (0.5 * std_x), -g_mu, g_std * (-0.5 * std_a)

    return _loss_node(np.sum(dist) / batch,
                      (gx.mu, gx.logvar, ga.mu, ga.logvar), grads)


def _centered(x):
    """The batch `x` (rows are samples) minus its column means."""
    return x - (np.sum(x, axis=0, dtype=np.float64) / len(x)).astype(x.dtype)


def _coral(source, target, sign):
    """`sign` times (1/(4 d^2)) ||C_source - C_target||_F^2 over unbiased
    sample covariances, with the closed-form gradient of Sun & Saenko
    (arXiv 1607.01719): sign * X_c (C_source - C_target) / (d^2 (n - 1))
    for the centered source batch X_c, and its negation for the target."""
    source = as_tensor(source)
    target = as_tensor(target)
    if source.shape[1] != target.shape[1]:
        raise ValueError("feature dims differ")
    if source.shape[0] < 2 or target.shape[0] < 2:
        raise ValueError("coral needs at least 2 rows per batch")
    d = source.shape[1]
    xs, xt = _centered(source.data), _centered(target.data)
    ns, nt = len(xs), len(xt)
    diff = (xs.T @ xs) / (ns - 1) - (xt.T @ xt) / (nt - 1)
    scale = sign / (4.0 * d * d)

    def grads(up):
        k = up * (4 * scale)
        return xs @ (diff * (k / (ns - 1))), xt @ (diff * (-k / (nt - 1)))

    return _loss_node(np.sum(diff * diff, dtype=np.float64) * scale,
                      (source, target), grads)


def coral(source, target):
    """(1/(4 d^2)) ||C_source - C_target||_F^2 over sample covariances."""
    return _coral(source, target, 1.0)


def icoral(seen_visual_latent, unseen_semantic_latent):
    """Negated coral: pushes the two batches' covariances apart."""
    return _coral(seen_visual_latent, unseen_semantic_latent, -1.0)
