"""The loss catalogue: VAE KL, L1 reconstruction, softmax cross-entropy,
sliced Wasserstein discrepancy between classifier predictions, closed-form
W2 between diagonal Gaussians, and (inverse) correlation alignment.

All losses reduce to batch means so their weights are batch-size
independent. Everything is differentiable through the tensor tape.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, as_tensor, node, sort_ascending_columns


@dataclass
class GaussianParams:
    """Per-sample diagonal Gaussian (batch x latent-dim), variance kept
    as log-variance so positivity holds by construction."""

    mu: Tensor
    logvar: Tensor

    def __post_init__(self):
        if self.mu.shape != self.logvar.shape:
            raise ValueError("mu and logvar shapes differ")

    @property
    def var(self):
        return np.exp(self.logvar.data)

    @classmethod
    def from_arrays(cls, mu, var):
        mu = np.asarray(mu)
        var = np.asarray(var)
        if np.any(var <= 0):
            raise ValueError("variance must be strictly positive")
        return cls(as_tensor(mu), as_tensor(np.log(var)))


def kl_to_standard_normal(g):
    """Batch mean of KL(N(mu, diag(var)) || N(0, I)) in closed form."""
    batch = g.mu.shape[0]
    var = g.logvar.exp()
    per_elem = g.mu.square() + var - g.logvar - 1.0
    return per_elem.sum() * (0.5 / batch)


def l1_reconstruction(target, reconstruction):
    target = as_tensor(target)
    reconstruction = as_tensor(reconstruction)
    if target.shape != reconstruction.shape:
        raise ValueError(
            f"shape mismatch {target.shape} vs {reconstruction.shape}")
    batch = target.shape[0]
    return (target - reconstruction).abs().sum() / batch


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
    nll_data = logz - shifted[np.arange(n), labels].astype(np.float64)
    loss_data = np.asarray(nll_data.mean(), dtype=logits.dtype)

    def backward(g):
        logits._accumulate(softmax_cross_entropy_grad(e, labels, g))

    return node(loss_data, (logits,), backward)


def softmax_cross_entropy_grad(e, labels, g):
    """Gradient of `g` times the mean NLL with respect to the logits, from
    the max-shifted exponentials `e`: (softmax - onehot) * g / n, with the
    probabilities formed as `tensor.softmax` forms them."""
    n = len(labels)
    probs = e / e.sum(axis=1, keepdims=True)
    probs[np.arange(n), labels] -= 1.0
    return probs * (g / n)


def sliced_wasserstein_discrepancy(p1, p2, directions):
    """Mean over directions of the 1-D Wasserstein-2^2 distance between the
    projected prediction batches (sorted-sequence matching)."""
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
    batch, m = p1.shape[0], directions.shape[0]
    dirs = directions.T.astype(p1.dtype)  # K x M
    proj1 = sort_ascending_columns(p1 @ dirs)
    proj2 = sort_ascending_columns(p2 @ dirs)
    return (proj1 - proj2).square().sum() / (batch * m)


def gaussian_w2(gx, ga):
    """Batch mean of the closed-form W2 distance between paired diagonal
    Gaussians: sqrt(||mu_x - mu_a||^2 + ||sqrt(var_x) - sqrt(var_a)||^2)."""
    if gx.mu.shape != ga.mu.shape:
        raise ValueError("Gaussian batches differ in shape")
    batch = gx.mu.shape[0]
    mu_term = (gx.mu - ga.mu).square().sum(axis=1, keepdims=True)
    std_x = (gx.logvar * 0.5).exp()
    std_a = (ga.logvar * 0.5).exp()
    std_term = (std_x - std_a).square().sum(axis=1, keepdims=True)
    return (mu_term + std_term).sqrt().sum() / batch


def _covariance(x):
    """Unbiased sample covariance of a batch (rows are samples)."""
    n = x.shape[0]
    centered = x - x.mean(axis=0, keepdims=True)
    return (centered.t() @ centered) / (n - 1)


def coral(source, target):
    """(1/(4 d^2)) ||C_source - C_target||_F^2 over sample covariances."""
    source = as_tensor(source)
    target = as_tensor(target)
    if source.shape[1] != target.shape[1]:
        raise ValueError("feature dims differ")
    if source.shape[0] < 2 or target.shape[0] < 2:
        raise ValueError("coral needs at least 2 rows per batch")
    d = source.shape[1]
    diff = _covariance(source) - _covariance(target)
    return diff.square().sum() / (4.0 * d * d)


def icoral(seen_visual_latent, unseen_semantic_latent):
    """Negated coral: pushes the two batches' covariances apart."""
    return -coral(seen_visual_latent, unseen_semantic_latent)

