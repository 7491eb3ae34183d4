import itertools

import numpy as np
import pytest

from zsalign import (GaussianParams, Rng, Tensor, coral,
                     finite_difference_check, gaussian_w2, icoral,
                     kl_to_standard_normal, l1_reconstruction,
                     sliced_wasserstein_discrepancy, softmax_cross_entropy)
from zsalign.tensor import softmax


def rand_gauss(rng, batch, dim, requires_grad=False):
    mu = Tensor(rng.standard_normal(batch, dim, dtype=np.float64),
                requires_grad=requires_grad)
    logvar = Tensor(rng.standard_normal(batch, dim, dtype=np.float64) * 0.5,
                    requires_grad=requires_grad)
    return GaussianParams(mu, logvar)


# ---- KL -------------------------------------------------------------------

def kl_monte_carlo(mu, var, n_samples, rng):
    """Independent oracle: sample-based estimate of KL(q || N(0, I))."""
    total = 0.0
    for i in range(mu.shape[0]):
        eps = rng.standard_normal(n_samples, mu.shape[1], dtype=np.float64)
        z = mu[i] + np.sqrt(var[i]) * eps
        log_q = -0.5 * np.sum((z - mu[i]) ** 2 / var[i] + np.log(var[i])
                              + np.log(2 * np.pi), axis=1)
        log_p = -0.5 * np.sum(z ** 2 + np.log(2 * np.pi), axis=1)
        total += float(np.mean(log_q - log_p))
    return total / mu.shape[0]


def test_kl_standard_gaussian_is_zero():
    g = GaussianParams.from_arrays(np.zeros((2, 3)), np.ones((2, 3)))
    assert abs(float(kl_to_standard_normal(g).data)) < 1e-12


def test_kl_unit_mean_case():
    g = GaussianParams.from_arrays(np.array([[1.0]]), np.array([[1.0]]))
    assert abs(float(kl_to_standard_normal(g).data) - 0.5) < 1e-12


def test_kl_matches_monte_carlo():
    rng = Rng(0)
    g = rand_gauss(rng, 3, 4)
    got = float(kl_to_standard_normal(g).data)
    mc = kl_monte_carlo(g.mu.data, np.exp(g.logvar.data), 1_000_000, rng)
    assert abs(got - mc) < 1e-2


def test_kl_zero_iff_standard():
    # grid of perturbed Gaussians: KL > 0 unless mu=0, var=1
    for dmu in (-0.5, 0.0, 0.5):
        for dv in (0.5, 1.0, 2.0):
            g = GaussianParams.from_arrays(np.full((1, 2), dmu),
                                           np.full((1, 2), dv))
            kl = float(kl_to_standard_normal(g).data)
            if dmu == 0.0 and dv == 1.0:
                assert abs(kl) < 1e-9
            else:
                assert kl > 1e-9


def test_gaussian_params_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        GaussianParams.from_arrays(np.zeros((1, 2)), np.array([[1.0, 0.0]]))


# ---- L1 -------------------------------------------------------------------

def test_l1_identity_and_single_coordinate():
    x = np.array([[1.0, 2.0]])
    assert float(l1_reconstruction(x, x).data) == 0.0
    assert float(l1_reconstruction(x, np.array([[0.0, 2.0]])).data) == 1.0


def test_l1_matches_resum_oracle():
    rng = Rng(3)
    a = rng.standard_normal(6, 5, dtype=np.float64)
    b = rng.standard_normal(6, 5, dtype=np.float64)
    got = float(l1_reconstruction(a, b).data)
    want = np.abs(a - b).sum() / a.shape[0]
    assert abs(got - want) < 1e-12


def test_l1_shape_mismatch():
    with pytest.raises(ValueError):
        l1_reconstruction(np.zeros((2, 3)), np.zeros((2, 4)))


# ---- cross-entropy --------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss = softmax_cross_entropy(np.zeros((4, 5)), [0, 1, 2, 3])
    assert abs(float(loss.data) - np.log(5)) < 1e-6


def test_cross_entropy_saturated():
    logits = np.zeros((2, 3))
    logits[0, 1] = 1000.0
    logits[1, 2] = 1000.0
    loss = softmax_cross_entropy(logits, [1, 2])
    assert float(loss.data) < 1e-6


def test_cross_entropy_matches_unshifted_oracle():
    rng = Rng(5)
    logits = rng.standard_normal(8, 6, dtype=np.float64) * 3
    labels = rng.integers(0, 6, size=8)
    loss = softmax_cross_entropy(Tensor(logits), labels)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(8), labels]))
    assert abs(float(loss.data) - want) < 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 3)), [0, 3])


# ---- sliced Wasserstein ---------------------------------------------------

def swd_exhaustive_oracle(p1, p2, direction):
    """Brute-force 1-D optimal transport: best assignment over all
    permutations of the projected batches."""
    a = p1 @ direction
    b = p2 @ direction
    best = np.inf
    for perm in itertools.permutations(range(len(a))):
        cost = np.mean((a - b[list(perm)]) ** 2)
        best = min(best, cost)
    return best


def test_swd_identical_is_zero():
    p = softmax(Tensor(Rng(0).standard_normal(4, 3, dtype=np.float64)))
    dirs = Rng(1).unit_directions(5, 3, dtype=np.float64)
    assert float(sliced_wasserstein_discrepancy(p, p, dirs).data) == 0.0


def test_swd_hand_projection():
    p1 = np.array([[1.0, 0.0]])
    p2 = np.array([[0.0, 1.0]])
    d = np.array([[1.0, 0.0]])
    assert abs(float(sliced_wasserstein_discrepancy(p1, p2, d).data) - 1.0) \
        < 1e-12


def test_swd_batch_permutation_invariance():
    rng = Rng(2)
    p1 = rng.standard_normal(4, 3, dtype=np.float64)
    p2 = rng.standard_normal(4, 3, dtype=np.float64)
    dirs = rng.unit_directions(6, 3, dtype=np.float64)
    base = float(sliced_wasserstein_discrepancy(p1, p2, dirs).data)
    for _ in range(5):
        perm1 = rng.permutation(4)
        perm2 = rng.permutation(4)
        v = float(sliced_wasserstein_discrepancy(p1[perm1], p2[perm2],
                                                 dirs).data)
        assert abs(v - base) < 1e-12


def test_swd_matches_exhaustive_assignment_oracle():
    rng = Rng(7)
    for batch in (1, 2, 3, 4):
        for _ in range(5):
            p1 = rng.standard_normal(batch, 3, dtype=np.float64)
            p2 = rng.standard_normal(batch, 3, dtype=np.float64)
            d = rng.unit_directions(1, 3, dtype=np.float64)
            got = float(sliced_wasserstein_discrepancy(p1, p2, d).data)
            want = swd_exhaustive_oracle(p1, p2, d[0])
            assert abs(got - want) < 1e-9


def test_swd_linear_in_direction_set():
    rng = Rng(8)
    p1 = rng.standard_normal(5, 4, dtype=np.float64)
    p2 = rng.standard_normal(5, 4, dtype=np.float64)
    dirs = rng.unit_directions(7, 4, dtype=np.float64)
    whole = float(sliced_wasserstein_discrepancy(p1, p2, dirs).data)
    singles = [float(sliced_wasserstein_discrepancy(p1, p2, d[None]).data)
               for d in dirs]
    assert abs(whole - np.mean(singles)) < 1e-12


def test_swd_input_validation():
    p = np.zeros((2, 3))
    with pytest.raises(ValueError):
        sliced_wasserstein_discrepancy(p, p, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        sliced_wasserstein_discrepancy(np.zeros((0, 3)), np.zeros((0, 3)),
                                       np.zeros((1, 3)))


# ---- Gaussian W2 ----------------------------------------------------------

def test_w2_identical_is_zero():
    g = rand_gauss(Rng(1), 3, 4)
    assert float(gaussian_w2(g, g).data) == 0.0


def test_w2_euclidean_case():
    gx = GaussianParams.from_arrays(np.array([[3.0, 4.0]]), np.ones((1, 2)))
    ga = GaussianParams.from_arrays(np.zeros((1, 2)), np.ones((1, 2)))
    assert abs(float(gaussian_w2(gx, ga).data) - 5.0) < 1e-9


def test_w2_variance_case():
    gx = GaussianParams.from_arrays(np.zeros((1, 1)), np.array([[4.0]]))
    ga = GaussianParams.from_arrays(np.zeros((1, 1)), np.array([[1.0]]))
    assert abs(float(gaussian_w2(gx, ga).data) - 1.0) < 1e-9


def test_w2_symmetry_and_triangle():
    rng = Rng(11)
    for _ in range(20):
        g1, g2, g3 = (rand_gauss(rng, 1, 3) for _ in range(3))
        d12 = float(gaussian_w2(g1, g2).data)
        d21 = float(gaussian_w2(g2, g1).data)
        d13 = float(gaussian_w2(g1, g3).data)
        d32 = float(gaussian_w2(g3, g2).data)
        assert abs(d12 - d21) < 1e-12
        assert d12 <= d13 + d32 + 1e-9


# ---- CORAL ----------------------------------------------------------------

def coral_direct_oracle(a, b):
    ca = np.cov(a, rowvar=False).reshape(a.shape[1], a.shape[1])
    cb = np.cov(b, rowvar=False).reshape(b.shape[1], b.shape[1])
    return np.sum((ca - cb) ** 2) / (4.0 * a.shape[1] ** 2)


def test_coral_identical_is_zero():
    x = Rng(0).standard_normal(5, 3, dtype=np.float64)
    assert float(coral(x, x).data) < 1e-15


def test_coral_d1_hand_case():
    src = np.array([[0.0], [2.0]])   # sample variance 2
    tgt = np.array([[0.0], [0.0]])   # variance 0
    assert abs(float(coral(src, tgt).data) - 1.0) < 1e-12


def test_coral_matches_covariance_oracle():
    rng = Rng(13)
    for _ in range(10):
        a = rng.standard_normal(7, 4, dtype=np.float64)
        b = rng.standard_normal(9, 4, dtype=np.float64)
        assert abs(float(coral(a, b).data) - coral_direct_oracle(a, b)) < 1e-10


def test_coral_symmetric_nonnegative():
    rng = Rng(14)
    a = rng.standard_normal(5, 3, dtype=np.float64)
    b = rng.standard_normal(6, 3, dtype=np.float64)
    assert float(coral(a, b).data) >= 0.0
    assert abs(float(coral(a, b).data) - float(coral(b, a).data)) < 1e-12


def test_coral_needs_two_rows():
    with pytest.raises(ValueError):
        coral(np.zeros((1, 3)), np.zeros((4, 3)))


def test_icoral_is_negated_coral():
    rng = Rng(15)
    a = rng.standard_normal(5, 3, dtype=np.float64)
    b = rng.standard_normal(6, 3, dtype=np.float64)
    assert float(icoral(a, b).data) == -float(coral(a, b).data)
    src = np.array([[0.0], [2.0]])
    tgt = np.array([[0.0], [0.0]])
    assert abs(float(icoral(src, tgt).data) + 1.0) < 1e-12
    x = rng.standard_normal(4, 2, dtype=np.float64)
    assert abs(float(icoral(x, x).data)) < 1e-15


# ---- differentiability ----------------------------------------------------

def test_every_loss_passes_finite_difference_check():
    rng = Rng(21)
    mu = Tensor(rng.standard_normal(4, 3, dtype=np.float64),
                requires_grad=True)
    logvar = Tensor(rng.standard_normal(4, 3, dtype=np.float64) * 0.3,
                    requires_grad=True)
    mu2 = Tensor(rng.standard_normal(4, 3, dtype=np.float64),
                 requires_grad=True)
    logvar2 = Tensor(rng.standard_normal(4, 3, dtype=np.float64) * 0.3,
                     requires_grad=True)
    a = Tensor(rng.standard_normal(5, 4, dtype=np.float64),
               requires_grad=True)
    b = Tensor(rng.standard_normal(5, 4, dtype=np.float64),
               requires_grad=True)
    labels = rng.integers(0, 4, size=5)
    dirs = rng.unit_directions(3, 4, dtype=np.float64)
    cases = {
        "kl": (lambda: kl_to_standard_normal(GaussianParams(mu, logvar)),
               [mu, logvar]),
        "l1": (lambda: l1_reconstruction(a, b), [a, b]),
        "ce": (lambda: softmax_cross_entropy(a, labels), [a]),
        "swd": (lambda: sliced_wasserstein_discrepancy(
            softmax(a), softmax(b), dirs), [a, b]),
        "w2": (lambda: gaussian_w2(GaussianParams(mu, logvar),
                                   GaussianParams(mu2, logvar2)),
               [mu, logvar, mu2, logvar2]),
        "coral": (lambda: coral(a, b), [a, b]),
        "icoral": (lambda: icoral(a, b), [a, b]),
    }
    for name, (fn, params) in cases.items():
        err = finite_difference_check(fn, params)
        assert err <= 1e-4, f"{name}: rel err {err}"
