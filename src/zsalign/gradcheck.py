"""Finite-difference validation of every loss term on small random nets.

The terms are built by the same functions the training steps build them
with (`training.joint_terms` and `training.discrepancy`), so the suite
checks the graph that trains rather than a copy of it.
"""

import numpy as np

from .data import Batch
from .model import Architecture, Model
from .rng import Rng
from .tensor import Tensor, finite_difference_check
from .training import discrepancy, joint_terms

REL_TOL = 1e-4
N_DIRECTIONS = 4

TERM_NAMES = ("vae_x", "vae_a", "rec_x", "rec_a", "cls", "dis1", "dis2",
              "da", "icoral")


def _small_setup(seed):
    r_model, r_data = Rng(seed).spawn(2)
    arch = Architecture(visual_dim=7, attr_dim=5, n_seen_classes=3,
                        structure_dim=6, latent_dim=4, common_hidden=5,
                        dec_visual_hidden=5, dec_semantic_hidden=5)
    model = Model(arch, r_model, dtype=np.float64)
    n = 6
    batch = Batch(
        x=r_data.standard_normal(n, arch.visual_dim, dtype=np.float64),
        a=r_data.standard_normal(n, arch.attr_dim, dtype=np.float64),
        y=r_data.integers(0, arch.n_seen_classes, size=n),
        unseen_attrs=r_data.standard_normal(4, arch.attr_dim,
                                            dtype=np.float64))
    return model, batch


def loss_terms(model, batch, seed):
    """Each loss term as a zero-argument closure that re-runs the whole
    forward pass. Every call draws its noise and directions from a freshly
    seeded `Rng(seed)`, so repeated calls are deterministic."""

    def joint(name):
        return lambda: joint_terms(model, batch, 1.0, Rng(seed))[name]

    def dis2():
        sx = model.encode_visual(Tensor(batch.x))
        sa = model.encode_semantic(Tensor(batch.a))
        dirs = Rng(seed).unit_directions(
            N_DIRECTIONS, model.arch.n_seen_classes, dtype=np.float64)
        return discrepancy(model, sx, sa, dirs)

    terms = {name: joint(name) for name in TERM_NAMES
             if name not in ("dis1", "dis2")}
    # the classifier step maximizes the discrepancy, the encoder step
    # minimizes it
    return dict(terms, dis1=lambda: -dis2(), dis2=dis2)


def run_gradcheck(seed=0):
    """FD-check all nine loss terms. Returns [(name, rel_err, passed)]."""
    model, batch = _small_setup(seed)
    terms = loss_terms(model, batch, seed)
    params = model.all_params()
    results = []
    for name in TERM_NAMES:
        err = finite_difference_check(terms[name], params)
        results.append((name, err, err <= REL_TOL))
    return results
