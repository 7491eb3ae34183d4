"""Latent-space classification protocol and CZSL/GZSL metrics.

A softmax classifier is trained on latents synthesized from unseen-class
attributes (plus, for GZSL, latents of real seen-class training features),
then evaluated on encoded test features with per-class top-1 accuracy.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .losses import softmax_cross_entropy
from .nn import Linear
from .optim import Adam
from .tensor import Tensor

@dataclass
class EvalCounts:
    unseen: int = 200   # synthesized latents per unseen class
    seen: int = 200     # encoded latents per seen class (GZSL only)


GZSL_DEFAULT_COUNTS = EvalCounts(unseen=400, seen=200)
CZSL_DEFAULT_COUNTS = EvalCounts(unseen=200, seen=0)


def _gaussian_of_attrs(model, attrs):
    g = model.encode_common(model.encode_semantic(Tensor(attrs)))
    return g.mu.data, np.exp(0.5 * g.logvar.data)


def _gaussian_of_features(model, feats):
    g = model.encode_common(model.encode_visual(Tensor(feats)))
    return g.mu.data, np.exp(0.5 * g.logvar.data)


def synthesize_latents(model, ds, counts, rng, mode):
    """Labeled latent training set for the downstream classifier.

    CZSL: `counts.unseen` reparameterized draws per unseen class from the
    attribute branch. GZSL: additionally `counts.seen` draws per seen class
    from training features sampled uniformly with replacement.
    """
    if mode not in ("CZSL", "GZSL"):
        raise ValueError(f"unknown mode '{mode}'")
    if counts.unseen < 1:
        raise ValueError("counts.unseen must be >= 1")
    if mode == "GZSL" and counts.seen < 1:
        raise ValueError("counts.seen must be >= 1 in GZSL mode")
    zs, ys = [], []
    unseen = np.sort(ds.unseen_classes)
    mu_u, std_u = _gaussian_of_attrs(model, ds.attributes[unseen])
    for i, c in enumerate(unseen):
        noise = rng.standard_normal(counts.unseen, mu_u.shape[1])
        zs.append(mu_u[i] + std_u[i] * noise)
        ys.append(np.full(counts.unseen, int(c), dtype=np.int64))
    if mode == "GZSL":
        train_labels = ds.labels[ds.train_idx].astype(np.int64)
        for c in np.sort(ds.seen_classes):
            pool = ds.train_idx[train_labels == int(c)]
            if len(pool) == 0:
                raise ValueError(f"seen class {int(c)} has no training images")
            pick = pool[rng.integers(0, len(pool), size=counts.seen)]
            mu, std = _gaussian_of_features(model, ds.features[pick])
            noise = rng.standard_normal(counts.seen, mu.shape[1])
            zs.append(mu + std * noise)
            ys.append(np.full(counts.seen, int(c), dtype=np.int64))
    return np.concatenate(zs).astype(np.float32), np.concatenate(ys)


@dataclass
class LatentClassifier:
    w: np.ndarray
    b: np.ndarray
    class_ids: np.ndarray  # column -> dataset class id

    def predict(self, z):
        logits = z @ self.w + self.b
        return self.class_ids[np.argmax(logits, axis=1)]


def train_softmax_classifier(latents, labels, rng, epochs=30, lr=1e-3,
                             batch_size=128):
    """Single affine layer + softmax, Adam on cross-entropy."""
    if len(latents) == 0:
        raise ValueError("empty latent training set")
    class_ids = np.unique(labels)
    remap = {int(c): i for i, c in enumerate(class_ids)}
    y = np.asarray([remap[int(c)] for c in labels], dtype=np.int64)
    r_init, r_shuffle = rng.spawn(2)
    layer = Linear(latents.shape[1], len(class_ids), r_init)
    opt = Adam(layer.params(), lr=lr)
    n = len(latents)
    for _ in range(epochs):
        order = r_shuffle.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, _ = softmax_cross_entropy(layer(Tensor(latents[idx])),
                                            y[idx])
            loss.backward()
            opt.step()
    return LatentClassifier(w=layer.w.data.copy(), b=layer.b.data.copy(),
                            class_ids=class_ids)


def encode_test_features(model, feats, rng, use_mean=False):
    """Latents for test features: one reparameterized sample each (or the
    mean when `use_mean`)."""
    mu, std = _gaussian_of_features(model, feats)
    if use_mean:
        return mu
    return mu + std * rng.standard_normal(*mu.shape)


def per_class_top1(classifier, model, ds, split_idx, rng, use_mean=False):
    """Macro-averaged accuracy table: class id -> percent. Classes with no
    samples in the split are absent, not zero."""
    split_idx = np.asarray(split_idx, dtype=np.int64)
    if len(split_idx) == 0:
        raise ValueError("empty evaluation split")
    z = encode_test_features(model, ds.features[split_idx], rng, use_mean)
    preds = classifier.predict(z)
    truth = ds.labels[split_idx].astype(np.int64)
    table = {}
    for c in np.unique(truth):
        mask = truth == c
        table[int(c)] = 100.0 * float(np.mean(preds[mask] == c))
    return table


def harmonic_mean(u, s):
    if u < 0 or s < 0:
        raise ValueError("accuracies must be non-negative")
    if u + s == 0:
        return 0.0
    return 2.0 * s * u / (s + u)


@dataclass
class MetricsReport:
    protocol: str
    acc: float = 0.0
    u: float = 0.0
    s: float = 0.0
    h: float = 0.0
    per_class: dict = field(default_factory=dict)
    seed: int = 0
    counts: dict = field(default_factory=dict)

    def to_json(self):
        doc = {
            "protocol": self.protocol,
            "acc": round(self.acc, 2),
            "u": round(self.u, 2),
            "s": round(self.s, 2),
            "h": round(self.h, 2),
            "per_class": {str(k): round(v, 2)
                          for k, v in sorted(self.per_class.items())},
            "seed": self.seed,
            "counts": self.counts,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _macro(table, classes):
    vals = [table[int(c)] for c in classes if int(c) in table]
    return float(np.mean(vals)) if vals else 0.0


def czsl_eval(model, ds, counts=None, rng=None, seed=0, use_mean=False,
              classifier=None):
    """Classifier over unseen classes only, evaluated on the unseen test
    split."""
    from .rng import Rng
    counts = counts or CZSL_DEFAULT_COUNTS
    rng = rng or Rng(seed)
    r_synth, r_train, r_test = rng.spawn(3)
    if classifier is None:
        z, y = synthesize_latents(model, ds, counts, r_synth, "CZSL")
        classifier = train_softmax_classifier(z, y, r_train)
    table = per_class_top1(classifier, model, ds, ds.test_unseen_idx, r_test,
                           use_mean)
    return MetricsReport(protocol="CZSL", acc=_macro(table, ds.unseen_classes),
                         per_class=table, seed=seed,
                         counts={"unseen": counts.unseen})


def gzsl_eval(model, ds, counts=None, rng=None, seed=0, use_mean=False,
              classifier=None):
    """Classifier over all classes, evaluated on both test splits."""
    from .rng import Rng
    counts = counts or GZSL_DEFAULT_COUNTS
    rng = rng or Rng(seed)
    r_synth, r_train, r_seen, r_unseen = rng.spawn(4)
    if classifier is None:
        z, y = synthesize_latents(model, ds, counts, r_synth, "GZSL")
        classifier = train_softmax_classifier(z, y, r_train)
    table_s = per_class_top1(classifier, model, ds, ds.test_seen_idx, r_seen,
                             use_mean)
    table_u = per_class_top1(classifier, model, ds, ds.test_unseen_idx,
                             r_unseen, use_mean)
    u = _macro(table_u, ds.unseen_classes)
    s = _macro(table_s, ds.seen_classes)
    return MetricsReport(protocol="GZSL", u=u, s=s, h=harmonic_mean(u, s),
                         per_class={**table_s, **table_u}, seed=seed,
                         counts={"unseen": counts.unseen, "seen": counts.seen})
