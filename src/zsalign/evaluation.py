"""Latent-space classification protocol and CZSL/GZSL metrics.

A softmax classifier is trained on latents synthesized from unseen-class
attributes (plus, for GZSL, latents of real seen-class training features),
then evaluated on encoded test features with per-class top-1 accuracy.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import softmax_cross_entropy_grad
# not called here; bench/tracing.py wraps it under this module's name
from .losses import softmax_cross_entropy  # noqa: F401
from .nn import Linear
from .optim import Adam
from .rng import Rng
from .tensor import Tensor, _one_blas_thread, check_fields, check_finite

@dataclass
class EvalCounts:
    unseen: int = 200   # synthesized latents per unseen class
    seen: int = 200     # encoded latents per seen class (GZSL only)


GZSL_DEFAULT_COUNTS = EvalCounts(unseen=400, seen=200)
CZSL_DEFAULT_COUNTS = EvalCounts(unseen=200, seen=0)
# Adam learning rate and mini-batch size of the latent classifier
CLASSIFIER_LR, CLASSIFIER_BATCH = 1e-3, 128


@dataclass
class EvalConfig:
    """The `eval` config section."""
    czsl_unseen: int = CZSL_DEFAULT_COUNTS.unseen
    gzsl_unseen: int = GZSL_DEFAULT_COUNTS.unseen
    gzsl_seen: int = GZSL_DEFAULT_COUNTS.seen
    use_mean: bool = False

    def validate(self):
        check_fields(self)


# rows per encoder forward: with OpenBLAS 0.3.31 (Haswell) any fixed count
# of 11 or more gave every row the bits a large forward gives it, and 64
# pads at most 63 rows per call
ENCODE_ROWS = 64


def _gaussians(model, encode, rows):
    """Latent mean and standard deviation of each of `rows`, encoded by
    `encode` (`model.encode_visual` or `model.encode_semantic`) and the
    common encoder, `ENCODE_ROWS` rows per forward with the last forward
    padded by repeating its last row: BLAS may pick its kernel, and so its
    rounding, by the row count, so a fixed count makes a row's bits
    independent of the rows that share its forward."""
    mu = np.empty((len(rows), model.arch.latent_dim), dtype=model.dtype)
    std = np.empty_like(mu)
    for i in range(0, len(rows), ENCODE_ROWS):
        block = rows[i:i + ENCODE_ROWS]
        n = len(block)
        block = np.concatenate(
            [block, np.repeat(block[-1:], ENCODE_ROWS - n, axis=0)])
        g = model.encode_common(encode(Tensor(block)))
        mu[i:i + n] = g.mu.data[:n]
        std[i:i + n] = np.exp(0.5 * g.logvar.data[:n])
    return mu, std


def synthesize_latents(model, ds, counts, rng, mode):
    """Labeled latent training set for the downstream classifier.

    CZSL: `counts.unseen` reparameterized draws per unseen class from the
    attribute branch. GZSL: additionally `counts.seen` draws per seen class
    from training features sampled uniformly with replacement. Each
    distinct sampled feature row is encoded once.
    """
    if mode not in ("CZSL", "GZSL"):
        raise ValueError(f"unknown mode '{mode}'")
    if counts.unseen < 1:
        raise ValueError("counts.unseen must be >= 1")
    if mode == "GZSL" and counts.seen < 1:
        raise ValueError("counts.seen must be >= 1 in GZSL mode")
    unseen = np.sort(ds.unseen_classes)
    seen = (np.sort(ds.seen_classes) if mode == "GZSL"
            else np.empty(0, dtype=np.int64))
    mu_u, std_u = _gaussians(model, model.encode_semantic,
                             ds.attributes[unseen])
    dim = mu_u.shape[1]
    n_unseen = len(unseen) * counts.unseen
    z = np.empty((n_unseen + len(seen) * counts.seen, dim), dtype=np.float32)
    y = np.concatenate([np.repeat(unseen, counts.unseen),
                        np.repeat(seen, counts.seen)]).astype(np.int64)
    z_unseen = z[:n_unseen].reshape(len(unseen), counts.unseen, dim)
    for i in range(len(unseen)):
        noise = rng.standard_normal(counts.unseen, dim)
        z_unseen[i] = mu_u[i] + std_u[i] * noise
    if mode == "CZSL":
        return z, y
    # one class at a time, its feature picks and then its noise, as the
    # stream has always been drawn; the noise waits in z for the encodings
    train_labels = ds.labels[ds.train_idx].astype(np.int64)
    z_seen = z[n_unseen:].reshape(len(seen), counts.seen, dim)
    picks = np.empty((len(seen), counts.seen), dtype=np.int64)
    for j, c in enumerate(seen):
        pool = ds.train_idx[train_labels == int(c)]
        if len(pool) == 0:
            raise ValueError(f"seen class {int(c)} has no training images")
        picks[j] = pool[rng.integers(0, len(pool), size=counts.seen)]
        z_seen[j] = rng.standard_normal(counts.seen, dim)
    rows, inv = np.unique(picks, return_inverse=True)
    mu, std = _gaussians(model, model.encode_visual, ds.features[rows])
    for j, at in enumerate(inv.reshape(picks.shape)):
        z_seen[j] = mu[at] + std[at] * z_seen[j]
    return z, y


@dataclass
class LatentClassifier:
    w: np.ndarray
    b: np.ndarray
    class_ids: np.ndarray  # column -> dataset class id

    def predict(self, z):
        logits = z @ self.w + self.b
        return self.class_ids[np.argmax(logits, axis=1)]


def train_softmax_classifier(latents, labels, rng, epochs=30):
    """Single affine layer + softmax, Adam on the mean cross-entropy.

    Each step forms the gradients of `w` and `b` directly, with the
    operations, in the order, that the tape's backward pass would use, and
    writes them into the optimizer's gradient array; the loss value itself
    is never needed. A step works in three buffers allocated once (the
    batch rows, the logits, one value per row) and in the gradient slots.

    The products run on one OpenBLAS thread whatever the configured count:
    they are too small for a second thread to pay (README "Performance"),
    and their inner widths (the latent width and the batch size) keep
    their bits at any count (README "Determinism"). Where no OpenBLAS
    control is found they run at the configured count.
    """
    if len(latents) == 0:
        raise ValueError("empty latent training set")
    labels = np.asarray(labels)
    if labels.shape != (len(latents),):
        raise ValueError(f"need one label per latent: labels of shape "
                         f"{labels.shape} for {len(latents)} latents")
    class_ids, y = np.unique(labels, return_inverse=True)
    r_init, r_shuffle = rng.spawn(2)
    layer = Linear(latents.shape[1], len(class_ids), r_init)
    w, b = layer.params()
    opt = Adam([w, b], lr=CLASSIFIER_LR)
    n = len(latents)
    rows = min(n, CLASSIFIER_BATCH)
    x_buf = np.empty((rows, latents.shape[1]), dtype=latents.dtype)
    dtype = np.result_type(latents.dtype, w.dtype)
    logits_buf = np.empty((rows, len(class_ids)), dtype=dtype)
    col_buf = np.empty((rows, 1), dtype=dtype)
    # backward starts from a loss gradient of 1 in the logits dtype
    one = dtype.type(1)
    with _one_blas_thread():
        for _ in range(epochs):
            order = r_shuffle.permutation(n)
            for start in range(0, n, CLASSIFIER_BATCH):
                idx = order[start:start + CLASSIFIER_BATCH]
                m = len(idx)
                x, logits, col = x_buf[:m], logits_buf[:m], col_buf[:m]
                # `idx` comes from a permutation, so "clip" never clips;
                # "raise" would write through a temporary copy of `x`
                np.take(latents, idx, axis=0, out=x, mode="clip")
                np.matmul(x, w.data, out=logits)
                logits += b.data
                np.max(logits, axis=1, keepdims=True, out=col)
                logits -= col
                np.exp(logits, out=logits)
                g = softmax_cross_entropy_grad(logits, y[idx], one)
                np.matmul(x.T, g, out=w.grad)
                np.sum(g, axis=0, keepdims=True, out=b.grad)
                check_finite(opt.grad, "gradient")
                opt.step()
    return LatentClassifier(w=w.data.copy(), b=b.data.copy(),
                            class_ids=class_ids)


def encode_test_features(model, feats, rng, use_mean=False):
    """Latents for test features: one reparameterized sample each (or the
    mean when `use_mean`)."""
    mu, std = _gaussians(model, model.encode_visual, feats)
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
        doc = asdict(self)
        for key in ("acc", "u", "s", "h"):
            doc[key] = round(doc[key], 2)
        doc["per_class"] = {str(k): round(v, 2)
                            for k, v in self.per_class.items()}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _macro(table, classes):
    vals = [table[int(c)] for c in classes if int(c) in table]
    return float(np.mean(vals)) if vals else 0.0


# the test splits each protocol scores, in the order of their streams
TEST_SPLITS = {"CZSL": ("test_unseen_idx",),
               "GZSL": ("test_seen_idx", "test_unseen_idx")}


def _score(mode, model, ds, counts, rng, use_mean):
    """One per-class accuracy table per split in `TEST_SPLITS[mode]`, of a
    classifier trained on latents synthesized for `mode`, every product
    at one OpenBLAS thread (`tensor._one_blas_thread`)."""
    r_synth, r_train, *r_tests = rng.spawn(2 + len(TEST_SPLITS[mode]))
    with _one_blas_thread():
        z, y = synthesize_latents(model, ds, counts, r_synth, mode)
        classifier = train_softmax_classifier(z, y, r_train)
        return [per_class_top1(classifier, model, ds, getattr(ds, split), r,
                               use_mean)
                for split, r in zip(TEST_SPLITS[mode], r_tests)]


def czsl_eval(model, ds, counts=None, rng=None, seed=0, use_mean=False):
    """Classifier over unseen classes only, evaluated on the unseen test
    split."""
    counts = counts or CZSL_DEFAULT_COUNTS
    (table,) = _score("CZSL", model, ds, counts, rng or Rng(seed), use_mean)
    return MetricsReport(protocol="CZSL", acc=_macro(table, ds.unseen_classes),
                         per_class=table, seed=seed,
                         counts={"unseen": counts.unseen})


def gzsl_eval(model, ds, counts=None, rng=None, seed=0, use_mean=False):
    """Classifier over all classes, evaluated on both test splits."""
    counts = counts or GZSL_DEFAULT_COUNTS
    table_s, table_u = _score("GZSL", model, ds, counts, rng or Rng(seed),
                              use_mean)
    u = _macro(table_u, ds.unseen_classes)
    s = _macro(table_s, ds.seen_classes)
    return MetricsReport(protocol="GZSL", u=u, s=s, h=harmonic_mean(u, s),
                         per_class={**table_s, **table_u}, seed=seed,
                         counts={"unseen": counts.unseen, "seen": counts.seen})
