import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from zsalign import evaluation
from zsalign import (Adam, Architecture, EvalCounts, Linear, Model, Rng,
                     SynthConfig, Tensor, czsl_eval, gzsl_eval, harmonic_mean,
                     per_class_top1, softmax_cross_entropy, synth_generate,
                     synthesize_latents, train_softmax_classifier)
from zsalign.evaluation import (CZSL_DEFAULT_COUNTS, ENCODE_ROWS,
                                GZSL_DEFAULT_COUNTS, LatentClassifier,
                                MetricsReport, encode_test_features)
from zsalign.tensor import NonFiniteError

SMALL_ARCH = dict(structure_dim=12, latent_dim=4, common_hidden=8,
                  dec_visual_hidden=8, dec_semantic_hidden=6)


def small_setup(seed=0):
    ds = synth_generate(SynthConfig(n_classes=6, n_seen=4,
                                    samples_per_class=20, visual_dim=16,
                                    attr_dim=8, proto_dim=4, seed=0))
    arch = Architecture(visual_dim=16, attr_dim=8, n_seen_classes=4,
                        **SMALL_ARCH)
    return ds, Model(arch, Rng(seed))


# ---- harmonic mean --------------------------------------------------------

def test_harmonic_mean_published_rows():
    # reference rows from a published GZSL table; the third entry was
    # rounded from unrounded accuracies, hence the slightly wider tolerance
    rows = [(59.3, 76.6, 66.8), (56.7, 79.8, 66.3),
            (52.7, 58.3, 55.3), (48.6, 39.0, 43.3)]
    for u, s, h in rows:
        assert abs(harmonic_mean(u, s) - h) <= 0.06


def test_harmonic_mean_edge_cases():
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(0.0, 80.0) == 0.0
    assert harmonic_mean(50.0, 50.0) == 50.0
    assert abs(harmonic_mean(30.0, 60.0) - 40.0) < 1e-12
    with pytest.raises(ValueError):
        harmonic_mean(-1.0, 50.0)


def test_harmonic_mean_at_most_min_times_two():
    rng = Rng(0)
    for _ in range(50):
        u, s = rng.uniform(0.0, 100.0, (2,), dtype=np.float64)
        h = harmonic_mean(u, s)
        assert min(u, s) <= h <= 2 * min(u, s) + 1e-9
        assert abs(h - harmonic_mean(s, u)) < 1e-12


# ---- latent synthesis -----------------------------------------------------

def test_synthesis_counts_czsl():
    ds, model = small_setup()
    z, y = synthesize_latents(model, ds, EvalCounts(unseen=200, seen=0),
                              Rng(0), "CZSL")
    # 2 unseen classes x 200 draws
    assert z.shape == (400, 4)
    assert sorted(np.unique(y)) == [4, 5]
    assert all(np.sum(y == c) == 200 for c in (4, 5))


def test_synthesis_counts_gzsl():
    ds, model = small_setup()
    z, y = synthesize_latents(model, ds, EvalCounts(unseen=400, seen=200),
                              Rng(0), "GZSL")
    # 4 seen x 200 + 2 unseen x 400
    assert z.shape == (4 * 200 + 2 * 400, 4)
    for c in (0, 1, 2, 3):
        assert np.sum(y == c) == 200
    for c in (4, 5):
        assert np.sum(y == c) == 400


def test_synthesis_default_counts():
    assert CZSL_DEFAULT_COUNTS.unseen == 200
    assert GZSL_DEFAULT_COUNTS.unseen == 400
    assert GZSL_DEFAULT_COUNTS.seen == 200


def test_synthesis_validation():
    ds, model = small_setup()
    with pytest.raises(ValueError):
        synthesize_latents(model, ds, EvalCounts(unseen=0), Rng(0), "CZSL")
    with pytest.raises(ValueError):
        synthesize_latents(model, ds, EvalCounts(unseen=5, seen=0), Rng(0),
                           "GZSL")
    with pytest.raises(ValueError):
        synthesize_latents(model, ds, EvalCounts(unseen=5), Rng(0), "both")


def test_synthesis_deterministic():
    ds, model = small_setup()
    z1, _ = synthesize_latents(model, ds, EvalCounts(unseen=10, seen=10),
                               Rng(3), "GZSL")
    z2, _ = synthesize_latents(model, ds, EvalCounts(unseen=10, seen=10),
                               Rng(3), "GZSL")
    assert np.array_equal(z1, z2)


def padded_forward(model, encode, rows):
    """Latent mean and standard deviation of `rows`, in one forward of
    `ENCODE_ROWS` rows padded with zeros: only the row count is fixed."""
    assert len(rows) <= ENCODE_ROWS
    pad = np.zeros((ENCODE_ROWS - len(rows), rows.shape[1]), rows.dtype)
    g = model.encode_common(encode(Tensor(np.concatenate([rows, pad]))))
    n = len(rows)
    return g.mu.data[:n], np.exp(0.5 * g.logvar.data[:n])


def per_draw_synthesis(model, ds, counts, rng):
    """GZSL synthesis that encodes every draw, one forward per seen class:
    the reference for `synthesize_latents`. Also returns the picks."""
    zs, ys, picks = [], [], []
    unseen = np.sort(ds.unseen_classes)
    mu_u, std_u = padded_forward(model, model.encode_semantic,
                                 ds.attributes[unseen])
    for i, c in enumerate(unseen):
        noise = rng.standard_normal(counts.unseen, mu_u.shape[1])
        zs.append(mu_u[i] + std_u[i] * noise)
        ys.append(np.full(counts.unseen, int(c), dtype=np.int64))
    train_labels = ds.labels[ds.train_idx].astype(np.int64)
    for c in np.sort(ds.seen_classes):
        pool = ds.train_idx[train_labels == int(c)]
        pick = pool[rng.integers(0, len(pool), size=counts.seen)]
        mu, std = padded_forward(model, model.encode_visual,
                                 ds.features[pick])
        noise = rng.standard_normal(counts.seen, mu.shape[1])
        zs.append(mu + std * noise)
        ys.append(np.full(counts.seen, int(c), dtype=np.int64))
        picks.append(pick)
    return (np.concatenate(zs).astype(np.float32), np.concatenate(ys),
            np.concatenate(picks))


def with_train_pools(ds, sizes):
    """`ds` with the training images of its i-th seen class cut to the first
    `sizes[i]`."""
    labels = ds.labels[ds.train_idx]
    keep = [ds.train_idx[labels == c][:k]
            for c, k in zip(np.sort(ds.seen_classes), sizes)]
    return dataclasses.replace(ds, train_idx=np.concatenate(keep))


@pytest.mark.parametrize("seen", [1, 3, 7, 40])
@pytest.mark.parametrize("sizes", [(16, 16, 16, 16), (1, 2, 3, 16),
                                   (1, 1, 1, 1)])
def test_gzsl_synthesis_bitwise_matches_per_draw_encoding(monkeypatch, seen,
                                                          sizes):
    # pools smaller and larger than counts.seen; each distinct pick is
    # encoded once, in forwards of exactly ENCODE_ROWS rows
    ds, model = small_setup()
    ds = with_train_pools(ds, sizes)
    counts = EvalCounts(unseen=9, seen=seen)
    want_z, want_y, picks = per_draw_synthesis(model, ds, counts, Rng(4))
    rows = []
    encode = Model.encode_visual

    def counted(self, x):
        rows.append(len(x.data))
        return encode(self, x)

    monkeypatch.setattr(Model, "encode_visual", counted)
    z, y = synthesize_latents(model, ds, counts, Rng(4), "GZSL")
    assert z.tobytes() == want_z.tobytes()
    assert y.tobytes() == want_y.tobytes()
    assert z.dtype == np.float32 and y.dtype == np.int64
    assert set(rows) == {ENCODE_ROWS}
    # as few forwards as the distinct picks need
    assert len(rows) == -(-len(np.unique(picks)) // ENCODE_ROWS)


def test_test_latents_do_not_depend_on_split_parts():
    # a sample's latent bits are the same whether its split is encoded whole
    # or in parts, of 1 row and of a few rows among them; an empty part
    # gives no latents
    ds = synth_generate(SynthConfig(seed=0))
    arch = Architecture(visual_dim=256, attr_dim=32, n_seen_classes=15,
                        structure_dim=128, latent_dim=64, common_hidden=64,
                        dec_visual_hidden=64, dec_semantic_hidden=32)
    model = Model(arch, Rng(0))
    feats = ds.features[ds.test_unseen_idx]
    whole = encode_test_features(model, feats, Rng(1), use_mean=True)
    cuts = [0, 0, 1, 8, 75, 140, len(feats)]
    parts = [encode_test_features(model, feats[a:b], Rng(1), use_mean=True)
             for a, b in zip(cuts, cuts[1:])]
    assert parts[0].shape == (0, 64)
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# ---- per-class accuracy ---------------------------------------------------

def constant_classifier(class_id, dim, all_ids):
    # always predicts `class_id`
    w = np.zeros((dim, len(all_ids)), dtype=np.float32)
    b = np.zeros((1, len(all_ids)), dtype=np.float32)
    b[0, list(all_ids).index(class_id)] = 10.0
    return LatentClassifier(w=w, b=b, class_ids=np.asarray(all_ids))


def use_classifier(monkeypatch, clf):
    """Make the evaluation protocols score `clf` in place of the classifier
    they train; the latents are still synthesized, so no stream moves."""
    monkeypatch.setattr(evaluation, "train_softmax_classifier",
                        lambda z, y, rng: clf)


def test_per_class_macro_not_micro(monkeypatch):
    ds, model = small_setup()
    # predicting class 4 constantly: 100% on class 4, 0% on class 5,
    # macro over unseen split = 50 regardless of per-class sample counts
    clf = constant_classifier(4, 4, [4, 5])
    table = per_class_top1(clf, model, ds, ds.test_unseen_idx, Rng(0))
    assert table[4] == 100.0
    assert table[5] == 0.0
    use_classifier(monkeypatch, clf)
    rep = czsl_eval(model, ds, rng=Rng(0))
    assert rep.acc == 50.0


def test_per_class_absent_class_omitted():
    ds, model = small_setup()
    clf = constant_classifier(0, 4, [0, 1, 2, 3])
    table = per_class_top1(clf, model, ds, ds.test_seen_idx, Rng(0))
    assert set(table) == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        per_class_top1(clf, model, ds, [], Rng(0))


def test_duplicating_samples_does_not_change_macro():
    ds, model = small_setup()
    clf = constant_classifier(4, 4, [4, 5])
    idx = np.asarray(ds.test_unseen_idx)
    # over-represent class 5 by tripling its samples
    extra = idx[ds.labels[idx] == 5]
    skewed = np.concatenate([idx, extra, extra])
    t1 = per_class_top1(clf, model, ds, idx, Rng(0), use_mean=True)
    t2 = per_class_top1(clf, model, ds, skewed, Rng(0), use_mean=True)
    assert t1 == t2


# ---- classifier training --------------------------------------------------

def test_softmax_classifier_fits_separable_blobs():
    rng = Rng(0)
    z0 = rng.standard_normal(100, 4) + np.array([5, 0, 0, 0],
                                                dtype=np.float32)
    z1 = rng.standard_normal(100, 4) + np.array([-5, 0, 0, 0],
                                                dtype=np.float32)
    z = np.concatenate([z0, z1]).astype(np.float32)
    y = np.array([7] * 100 + [9] * 100)
    clf = train_softmax_classifier(z, y, Rng(1))
    assert np.mean(clf.predict(z) == y) > 0.99
    assert sorted(clf.class_ids) == [7, 9]


def test_softmax_classifier_overflow_raises():
    # finite latents of 1e21 give finite gradients whose square overflows
    # the float32 Adam state
    z = np.full((8, 3), 1e21, dtype=np.float32)
    with pytest.raises(NonFiniteError, match="overflow"):
        train_softmax_classifier(z, np.arange(8) % 2, Rng(0))


def test_softmax_classifier_rejects_empty():
    with pytest.raises(ValueError):
        train_softmax_classifier(np.zeros((0, 4), dtype=np.float32),
                                 np.zeros(0), Rng(0))


def test_softmax_classifier_rejects_label_count_mismatch():
    z = np.zeros((5, 4), dtype=np.float32)
    for labels in (np.zeros(4), np.zeros(6), np.zeros((5, 1))):
        with pytest.raises(ValueError, match="one label per latent"):
            train_softmax_classifier(z, labels, Rng(0))


class TapeClassifierOracle:
    """The classifier trained through the autodiff tape, with the per-label
    dict remap: the reference for `train_softmax_classifier`."""

    def __init__(self, latents, labels, rng, epochs=30, lr=1e-3,
                 batch_size=128):
        self.class_ids = np.unique(labels)
        remap = {int(c): i for i, c in enumerate(self.class_ids)}
        y = np.asarray([remap[int(c)] for c in labels], dtype=np.int64)
        r_init, r_shuffle = rng.spawn(2)
        layer = Linear(latents.shape[1], len(self.class_ids), r_init)
        opt = Adam(layer.params(), lr=lr)
        n = len(latents)
        for _ in range(epochs):
            order = r_shuffle.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                loss = softmax_cross_entropy(layer(Tensor(latents[idx])),
                                             y[idx])
                loss.backward()
                opt.step()
        self.w, self.b = layer.w.data, layer.b.data


# n, classes, dtype, latent width
ORACLE_CASES = [
    (1000, 2, np.float32, 16),     # ragged last batch of 104 rows
    (1000, 50, np.float32, 16),
    (1000, 200, np.float32, 16),
    (257, 7, np.float32, 16),      # last batch of one row
    (90, 5, np.float32, 16),       # one batch, smaller than batch_size
    (300, 13, np.float64, 16),
    (1000, 200, np.float32, 64),   # paper geometry: GZSL over 200 classes
    (1000, 50, np.float32, 64),    # and CZSL over 50
]


@pytest.mark.parametrize(
    "n,classes,dtype,dim", ORACLE_CASES,
    ids=[f"{n}-{c}-{np.dtype(t).name}" + ("" if d == 16 else f"-dim{d}")
         for n, c, t, d in ORACLE_CASES])
def test_classifier_bitwise_matches_tape_oracle(n, classes, dtype, dim):
    # the classifier steps on one BLAS thread, the oracle at the session's
    # thread count
    rng = Rng(n + classes)
    ids = rng.permutation(10 * classes)[:classes] + 3
    labels = ids[rng.integers(0, classes, size=n)]
    centers = 3.0 * rng.standard_normal(10 * classes + 3, dim)
    latents = (centers[labels] + rng.standard_normal(n, dim)).astype(dtype)
    got = train_softmax_classifier(latents, labels, Rng(9), epochs=4)
    want = TapeClassifierOracle(latents, labels, Rng(9), epochs=4)
    assert got.w.dtype == want.w.dtype and got.b.dtype == want.b.dtype
    assert got.w.tobytes() == want.w.tobytes()
    assert got.b.tobytes() == want.b.tobytes()
    assert np.array_equal(got.class_ids, want.class_ids)


def _blas_threads(setter):
    """OpenBLAS's thread count, read through its setter and left as is."""
    count = setter(1)
    setter(count)
    return count


def test_classifier_steps_on_one_blas_thread(monkeypatch):
    setter = evaluation._openblas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS thread control found")
    counts = []
    real_check = evaluation.check_finite

    def spy(arr, name):
        counts.append(_blas_threads(setter))
        return real_check(arr, name)

    monkeypatch.setattr(evaluation, "check_finite", spy)
    rng = Rng(3)
    labels = rng.integers(0, 20, size=300)
    latents = rng.standard_normal(300, 8)
    session = setter(2)
    try:
        pinned = train_softmax_classifier(latents, labels, Rng(1), epochs=2)
        assert len(counts) == 6 and set(counts) == {1}
        assert _blas_threads(setter) == 2
        with pytest.raises(NonFiniteError, match="overflow"):
            train_softmax_classifier(np.full((8, 3), 1e21, dtype=np.float32),
                                     np.arange(8) % 2, Rng(0))
        assert _blas_threads(setter) == 2
        # without the control the steps run at the configured count, to
        # the same bytes
        counts.clear()
        monkeypatch.setattr(evaluation, "_openblas_thread_setter",
                            lambda: None)
        free = train_softmax_classifier(latents, labels, Rng(1), epochs=2)
        assert len(counts) == 6 and set(counts) == {2}
    finally:
        setter(session)
    assert free.w.tobytes() == pinned.w.tobytes()
    assert free.b.tobytes() == pinned.b.tobytes()


def _allocating_classifier(latents, labels, rng, epochs):
    """The classifier as it trained when each step formed its logits and
    four more arrays of their size: the memory reference below."""
    class_ids, y = np.unique(labels, return_inverse=True)
    r_init, r_shuffle = rng.spawn(2)
    w, b = Linear(latents.shape[1], len(class_ids), r_init).params()
    opt = Adam([w, b], lr=evaluation.CLASSIFIER_LR)
    n = len(latents)
    for _ in range(epochs):
        order = r_shuffle.permutation(n)
        for start in range(0, n, evaluation.CLASSIFIER_BATCH):
            idx = order[start:start + evaluation.CLASSIFIER_BATCH]
            x = latents[idx]
            logits = x @ w.data + b.data
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            g = e / e.sum(axis=1, keepdims=True)
            g[np.arange(len(idx)), y[idx]] -= 1.0
            g = g * (logits.dtype.type(1) / len(idx))
            w.grad[...] = x.T @ g
            b.grad[...] = g.sum(axis=0, keepdims=True)
            opt.step()
    return w.data.copy(), b.data.copy()


def _traced_peak(train, *args):
    """`tracemalloc` peak of `train(*args)`, after one small warm-up call
    that makes any one-time lookup."""
    latents, labels = args[:2]
    train(latents[:10], labels[:10], Rng(0), 1)
    tracemalloc.start()
    try:
        out = train(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_classifier_allocates_its_buffers_once():
    rng = Rng(5)
    labels = rng.integers(0, 200, size=1000)
    latents = rng.standard_normal(1000, 64) + 0.01 * labels[:, None]
    latents = latents.astype(np.float32)
    peak, got = _traced_peak(train_softmax_classifier, latents, labels,
                             Rng(1), 2)
    reference, (w, b) = _traced_peak(_allocating_classifier, latents, labels,
                                     Rng(1), 2)
    assert got.w.tobytes() == w.tobytes() and got.b.tobytes() == b.tobytes()
    # at least two logits-sized float32 arrays of a full batch fewer
    assert peak <= reference - 2 * evaluation.CLASSIFIER_BATCH * 200 * 4


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_classifier_non_finite_latent_fails_gradient_check():
    z = Rng(0).standard_normal(300, 4)
    z[137, 2] = np.inf
    with pytest.raises(ValueError, match="gradient"):
        train_softmax_classifier(z, np.arange(300) % 3, Rng(1), epochs=1)


# ---- end-to-end metric protocols ------------------------------------------

def test_injected_classifier_scored_exactly(monkeypatch):
    # oracle for the protocol itself: inject a fixed affine classifier,
    # recompute its macro accuracy independently on the same encodings,
    # and require the report to agree exactly
    ds, model = small_setup()
    idx = np.asarray(ds.test_unseen_idx)
    z = encode_test_features(model, ds.features[idx], Rng(5), use_mean=True)
    labels = ds.labels[idx].astype(np.int64)
    classes = np.unique(labels)
    means = np.stack([z[labels == c].mean(axis=0) for c in classes])
    # argmax of -|z - m|^2 = argmax of 2 z.m - |m|^2
    clf = LatentClassifier(w=(2 * means.T).astype(np.float32),
                           b=(-(means ** 2).sum(axis=1,
                                                keepdims=True).T).astype(
                               np.float32),
                           class_ids=classes)
    preds = clf.predict(z)
    want = np.mean([100.0 * np.mean(preds[labels == c] == c)
                    for c in classes])
    use_classifier(monkeypatch, clf)
    rep = czsl_eval(model, ds, rng=Rng(5), use_mean=True)
    assert abs(rep.acc - want) < 1e-9


def test_perfect_classifier_scores_100(monkeypatch):
    # a classifier that is right on every encoded test sample must score
    # exactly 100; build it on perfectly separated synthetic latents by
    # routing predictions through the true labels
    ds, model = small_setup()
    idx = np.asarray(ds.test_unseen_idx)
    z = encode_test_features(model, ds.features[idx], Rng(5), use_mean=True)
    labels = ds.labels[idx].astype(np.int64)

    class Oracle:
        def predict(self, q):
            # match rows bitwise back to their labels
            lookup = {z[i].tobytes(): labels[i] for i in range(len(z))}
            return np.asarray([lookup[row.tobytes()] for row in q])

    use_classifier(monkeypatch, Oracle())
    rep = czsl_eval(model, ds, rng=Rng(5), use_mean=True)
    assert rep.acc == 100.0


def test_untrained_model_near_chance():
    # an untrained model gives ~chance CZSL accuracy (2 unseen classes:
    # 50%), averaged over 5 seeds within +-10 points
    ds, _ = small_setup()
    accs = []
    for seed in range(5):
        _, model = small_setup(seed=seed + 10)
        accs.append(czsl_eval(model, ds, rng=Rng(seed)).acc)
    assert abs(np.mean(accs) - 50.0) <= 10.0


def test_gzsl_report_consistent():
    ds, model = small_setup()
    rep = gzsl_eval(model, ds, counts=EvalCounts(unseen=20, seen=20),
                    rng=Rng(0))
    assert rep.protocol == "GZSL"
    assert abs(rep.h - harmonic_mean(rep.u, rep.s)) < 1e-9
    assert set(rep.per_class) == {0, 1, 2, 3, 4, 5}
    assert rep.counts == {"unseen": 20, "seen": 20}


def test_eval_deterministic():
    ds, model = small_setup()
    a = czsl_eval(model, ds, rng=Rng(3))
    b = czsl_eval(model, ds, rng=Rng(3))
    assert a.to_json() == b.to_json()


# ---- report serialization -------------------------------------------------

def test_report_json_schema():
    rep = MetricsReport(protocol="GZSL", u=48.6, s=39.0,
                        h=harmonic_mean(48.6, 39.0),
                        per_class={3: 12.345, 1: 99.999}, seed=7,
                        counts={"unseen": 400, "seen": 200})
    doc = json.loads(rep.to_json())
    assert doc["protocol"] == "GZSL"
    assert doc["h"] == round(2 * 48.6 * 39.0 / (48.6 + 39.0), 2)
    assert doc["per_class"] == {"1": 100.0, "3": 12.35}
    assert doc["seed"] == 7
    # stable serialization: same report, same bytes
    assert rep.to_json() == rep.to_json()
