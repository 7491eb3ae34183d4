import hashlib
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zsalign import (Architecture, Model, Rng, SynthConfig, TrainSchedule,
                     ZslDataset, batch_iter, check_finite, fit, load_dataset,
                     minmax_features, save_dataset, synth_generate)
from zsalign.data import (_MAPS, INDEX_FIELDS, MAX_UNSEEN_ATTRS_PER_BATCH,
                          _mapped, _row_blocks)
from zsalign.rng import _BLOCK


def small_cfg(**kw):
    base = dict(n_classes=6, n_seen=4, samples_per_class=20, visual_dim=16,
                attr_dim=8, proto_dim=4, seed=0)
    base.update(kw)
    return SynthConfig(**base)


# ---- synthetic generator --------------------------------------------------

def test_synth_shapes_and_splits():
    cfg = small_cfg()
    ds = synth_generate(cfg)
    assert ds.features.shape == (120, 16)
    assert ds.attributes.shape == (6, 8)
    assert ds.labels.shape == (120,)
    assert list(ds.seen_classes) == [0, 1, 2, 3]
    assert list(ds.unseen_classes) == [4, 5]
    # 80/20 per seen class, unseen entirely in test
    assert len(ds.train_idx) == 4 * 16
    assert len(ds.test_seen_idx) == 4 * 4
    assert len(ds.test_unseen_idx) == 2 * 20
    ds.validate()


def test_synth_deterministic_and_seed_sensitive():
    a = synth_generate(small_cfg(seed=3))
    b = synth_generate(small_cfg(seed=3))
    c = synth_generate(small_cfg(seed=4))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.attributes, b.attributes)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert not np.array_equal(a.features, c.features)


def test_synth_attribute_vectors_distinct():
    ds = synth_generate(small_cfg())
    for i in range(ds.n_classes):
        for j in range(i + 1, ds.n_classes):
            assert not np.allclose(ds.attributes[i], ds.attributes[j])


def test_synth_nearest_class_mean_recovers_labels():
    # classes must be learnable: nearest-train-class-mean on raw features
    # should beat 90% on the held-out seen split
    ds = synth_generate(small_cfg(samples_per_class=50))
    means = np.stack([
        ds.features[ds.train_idx][ds.labels[ds.train_idx] == c].mean(axis=0)
        for c in ds.seen_classes])
    test_x = ds.features[ds.test_seen_idx]
    pred = np.argmin(
        ((test_x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    truth = ds.labels[ds.test_seen_idx]
    acc = np.mean(ds.seen_classes[pred] == truth)
    assert acc > 0.9


def test_synth_config_validation():
    with pytest.raises(ValueError):
        small_cfg(n_seen=6).validate()
    with pytest.raises(ValueError):
        small_cfg(train_fraction=1.0).validate()
    with pytest.raises(ValueError):
        small_cfg(proto_dim=0).validate()
    for name, value in (("sample_noise", float("nan")), ("sample_noise", -0.5),
                        ("attr_noise", -3.0), ("attr_noise", float("inf"))):
        with pytest.raises(ValueError, match=f"'{name}' must be finite"):
            small_cfg(**{name: value}).validate()
    small_cfg(sample_noise=0.0, attr_noise=0.0).validate()  # no noise at all


# ---- on-disk round trip ---------------------------------------------------

def test_save_load_round_trip_bitwise(tmp_path):
    ds = synth_generate(small_cfg())
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.features, ds.features)
    assert back.features.dtype == np.float32
    assert np.array_equal(back.attributes, ds.attributes)
    assert np.array_equal(back.labels, ds.labels)
    assert back.labels.dtype == np.uint32
    for name in ("seen_classes", "unseen_classes", "train_idx",
                 "test_seen_idx", "test_unseen_idx"):
        assert np.array_equal(getattr(back, name), getattr(ds, name))


# sha256 of the files `save_dataset` writes, in the order below: the
# benchmark's bench-scale and CUB-like inputs at seed 1, and every map on
# each side
SYNTH_BYTES = {
    "bench": (dict(sample_noise=0.5, proto_dim=8, seed=1),
              "880a7269c2109cdfd1a201a85739eec7"
              "da0cddf52d551ba54ece3c4bdecd431c"),
    "cub_like": (dict(n_classes=200, n_seen=150, samples_per_class=4,
                      visual_dim=2048, attr_dim=312, train_fraction=0.5,
                      seed=1),
                 "0711124bcdbe2290ced4bad483a8da62"
                 "e4cd5d4e6eef34ba297fba90db706268"),
    "identity_tanh": (dict(visual_map="identity", attr_map="tanh",
                           attr_noise=0.1, seed=2),
                      "fe91566b49ee480227af093a57005524"
                      "45bab27e91e81101f664eba6aa85bbe1"),
    "softplus_identity": (dict(visual_map="softplus", attr_map="identity",
                               seed=3),
                          "fd778c7614577062da787c041ec3fe0a"
                          "0bb09e35270510d7458af5b9d76d02bd"),
    # views whose last row block would hold one row (65 = 2 x 32 + 1
    # features, 13 = 3 x 4 + 1 attribute rows), and views in blocks of
    # two rows; pinned from the one-array synthesis
    "tail_one_row": (dict(n_classes=13, n_seen=10, samples_per_class=5,
                          visual_dim=2048, attr_dim=16000, seed=4),
                     "7d4b78faa1161c1cd14653c4b7922451"
                     "8c62cbf3909f9a7f844488ab6a118951"),
    "two_row_blocks": (dict(n_classes=3, n_seen=2, samples_per_class=3,
                            visual_dim=40000, attr_dim=40000,
                            visual_map="softplus", attr_map="tanh",
                            attr_noise=0.2, seed=5),
                       "a3e267ada91ded77bc56a11f3f0ad726"
                       "a27c133ce9931b891d07a9dc457560eb"),
}


@pytest.mark.parametrize("case", sorted(SYNTH_BYTES))
def test_synth_bytes_pinned(tmp_path, case):
    fields, digest = SYNTH_BYTES[case]
    save_dataset(synth_generate(SynthConfig(**fields)), tmp_path)
    h = hashlib.sha256()
    for name in ("meta.json", "features.bin", "attributes.bin",
                 "labels.bin"):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("n, width", [
    (1, 2048), (2, 2048), (32, 2048), (33, 2048), (65, 2048), (800, 2048),
    (257, 256), (2, 40000), (9, 40000)])
def test_row_blocks_give_the_whole_product(n, width):
    blocks = list(_row_blocks(n, width))
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = [stop - start for start, stop in blocks]
    assert min(sizes) >= min(n, 2)     # a one-row product takes gemv
    assert max(sizes) <= max(2, _BLOCK // width) + 1
    rng = np.random.default_rng(n)
    latents = rng.standard_normal((n, 16))
    w = rng.standard_normal((16, width)) / 4.0
    b = rng.standard_normal((1, width)) * 0.1
    whole = latents @ w
    assert np.array_equal(
        np.concatenate([latents[a:z] @ w for a, z in blocks]), whole)
    whole += b
    for name, f in _MAPS.items():
        want = f(whole.copy()).astype(np.float32)
        assert _mapped(latents, w, b, name).tobytes() == want.tobytes()


def test_synth_generate_holds_no_float64_view():
    cfg = SynthConfig(**SYNTH_BYTES["cub_like"][0])
    tracemalloc.start()
    try:
        synth_generate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 visual view is 13.1 MB; the float32 features are 6.6 MB
    assert peak < cfg.n_classes * cfg.samples_per_class * cfg.visual_dim * 8


def test_load_missing_file(tmp_path):
    ds = synth_generate(small_cfg())
    save_dataset(ds, tmp_path / "ds")
    (tmp_path / "ds" / "labels.bin").unlink()
    with pytest.raises(FileNotFoundError, match="labels.bin"):
        load_dataset(tmp_path / "ds")


def test_load_corrupt_meta(tmp_path):
    ds = synth_generate(small_cfg())
    save_dataset(ds, tmp_path / "ds")
    (tmp_path / "ds" / "meta.json").write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_dataset(tmp_path / "ds")


def test_load_detects_mutations(tmp_path):
    ds = synth_generate(small_cfg())
    root = tmp_path / "ds"
    save_dataset(ds, root)
    meta_path = root / "meta.json"
    original = meta_path.read_text()

    def mutate(fn, match):
        meta = json.loads(original)
        fn(meta)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=match):
            load_dataset(root)
        meta_path.write_text(original)

    mutate(lambda m: m.pop("train_idx"), "missing field 'train_idx'")
    mutate(lambda m: m.update(format_version=99), "format_version")
    mutate(lambda m: m.update(n_samples=m["n_samples"] + 1),
           "features.bin holds")
    mutate(lambda m: m["seen_classes"].append(m["unseen_classes"][0]),
           "overlap")
    mutate(lambda m: m["unseen_classes"].append(99), "out of range")
    mutate(lambda m: m["train_idx"].append(m["test_seen_idx"][0]),
           "train/test split overlap")
    # training sample from an unseen class
    def unseen_into_train(m):
        m["train_idx"].append(m["test_unseen_idx"].pop(0))
    mutate(unseen_into_train, "outside its allowed set")
    # a repeated entry in a class set or a split
    mutate(lambda m: m["seen_classes"].append(m["seen_classes"][0]),
           r"seen_classes\[4\] = 0 repeats an earlier entry")
    mutate(lambda m: m["train_idx"].append(m["train_idx"][0]),
           r"train_idx\[64\] = \d+ repeats an earlier entry")
    # meta values that are no JSON integer are not coerced
    mutate(lambda m: m["train_idx"].__setitem__(0, 0.5),
           "field 'train_idx' must be JSON integers")
    mutate(lambda m: m["seen_classes"].__setitem__(1, True),
           "field 'seen_classes' must be JSON integers")
    mutate(lambda m: m.update(n_samples=float(m["n_samples"])),
           "field 'n_samples' must be JSON integers")
    # a root that is no JSON object, a format_version that is no JSON 1
    for root_value in ([1], "meta", 1):
        meta_path.write_text(json.dumps(root_value))
        with pytest.raises(ValueError, match="root must be a JSON object"):
            load_dataset(root)
    meta_path.write_text(original)
    mutate(lambda m: m.update(format_version=True), "format_version")
    mutate(lambda m: m.update(format_version=1.0), "format_version")
    # integers beyond int64, of either sign
    mutate(lambda m: m["train_idx"].__setitem__(0, 2**70),
           "field 'train_idx' must be JSON integers in int64")
    mutate(lambda m: m["train_idx"].__setitem__(0, -2**70),
           "field 'train_idx' must be JSON integers in int64")
    mutate(lambda m: m.update(visual_dim=2**63),
           "field 'visual_dim' must be JSON integers in int64")

    # shortened binary payload
    blob = (root / "features.bin").read_bytes()
    (root / "features.bin").write_bytes(blob[:-4])
    with pytest.raises(ValueError, match="features.bin holds"):
        load_dataset(root)


def test_validate_rejects_nonfinite():
    ds = synth_generate(small_cfg())
    ds.features[0, 0] = np.nan
    with pytest.raises(ValueError, match="features"):
        ds.validate()


def test_validate_rejects_label_out_of_range():
    ds = synth_generate(small_cfg())
    ds.labels = ds.labels.copy()
    ds.labels[3] = 77
    with pytest.raises(ValueError, match="labels\\[3\\]"):
        ds.validate()


def test_load_accepts_empty_index_list(tmp_path):
    ds = synth_generate(small_cfg())
    ds.test_seen_idx = ds.test_seen_idx[:0]
    save_dataset(ds, tmp_path / "ds")
    assert load_dataset(tmp_path / "ds").test_seen_idx.shape == (0,)


# ---- whole-array validation against the per-element loops it replaced -----

def loop_validate(ds):
    """The per-element `ZslDataset.validate` that the whole-array rules
    replaced, kept with `self` as `ds` as the reference. It has no repeat
    check."""
    if ds.features.shape[0] != ds.labels.shape[0]:
        raise ValueError("features and labels disagree on sample count")
    check_finite(ds.features, "features")
    check_finite(ds.attributes, "attributes")
    seen = set(int(c) for c in ds.seen_classes)
    unseen = set(int(c) for c in ds.unseen_classes)
    if seen & unseen:
        raise ValueError(
            f"seen/unseen classes overlap: {sorted(seen & unseen)}")
    for name, arr in (("seen_classes", ds.seen_classes),
                      ("unseen_classes", ds.unseen_classes)):
        for c in arr:
            if not 0 <= int(c) < ds.n_classes:
                raise ValueError(f"{name} entry {int(c)} out of range "
                                 f"[0, {ds.n_classes})")
    for i, y in enumerate(ds.labels):
        if not 0 <= int(y) < ds.n_classes:
            raise ValueError(
                f"labels[{i}] = {int(y)} out of range [0, {ds.n_classes})")
    referenced = set(int(y) for y in ds.labels)
    if not referenced <= (seen | unseen):
        raise ValueError("labels reference classes outside seen+unseen: "
                         f"{sorted(referenced - seen - unseen)}")
    for name, idx in (("train_idx", ds.train_idx),
                      ("test_seen_idx", ds.test_seen_idx),
                      ("test_unseen_idx", ds.test_unseen_idx)):
        for i in idx:
            if not 0 <= int(i) < ds.n_samples:
                raise ValueError(
                    f"{name} entry {int(i)} out of range [0, {ds.n_samples})")
    train = set(int(i) for i in ds.train_idx)
    test = set(int(i) for i in ds.test_seen_idx) | \
        set(int(i) for i in ds.test_unseen_idx)
    if train & test:
        raise ValueError(
            f"train/test split overlap at samples {sorted(train & test)[:5]}")
    for name, idx, allowed in (
            ("train_idx", ds.train_idx, seen),
            ("test_seen_idx", ds.test_seen_idx, seen),
            ("test_unseen_idx", ds.test_unseen_idx, unseen)):
        for i in idx:
            if int(ds.labels[int(i)]) not in allowed:
                raise ValueError(
                    f"{name} sample {int(i)} has class "
                    f"{int(ds.labels[int(i)])} outside its allowed set")


def first_failure(check, ds):
    """(field, rule) of the invariant `check(ds)` rejects, or None."""
    try:
        check(ds)
    except ValueError as e:
        msg = str(e)
        rule = next(r for r in ("out of range", "overlap", "outside",
                                "repeats") if r in msg)
        return re.match(r"[\w/]+", msg).group(0), rule
    return None


INT_ARRAYS = ("labels",) + INDEX_FIELDS


def fuzz_base():
    """A valid dataset with one spare class that no set holds and no sample
    has, so that a mutation can also reference a class outside both sets,
    and with int64 labels, so that a label can be set to -1."""
    ds = synth_generate(small_cfg())
    return replace(ds, attributes=np.vstack([ds.attributes,
                                             ds.attributes[:1] + 1.0]),
                   labels=ds.labels.astype(np.int64))


def mutate_one(ds, rng):
    """`ds` with one entry of one integer array set to -1, to the array's
    bound n, to a value from another class set or split of the same kind
    (for classes, the spare class too), or to a value from the same array."""
    name = INT_ARRAYS[rng.integers(len(INT_ARRAYS))]
    arr = getattr(ds, name).copy()
    if name.endswith("idx"):
        n, kin, spare = ds.n_samples, INDEX_FIELDS[2:], []
    else:
        n, kin = ds.n_classes, ("labels", "seen_classes", "unseen_classes")
        spare = [np.array([ds.n_classes - 1])]
    pick = rng.integers(4)
    if pick == 0:
        value = -1
    elif pick == 1:
        value = n
    else:
        pools = ([getattr(ds, k) for k in kin if k != name] + spare
                 if pick == 2 else [arr])
        pool = pools[rng.integers(len(pools))]
        value = pool[rng.integers(len(pool))]
    arr[rng.integers(len(arr))] = value
    return replace(ds, **{name: arr})


@pytest.mark.parametrize("n_faults", [1, 2])
def test_validate_matches_loop_oracle_on_mutations(n_faults):
    base = fuzz_base()
    base.validate()
    loop_validate(base)
    rng = np.random.default_rng(n_faults)
    fired, repeats_loop_accepts = set(), 0
    for case in range(400):
        ds = base
        for _ in range(n_faults):
            ds = mutate_one(ds, rng)
        repeated = [k for k in INDEX_FIELDS
                    if len(np.unique(getattr(ds, k))) < len(getattr(ds, k))]
        old, new = first_failure(loop_validate, ds), first_failure(
            ZslDataset.validate, ds)
        # the loop version has no repeat check; it may still reject a repeat
        # through another check (a repeated seen class drops another class)
        if repeated:
            assert new == (repeated[0], "repeats"), (case, old, new)
            repeats_loop_accepts += old is None
        else:
            assert new == old, (case, old, new)
            fired.add(old)
    # every check of the loop version fired on some mutation
    assert fired >= {
        None, ("seen/unseen", "overlap"), ("seen_classes", "out of range"),
        ("unseen_classes", "out of range"), ("labels", "out of range"),
        ("labels", "outside"), ("train_idx", "out of range"),
        ("test_seen_idx", "out of range"), ("test_unseen_idx", "out of range"),
        ("train/test", "overlap"), ("train_idx", "outside"),
        ("test_seen_idx", "outside"), ("test_unseen_idx", "outside")}
    assert repeats_loop_accepts > 0


def test_minmax_scaling():
    ds = synth_generate(small_cfg())
    scaled = minmax_features(ds)
    assert np.all(scaled.features >= 0.0)
    assert np.all(scaled.features <= 1.0)
    assert np.allclose(scaled.features.min(axis=0), 0.0)
    assert np.allclose(scaled.features.max(axis=0), 1.0)
    # attributes and splits untouched
    assert np.array_equal(scaled.attributes, ds.attributes)
    assert np.array_equal(scaled.train_idx, ds.train_idx)
    scaled.validate()


def test_minmax_bytes_match_out_of_place_formula():
    ds = synth_generate(small_cfg())
    ds.features[:, 3] = 0.25                    # a constant dimension
    before = ds.features.copy()
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    want = ((ds.features - lo) / span).astype(np.float32)
    got = minmax_features(ds).features
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    assert not got[:, 3].any()
    assert ds.features.tobytes() == before.tobytes()


# ---- batching -------------------------------------------------------------

def test_batches_partition_training_split():
    ds = synth_generate(small_cfg())
    seen_x = ds.features[ds.train_idx]
    count = 0
    rows = []
    for batch in batch_iter(ds, 7, Rng(0)):
        assert batch.x.shape[0] == batch.a.shape[0] == batch.y.shape[0]
        assert batch.x.shape[0] <= 7
        count += batch.x.shape[0]
        rows.append(batch.x)
    assert count == len(ds.train_idx)
    got = np.concatenate(rows)
    assert np.array_equal(np.sort(got.sum(axis=1)),
                          np.sort(seen_x.sum(axis=1)))


def test_batch_rows_pair_feature_label_attribute():
    ds = synth_generate(small_cfg())
    seen_sorted = np.sort(ds.seen_classes)
    feat_to_label = {ds.features[i].tobytes(): int(ds.labels[i])
                     for i in ds.train_idx}
    for batch in batch_iter(ds, 8, Rng(1)):
        for r in range(batch.x.shape[0]):
            c = int(seen_sorted[batch.y[r]])
            assert feat_to_label[batch.x[r].tobytes()] == c
            assert np.array_equal(batch.a[r], ds.attributes[c])
        assert np.array_equal(batch.unseen_attrs,
                              ds.attributes[np.sort(ds.unseen_classes)])


def test_batch_labels_contiguous():
    ds = synth_generate(small_cfg())
    for batch in batch_iter(ds, 16, Rng(2)):
        assert batch.y.dtype == np.int64
        assert batch.y.min() >= 0
        assert batch.y.max() < len(ds.seen_classes)


def test_batch_shuffle_deterministic_per_seed():
    ds = synth_generate(small_cfg())
    a = [b.x.copy() for b in batch_iter(ds, 9, Rng(5))]
    b = [b.x.copy() for b in batch_iter(ds, 9, Rng(5))]
    c = [b.x.copy() for b in batch_iter(ds, 9, Rng(6))]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_batch_iter_validation():
    ds = synth_generate(small_cfg())
    with pytest.raises(ValueError):
        next(batch_iter(ds, 0, Rng(0)))


def test_unseen_attr_block_capped():
    # SUN's split, 72 unseen classes: each batch carries the attributes of
    # MAX_UNSEEN_ATTRS_PER_BATCH (64) of them
    cfg = small_cfg(n_classes=82, n_seen=10, samples_per_class=4)
    ds = synth_generate(cfg)
    unseen = np.sort(ds.unseen_classes)
    assert len(unseen) == 72

    def blocks(seed):
        return [b.unseen_attrs for b in batch_iter(ds, 8, Rng(seed))]

    # the stream draws the row order, then one permutation per batch
    oracle = Rng(3)
    oracle.permutation(len(ds.train_idx))
    first = blocks(3)
    assert len(first) == 4                      # 30 training rows
    picked = set()
    for block in first:
        # each row is exactly one unseen class's attribute vector
        hits = (block[:, None, :] == ds.attributes[unseen][None]).all(axis=2)
        assert (hits.sum(axis=1) == 1).all()
        classes = unseen[hits.argmax(axis=1)]
        assert len(classes) == MAX_UNSEEN_ATTRS_PER_BATCH
        assert (np.diff(classes) > 0).all()  # distinct, in ascending order
        assert np.array_equal(classes, unseen[np.sort(oracle.permutation(
            len(unseen))[:MAX_UNSEEN_ATTRS_PER_BATCH])])
        picked.add(tuple(classes))
    assert len(picked) > 1                      # a fresh pick per batch
    assert all(np.array_equal(a, b) for a, b in zip(first, blocks(3)))

    arch = Architecture(visual_dim=ds.visual_dim, attr_dim=ds.attr_dim,
                        n_seen_classes=len(ds.seen_classes), structure_dim=12,
                        latent_dim=4, common_hidden=8, dec_visual_hidden=8,
                        dec_semantic_hidden=6)
    (row,) = fit(Model(arch, Rng(1)), ds,
                 TrainSchedule(epochs=1, batch_size=16, swd_directions=8),
                 Rng(2))
    assert all(np.isfinite(v) for v in row.values())
