"""Dataset container, loader/validator, synthetic generator, batching.

On-disk layout (one directory):
  meta.json       n_samples, visual_dim, attr_dim, n_classes, seen_classes,
                  unseen_classes, train_idx, test_seen_idx, test_unseen_idx,
                  format_version=1
  features.bin    little-endian float32, row-major n_samples x visual_dim
  attributes.bin  little-endian float32, row-major n_classes x attr_dim
  labels.bin      little-endian uint32, n_samples
"""

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .rng import Rng
from .tensor import check_finite

FORMAT_VERSION = 1


@dataclass
class ZslDataset:
    features: np.ndarray      # n_samples x visual_dim, float32
    attributes: np.ndarray    # n_classes x attr_dim, float32
    labels: np.ndarray        # n_samples, uint32
    seen_classes: np.ndarray
    unseen_classes: np.ndarray
    train_idx: np.ndarray
    test_seen_idx: np.ndarray
    test_unseen_idx: np.ndarray

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_classes(self):
        return self.attributes.shape[0]

    @property
    def visual_dim(self):
        return self.features.shape[1]

    @property
    def attr_dim(self):
        return self.attributes.shape[1]

    def validate(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        check_finite(self.features, "features")
        check_finite(self.attributes, "attributes")
        seen = set(int(c) for c in self.seen_classes)
        unseen = set(int(c) for c in self.unseen_classes)
        if seen & unseen:
            raise ValueError(
                f"seen/unseen classes overlap: {sorted(seen & unseen)}")
        for name, arr in (("seen_classes", self.seen_classes),
                          ("unseen_classes", self.unseen_classes)):
            for c in arr:
                if not 0 <= int(c) < self.n_classes:
                    raise ValueError(f"{name} entry {int(c)} out of range "
                                     f"[0, {self.n_classes})")
        for i, y in enumerate(self.labels):
            if not 0 <= int(y) < self.n_classes:
                raise ValueError(
                    f"labels[{i}] = {int(y)} out of range [0, {self.n_classes})")
        referenced = set(int(y) for y in self.labels)
        if not referenced <= (seen | unseen):
            raise ValueError("labels reference classes outside seen+unseen: "
                             f"{sorted(referenced - seen - unseen)}")
        for name, idx in (("train_idx", self.train_idx),
                          ("test_seen_idx", self.test_seen_idx),
                          ("test_unseen_idx", self.test_unseen_idx)):
            for i in idx:
                if not 0 <= int(i) < self.n_samples:
                    raise ValueError(
                        f"{name} entry {int(i)} out of range [0, {self.n_samples})")
        train = set(int(i) for i in self.train_idx)
        test = set(int(i) for i in self.test_seen_idx) | \
            set(int(i) for i in self.test_unseen_idx)
        if train & test:
            raise ValueError(
                f"train/test split overlap at samples {sorted(train & test)[:5]}")
        for name, idx, allowed in (
                ("train_idx", self.train_idx, seen),
                ("test_seen_idx", self.test_seen_idx, seen),
                ("test_unseen_idx", self.test_unseen_idx, unseen)):
            for i in idx:
                if int(self.labels[int(i)]) not in allowed:
                    raise ValueError(
                        f"{name} sample {int(i)} has class "
                        f"{int(self.labels[int(i)])} outside its allowed set")


def save_dataset(ds, path):
    ds.validate()
    os.makedirs(path, exist_ok=True)
    meta = {
        "format_version": FORMAT_VERSION,
        "n_samples": int(ds.n_samples),
        "visual_dim": int(ds.visual_dim),
        "attr_dim": int(ds.attr_dim),
        "n_classes": int(ds.n_classes),
        "seen_classes": [int(c) for c in ds.seen_classes],
        "unseen_classes": [int(c) for c in ds.unseen_classes],
        "train_idx": [int(i) for i in ds.train_idx],
        "test_seen_idx": [int(i) for i in ds.test_seen_idx],
        "test_unseen_idx": [int(i) for i in ds.test_unseen_idx],
    }
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True)
    ds.features.astype("<f4").tofile(os.path.join(path, "features.bin"))
    ds.attributes.astype("<f4").tofile(os.path.join(path, "attributes.bin"))
    ds.labels.astype("<u4").tofile(os.path.join(path, "labels.bin"))


def load_dataset(path):
    meta_path = os.path.join(path, "meta.json")
    for fname in ("meta.json", "features.bin", "attributes.bin", "labels.bin"):
        if not os.path.exists(os.path.join(path, fname)):
            raise FileNotFoundError(f"dataset file missing: {fname}")
    with open(meta_path, encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"meta.json is not valid JSON: {e}") from e
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported dataset format_version")
    required = ("n_samples", "visual_dim", "attr_dim", "n_classes",
                "seen_classes", "unseen_classes", "train_idx",
                "test_seen_idx", "test_unseen_idx")
    for key in required:
        if key not in meta:
            raise ValueError(f"meta.json missing field '{key}'")
    n, vd = int(meta["n_samples"]), int(meta["visual_dim"])
    nc, ad = int(meta["n_classes"]), int(meta["attr_dim"])

    def read_bin(fname, dtype, expect_count, shape):
        arr = np.fromfile(os.path.join(path, fname), dtype=dtype)
        if arr.size != expect_count:
            raise ValueError(f"{fname} holds {arr.size} values, "
                             f"manifest implies {expect_count}")
        return arr.reshape(shape)

    ds = ZslDataset(
        features=read_bin("features.bin", "<f4", n * vd, (n, vd)),
        attributes=read_bin("attributes.bin", "<f4", nc * ad, (nc, ad)),
        labels=read_bin("labels.bin", "<u4", n, (n,)),
        seen_classes=np.asarray(meta["seen_classes"], dtype=np.int64),
        unseen_classes=np.asarray(meta["unseen_classes"], dtype=np.int64),
        train_idx=np.asarray(meta["train_idx"], dtype=np.int64),
        test_seen_idx=np.asarray(meta["test_seen_idx"], dtype=np.int64),
        test_unseen_idx=np.asarray(meta["test_unseen_idx"], dtype=np.int64),
    )
    ds.validate()
    return ds


@dataclass
class SynthConfig:
    n_classes: int = 20
    n_seen: int = 15
    samples_per_class: int = 100
    visual_dim: int = 256
    attr_dim: int = 32
    proto_dim: int = 16
    sample_noise: float = 0.35
    attr_noise: float = 0.0
    visual_map: str = "tanh"
    attr_map: str = "softplus"
    train_fraction: float = 0.8
    seed: int = 0

    def validate(self):
        if self.n_seen >= self.n_classes or self.n_seen < 1:
            raise ValueError("need 1 <= n_seen < n_classes")
        for name in ("n_classes", "samples_per_class", "visual_dim",
                     "attr_dim", "proto_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"synth field '{name}' must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


_MAPS = {
    "tanh": np.tanh,
    "softplus": lambda t: np.logaddexp(0.0, t),
    "identity": lambda t: t,
}


def synth_generate(cfg):
    """Two heterogeneous views of shared class structure: per-class latent
    prototypes pushed through two different nonlinear maps, with per-sample
    noise only on the visual side."""
    cfg.validate()
    rng = Rng(cfg.seed)
    r_proto, r_maps, r_noise, r_split = rng.spawn(4)

    protos = r_proto.standard_normal(cfg.n_classes, cfg.proto_dim,
                                     dtype=np.float64)
    wa = r_maps.standard_normal(cfg.proto_dim, cfg.visual_dim,
                                dtype=np.float64) / np.sqrt(cfg.proto_dim)
    ba = r_maps.standard_normal(1, cfg.visual_dim, dtype=np.float64) * 0.1
    wb = r_maps.standard_normal(cfg.proto_dim, cfg.attr_dim,
                                dtype=np.float64) / np.sqrt(cfg.proto_dim)
    bb = r_maps.standard_normal(1, cfg.attr_dim, dtype=np.float64) * 0.1

    n = cfg.n_classes * cfg.samples_per_class
    labels = np.repeat(np.arange(cfg.n_classes), cfg.samples_per_class)
    noise = r_noise.standard_normal(n, cfg.proto_dim,
                                    dtype=np.float64) * cfg.sample_noise
    latents = protos[labels] + noise
    features = _MAPS[cfg.visual_map](latents @ wa + ba).astype(np.float32)

    attr_latents = protos.copy()
    if cfg.attr_noise > 0:
        attr_latents += r_noise.standard_normal(
            cfg.n_classes, cfg.proto_dim, dtype=np.float64) * cfg.attr_noise
    attributes = _MAPS[cfg.attr_map](attr_latents @ wb + bb).astype(np.float32)

    seen = np.arange(cfg.n_seen)
    unseen = np.arange(cfg.n_seen, cfg.n_classes)
    train_idx, test_seen_idx, test_unseen_idx = [], [], []
    n_train = int(round(cfg.train_fraction * cfg.samples_per_class))
    for c in range(cfg.n_classes):
        idx = np.where(labels == c)[0]
        idx = idx[r_split.permutation(len(idx))]
        if c < cfg.n_seen:
            train_idx.extend(idx[:n_train])
            test_seen_idx.extend(idx[n_train:])
        else:
            test_unseen_idx.extend(idx)

    ds = ZslDataset(
        features=features,
        attributes=attributes,
        labels=labels.astype(np.uint32),
        seen_classes=seen,
        unseen_classes=unseen,
        train_idx=np.sort(np.asarray(train_idx, dtype=np.int64)),
        test_seen_idx=np.sort(np.asarray(test_seen_idx, dtype=np.int64)),
        test_unseen_idx=np.sort(np.asarray(test_unseen_idx, dtype=np.int64)),
    )
    ds.validate()
    return ds


def minmax_features(ds):
    """Optional per-dimension min-max rescaling of the visual features to
    [0, 1]. Off by default; constant dimensions are left at 0."""
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    feats = ((ds.features - lo) / span).astype(np.float32)
    return replace(ds, features=feats)


MAX_UNSEEN_ATTRS_PER_BATCH = 64


@dataclass
class Batch:
    x: np.ndarray             # seen visual features
    a: np.ndarray             # attribute vector per row (by label)
    y: np.ndarray             # labels remapped to [0, n_seen)
    unseen_attrs: np.ndarray  # attribute block of (a subset of) unseen classes


def seen_label_mapping(ds):
    """class id -> contiguous index over seen classes (sorted order)."""
    return {int(c): i for i, c in enumerate(np.sort(ds.seen_classes))}


def batch_iter(ds, batch_size, rng):
    """Shuffled mini-batches over the train split; the final short batch is
    included; every batch carries the unseen attribute block."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(ds.train_idx) == 0:
        raise ValueError("empty training split")
    mapping = seen_label_mapping(ds)
    order = ds.train_idx[rng.permutation(len(ds.train_idx))]
    unseen_sorted = np.sort(ds.unseen_classes)
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        labels = ds.labels[idx].astype(np.int64)
        if len(unseen_sorted) <= MAX_UNSEEN_ATTRS_PER_BATCH:
            u_classes = unseen_sorted
        else:
            pick = rng.permutation(len(unseen_sorted))[
                :MAX_UNSEEN_ATTRS_PER_BATCH]
            u_classes = unseen_sorted[np.sort(pick)]
        yield Batch(
            x=ds.features[idx],
            a=ds.attributes[labels],
            y=np.asarray([mapping[int(c)] for c in labels], dtype=np.int64),
            unseen_attrs=ds.attributes[u_classes],
        )
