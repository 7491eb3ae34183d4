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

from .rng import _BLOCK, Rng
from .tensor import check_fields, check_finite

FORMAT_VERSION = 1
DIM_FIELDS = ("n_samples", "visual_dim", "attr_dim", "n_classes")
INDEX_FIELDS = ("seen_classes", "unseen_classes", "train_idx",
                "test_seen_idx", "test_unseen_idx")


def _reject(name, arr, bad, why):
    """Raise ValueError naming the first entry of `arr` that `bad` flags."""
    bad = np.flatnonzero(bad)
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] = {arr[bad[0]]} {why}")


def _check_range(name, arr, n):
    _reject(name, arr, (arr < 0) | (arr >= n), f"out of range [0, {n})")


def _check_disjoint(what, a, b):
    # np.isin, not np.intersect1d, which imports numpy.ma on first use
    common = np.sort(a[np.isin(a, b)])
    if common.size:
        raise ValueError(f"{what} overlap at {common[:5].tolist()}")


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
        """Raise ValueError at the first broken invariant. Every index is
        range-checked before it is used as one."""
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        check_finite(self.features, "features")
        check_finite(self.attributes, "attributes")
        for name in INDEX_FIELDS:
            arr = getattr(self, name)
            repeat = np.ones(arr.size, dtype=bool)
            repeat[np.unique(arr, return_index=True)[1]] = False
            _reject(name, arr, repeat, "repeats an earlier entry")
        _check_disjoint("seen/unseen classes", self.seen_classes,
                        self.unseen_classes)
        for name in ("seen_classes", "unseen_classes", "labels"):
            _check_range(name, getattr(self, name), self.n_classes)
        classes = np.concatenate([self.seen_classes, self.unseen_classes])
        _reject("labels", self.labels, ~np.isin(self.labels, classes),
                "is outside seen_classes and unseen_classes")
        for name in INDEX_FIELDS[2:]:
            _check_range(name, getattr(self, name), self.n_samples)
        _check_disjoint("train/test split", self.train_idx,
                        np.concatenate([self.test_seen_idx,
                                        self.test_unseen_idx]))
        for name, allowed in (("train_idx", self.seen_classes),
                              ("test_seen_idx", self.seen_classes),
                              ("test_unseen_idx", self.unseen_classes)):
            idx = getattr(self, name)
            _reject(name, idx, ~np.isin(self.labels[idx], allowed),
                    "has a class outside its allowed set")


def save_dataset(ds, path):
    ds.validate()
    os.makedirs(path, exist_ok=True)
    meta = {"format_version": FORMAT_VERSION,
            **{k: int(getattr(ds, k)) for k in DIM_FIELDS},
            **{k: np.asarray(getattr(ds, k), dtype=np.int64).tolist()
               for k in INDEX_FIELDS}}
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as f:
        # json.dumps runs the C encoder; json.dump to a file does not
        f.write(json.dumps(meta, sort_keys=True))
    # an array already in its file's dtype is written without a copy
    for name, arr, dtype in (("features", ds.features, "<f4"),
                             ("attributes", ds.attributes, "<f4"),
                             ("labels", ds.labels, "<u4")):
        arr.astype(dtype, copy=False).tofile(os.path.join(path, name + ".bin"))


def load_dataset(path):
    for fname in ("meta.json", "features.bin", "attributes.bin", "labels.bin"):
        if not os.path.exists(os.path.join(path, fname)):
            raise FileNotFoundError(f"dataset file missing: {fname}")
    with open(os.path.join(path, "meta.json"), encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"meta.json is not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise ValueError("meta.json root must be a JSON object")
    version = meta.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format_version {version!r}")
    for key in DIM_FIELDS + INDEX_FIELDS:
        if key not in meta:
            raise ValueError(f"meta.json missing field '{key}'")
        values = meta[key] if key in INDEX_FIELDS else [meta[key]]
        # a JSON bool, float or string is no integer, and is not coerced
        if not (isinstance(values, list) and all(
                type(v) is int and -2**63 <= v < 2**63 for v in values)):
            raise ValueError(
                f"meta.json field '{key}' must be JSON integers in int64")
    n, vd, ad, nc = (meta[k] for k in DIM_FIELDS)

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
        **{k: np.asarray(meta[k], dtype=np.int64) for k in INDEX_FIELDS})
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
        check_fields(self, zero_ok=("seed",))
        for name in ("visual_map", "attr_map"):
            value = getattr(self, name)
            if value not in _MAPS:
                raise ValueError(f"synth field '{name}' must be one of "
                                 f"{sorted(_MAPS)}, got {value!r}")
        for name in ("sample_noise", "attr_noise"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # NaN fails too
                raise ValueError(f"synth field '{name}' must be finite and "
                                 f">= 0, got {value!r}")
        if self.n_seen >= self.n_classes:
            raise ValueError("need n_seen < n_classes")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


# each map overwrites its argument with its result
_MAPS = {
    "tanh": lambda t: np.tanh(t, out=t),
    "softplus": lambda t: np.logaddexp(0.0, t, out=t),
    "identity": lambda t: t,
}


def _row_blocks(n, width):
    """`(start, stop)` ranges over `n` rows of `width` values, each block
    `rng._BLOCK` values rounded down to whole rows but never under two
    rows. A one-row product takes numpy's gemv path, which can differ from
    a dgemm's bits in the last place, so a one-row tail joins the block
    before it; only a one-row `n` makes a one-row block."""
    rows = max(2, _BLOCK // width)
    start = 0
    while start < n:
        stop = n if n - start <= rows + 1 else start + rows
        yield start, stop
        start = stop


def _mapped(latents, w, b, name):
    """`_MAPS[name](latents @ w + b)` as float32, formed and mapped in the
    row blocks of `_row_blocks` and rounded once into the result, so no
    float64 array of the result's size is held. A block splits only the
    product's output rows, and a product of two or more rows gives the
    bits of the whole product's rows (tried for K 4-32 and widths
    32-16000), so the result is that of one whole-array product."""
    out = np.empty((latents.shape[0], w.shape[1]), dtype=np.float32)
    for start, stop in _row_blocks(*out.shape):
        t = latents[start:stop] @ w
        t += b
        out[start:stop] = _MAPS[name](t)
    return out


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
    features = _mapped(latents, wa, ba, cfg.visual_map)

    attr_latents = protos.copy()
    if cfg.attr_noise > 0:
        attr_latents += r_noise.standard_normal(
            cfg.n_classes, cfg.proto_dim, dtype=np.float64) * cfg.attr_noise
    attributes = _mapped(attr_latents, wb, bb, cfg.attr_map)

    splits = {name: [] for name in INDEX_FIELDS[2:]}
    n_train = int(round(cfg.train_fraction * cfg.samples_per_class))
    for c in range(cfg.n_classes):
        idx = np.where(labels == c)[0]
        idx = idx[r_split.permutation(len(idx))]
        if c < cfg.n_seen:
            splits["train_idx"].extend(idx[:n_train])
            splits["test_seen_idx"].extend(idx[n_train:])
        else:
            splits["test_unseen_idx"].extend(idx)

    ds = ZslDataset(
        features=features,
        attributes=attributes,
        labels=labels.astype(np.uint32),
        seen_classes=np.arange(cfg.n_seen),
        unseen_classes=np.arange(cfg.n_seen, cfg.n_classes),
        **{k: np.sort(np.asarray(v, dtype=np.int64))
           for k, v in splits.items()})
    ds.validate()
    return ds


def minmax_features(ds):
    """Optional per-dimension min-max rescaling of the visual features to
    [0, 1]. Off by default; constant dimensions are left at 0."""
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    feats = ds.features - lo
    feats /= span
    return replace(ds, features=feats)


MAX_UNSEEN_ATTRS_PER_BATCH = 64


@dataclass
class Batch:
    x: np.ndarray             # seen visual features
    a: np.ndarray             # attribute vector per row (by label)
    y: np.ndarray             # labels remapped to [0, n_seen)
    unseen_attrs: np.ndarray  # attribute block of (a subset of) unseen classes


def batch_iter(ds, batch_size, rng):
    """Shuffled mini-batches over the train split; the final short batch is
    included; every batch carries the unseen attribute block."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(ds.train_idx) == 0:
        raise ValueError("empty training split")
    seen_sorted = np.sort(ds.seen_classes)
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
            y=np.searchsorted(seen_sorted, labels),
            unseen_attrs=ds.attributes[u_classes],
        )
