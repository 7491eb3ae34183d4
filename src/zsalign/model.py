"""Network assembly: two task-specific encoders into a shared structure
space, a common variational encoder into the latent Gaussian space, two
decoders back to each domain, and two independent classifiers.
"""

import json
import os
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .losses import GaussianParams
from .nn import Mlp
from .tensor import Tensor, as_tensor, check_fields, check_finite


@dataclass
class Architecture:
    visual_dim: int
    attr_dim: int
    n_seen_classes: int
    structure_dim: int = 2048
    latent_dim: int = 64
    common_hidden: int = 1560
    dec_visual_hidden: int = 1660
    dec_semantic_hidden: int = 660

    def validate(self):
        check_fields(self)


# each group's layer widths, as Architecture fields, and its activations;
# the order is that of the init streams and of the checkpoint manifest
LAYOUT = {
    "enc_visual": (("visual_dim", "structure_dim"), ("relu",)),
    "enc_semantic": (("attr_dim", "structure_dim"), ("relu",)),
    "enc_common_trunk": (("structure_dim", "common_hidden"), ("relu",)),
    "enc_common_mu": (("common_hidden", "latent_dim"), ("identity",)),
    "enc_common_logvar": (("common_hidden", "latent_dim"), ("identity",)),
    "dec_visual": (("latent_dim", "dec_visual_hidden", "visual_dim"),
                   ("relu", "identity")),
    "dec_semantic": (("latent_dim", "dec_semantic_hidden", "attr_dim"),
                     ("relu", "identity")),
    "cls1": (("structure_dim", "n_seen_classes"), ("identity",)),
    "cls2": (("structure_dim", "n_seen_classes"), ("identity",)),
}
GROUPS = tuple(LAYOUT)


def dataset_dims(ds):
    """The Architecture fields that the dataset `ds` fixes."""
    return {"visual_dim": ds.visual_dim, "attr_dim": ds.attr_dim,
            "n_seen_classes": len(ds.seen_classes)}


def check_fits_dataset(arch, ds):
    """Raise ValueError naming the first field of `dataset_dims` on which
    `arch` and the dataset `ds` disagree."""
    for name, value in dataset_dims(ds).items():
        if getattr(arch, name) != value:
            raise ValueError(f"model {name} {getattr(arch, name)} != "
                             f"dataset {name} {value}")


class Model:
    def __init__(self, arch, rng, dtype=np.float32):
        """With `rng` None every weight starts at zero, for a caller that
        overwrites them all (the checkpoint loader)."""
        arch.validate()
        self.arch = arch
        self.dtype = dtype
        streams = (rng.spawn(len(LAYOUT)) if rng is not None
                   else [None] * len(LAYOUT))
        for (name, (widths, acts)), stream in zip(LAYOUT.items(), streams):
            setattr(self, name, Mlp([getattr(arch, w) for w in widths], acts,
                                    stream, dtype))

    # ---- parameter bookkeeping ------------------------------------------

    def group_params(self, names):
        return [p for name in names for p in getattr(self, name).params()]

    def all_params(self):
        return self.group_params(GROUPS)

    def zero_grads(self):
        for p in self.all_params():
            p.grad = None

    def param_bytes(self, names=GROUPS):
        """Concatenated raw parameter bytes, for freezing checks."""
        return b"".join(p.data.tobytes() for p in self.group_params(names))

    # ---- forward passes -------------------------------------------------

    def encode_visual(self, x):
        x = as_tensor(x, self.dtype)
        check_finite(x.data, "visual features")
        return self.enc_visual(x)

    def encode_semantic(self, a):
        a = as_tensor(a, self.dtype)
        check_finite(a.data, "attributes")
        return self.enc_semantic(a)

    def encode_common(self, s):
        h = self.enc_common_trunk(s)
        return GaussianParams(self.enc_common_mu(h), self.enc_common_logvar(h))

    def reparameterize(self, g, rng):
        noise = rng.standard_normal(*g.mu.shape, dtype=self.dtype)
        return g.mu + (g.logvar * 0.5).exp() * Tensor(noise)


# ---- checkpoint container -----------------------------------------------
#
# Layout: 8-byte little-endian header length, JSON header (architecture +
# manifest of parameter names/shapes), then raw little-endian float32 data
# in manifest order. Write -> read round-trips bitwise.

MAGIC_VERSION = 1


def _named_params(model):
    out = []
    for gname in GROUPS:
        net = getattr(model, gname)
        for i, layer in enumerate(net.layers):
            out.append((f"{gname}/layer{i}/w", layer.w))
            out.append((f"{gname}/layer{i}/b", layer.b))
    return out


def save_checkpoint(model, path):
    named = _named_params(model)
    header = {
        "format_version": MAGIC_VERSION,
        "architecture": asdict(model.arch),
        "params": [{"name": n, "shape": list(p.shape)} for n, p in named],
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(hbytes)))
        f.write(hbytes)
        for _, p in named:
            f.write(np.ascontiguousarray(
                p.data.astype("<f4", copy=False)).tobytes())


def load_checkpoint(path):
    with open(path, "rb") as f:
        head = f.read(8)
        if len(head) < 8:
            raise ValueError(f"checkpoint '{path}' truncated")
        (hlen,) = struct.unpack("<Q", head)
        if os.fstat(f.fileno()).st_size < 8 + hlen:
            raise ValueError(f"checkpoint '{path}' header truncated")
        header = json.loads(f.read(hlen).decode("utf-8"))
        if header.get("format_version") != MAGIC_VERSION:
            raise ValueError("unsupported checkpoint format version")
        arch = Architecture(**header["architecture"])
        model = Model(arch, None)
        named = _named_params(model)
        manifest = header["params"]
        if [n for n, _ in named] != [e["name"] for e in manifest]:
            raise ValueError("checkpoint manifest does not match architecture")
        # read straight into each zero array, so a load holds them once
        for (name, p), entry in zip(named, manifest):
            if tuple(entry["shape"]) != p.shape:
                raise ValueError(f"checkpoint shape mismatch for '{name}'")
            if f.readinto(p.data) != p.data.nbytes:
                raise ValueError(f"checkpoint data truncated at '{name}'")
        if f.read(1):
            raise ValueError("checkpoint has trailing bytes")
    return model
