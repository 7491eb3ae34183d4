"""Network assembly: two task-specific encoders into a shared structure
space, a common variational encoder into the latent Gaussian space, two
decoders back to each domain, and two independent classifiers.
"""

import json
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .losses import GaussianParams
from .nn import Mlp
from .tensor import Tensor, as_tensor, check_finite


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
        for name, value in asdict(self).items():
            if int(value) < 1:
                raise ValueError(f"architecture field '{name}' must be >= 1")


# group names, fixed order (also the checkpoint manifest order)
GROUPS = ("enc_visual", "enc_semantic", "enc_common_trunk", "enc_common_mu",
          "enc_common_logvar", "dec_visual", "dec_semantic", "cls1", "cls2")


class Model:
    def __init__(self, arch, rng, dtype=np.float32):
        arch.validate()
        self.arch = arch
        self.dtype = dtype
        a = arch
        streams = rng.spawn(len(GROUPS))
        init = dict(zip(GROUPS, streams))
        self.enc_visual = Mlp([a.visual_dim, a.structure_dim], ["relu"],
                              init["enc_visual"], dtype)
        self.enc_semantic = Mlp([a.attr_dim, a.structure_dim], ["relu"],
                                init["enc_semantic"], dtype)
        self.enc_common_trunk = Mlp([a.structure_dim, a.common_hidden],
                                    ["relu"], init["enc_common_trunk"], dtype)
        self.enc_common_mu = Mlp([a.common_hidden, a.latent_dim], ["identity"],
                                 init["enc_common_mu"], dtype)
        self.enc_common_logvar = Mlp([a.common_hidden, a.latent_dim],
                                     ["identity"], init["enc_common_logvar"],
                                     dtype)
        self.dec_visual = Mlp([a.latent_dim, a.dec_visual_hidden, a.visual_dim],
                              ["relu", "identity"], init["dec_visual"], dtype)
        self.dec_semantic = Mlp(
            [a.latent_dim, a.dec_semantic_hidden, a.attr_dim],
            ["relu", "identity"], init["dec_semantic"], dtype)
        self.cls1 = Mlp([a.structure_dim, a.n_seen_classes], ["identity"],
                        init["cls1"], dtype)
        self.cls2 = Mlp([a.structure_dim, a.n_seen_classes], ["identity"],
                        init["cls2"], dtype)

    # ---- parameter bookkeeping ------------------------------------------

    def groups(self):
        return {name: getattr(self, name) for name in GROUPS}

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

    def decode_visual(self, z):
        return self.dec_visual(z)

    def decode_semantic(self, z):
        return self.dec_semantic(z)

    def classify(self, which, s):
        if which not in (1, 2):
            raise ValueError("classifier selector must be 1 or 2")
        return (self.cls1 if which == 1 else self.cls2)(s)

    def latent_from_visual(self, x, rng, use_mean=False):
        g = self.encode_common(self.encode_visual(x))
        if use_mean:
            return g.mu
        return self.reparameterize(g, rng)

    def latent_from_semantic(self, a, rng, use_mean=False):
        g = self.encode_common(self.encode_semantic(a))
        if use_mean:
            return g.mu
        return self.reparameterize(g, rng)


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


def load_checkpoint(path, rng=None):
    from .rng import Rng
    if rng is None:
        rng = Rng(0)
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise ValueError(f"checkpoint '{path}' truncated")
    (hlen,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + hlen:
        raise ValueError(f"checkpoint '{path}' header truncated")
    header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    if header.get("format_version") != MAGIC_VERSION:
        raise ValueError("unsupported checkpoint format version")
    arch = Architecture(**header["architecture"])
    model = Model(arch, rng)
    named = _named_params(model)
    manifest = header["params"]
    if [n for n, _ in named] != [e["name"] for e in manifest]:
        raise ValueError("checkpoint manifest does not match architecture")
    offset = 8 + hlen
    for (name, p), entry in zip(named, manifest):
        shape = tuple(entry["shape"])
        if shape != p.shape:
            raise ValueError(f"checkpoint shape mismatch for '{name}'")
        nbytes = int(np.prod(shape)) * 4
        blob = raw[offset:offset + nbytes]
        if len(blob) != nbytes:
            raise ValueError(f"checkpoint data truncated at '{name}'")
        p.data = np.frombuffer(blob, dtype="<f4").reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise ValueError("checkpoint has trailing bytes")
    return model
