import struct
import tracemalloc

import numpy as np
import pytest

from zsalign import (Architecture, Model, Rng, load_checkpoint,
                     save_checkpoint)
from zsalign.evaluation import encode_test_features
from zsalign.model import GROUPS

SMALL = dict(structure_dim=8, latent_dim=4, common_hidden=6,
             dec_visual_hidden=6, dec_semantic_hidden=5)


def small_model(seed=0):
    arch = Architecture(visual_dim=7, attr_dim=5, n_seen_classes=3, **SMALL)
    return Model(arch, Rng(seed))


def test_forward_shapes():
    m = small_model()
    rng = Rng(1)
    x = rng.standard_normal(6, 7)
    a = rng.standard_normal(6, 5)
    sx = m.encode_visual(x)
    sa = m.encode_semantic(a)
    assert sx.shape == (6, 8) and sa.shape == (6, 8)
    g = m.encode_common(sx)
    assert g.mu.shape == (6, 4) and g.logvar.shape == (6, 4)
    zs = m.reparameterize(g, rng)
    assert zs.shape == (6, 4)
    assert m.dec_visual(zs).shape == (6, 7)
    assert m.dec_semantic(zs).shape == (6, 5)
    assert m.cls1(sx).shape == (6, 3)
    assert m.cls2(sa).shape == (6, 3)


def test_biases_start_at_zero():
    m = small_model()
    for name in GROUPS:
        for layer in getattr(m, name).layers:
            assert np.array_equal(layer.b.data, np.zeros_like(layer.b.data))


def test_initialization_deterministic_and_seed_sensitive():
    a, b, c = small_model(0), small_model(0), small_model(1)
    assert a.param_bytes() == b.param_bytes()
    assert a.param_bytes() != c.param_bytes()


def test_groups_have_distinct_initializations():
    m = small_model()
    # the two classifiers share an architecture but not weights
    assert not np.array_equal(m.cls1.layers[0].w.data,
                              m.cls2.layers[0].w.data)


def test_reparameterize_sample_moments():
    m = small_model()
    n = 50_000
    mu = np.full((n, 4), 2.0, dtype=np.float32)
    logvar = np.full((n, 4), np.log(4.0), dtype=np.float32)
    from zsalign.losses import GaussianParams
    from zsalign.tensor import Tensor
    g = GaussianParams(Tensor(mu), Tensor(logvar))
    z = m.reparameterize(g, Rng(3)).data
    assert abs(z.mean() - 2.0) < 0.05
    assert abs(z.var() - 4.0) < 0.1


def test_reparameterize_collapses_at_tiny_variance():
    m = small_model()
    from zsalign.losses import GaussianParams
    from zsalign.tensor import Tensor
    mu = Rng(0).standard_normal(10, 4)
    g = GaussianParams(Tensor(mu), Tensor(np.full((10, 4), -40.0,
                                                  dtype=np.float32)))
    z = m.reparameterize(g, Rng(1)).data
    assert np.max(np.abs(z - mu)) < 1e-8


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture(visual_dim=7, attr_dim=0, n_seen_classes=3).validate()


def test_checkpoint_round_trip_bitwise(tmp_path, monkeypatch):
    import zsalign.nn

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew initial weights")

    m = small_model(5)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(m, path)
    monkeypatch.setattr(zsalign.nn, "glorot_uniform", refuse)
    loaded = load_checkpoint(path)
    assert loaded.param_bytes() == m.param_bytes()
    assert loaded.arch == m.arch
    # save of the loaded model reproduces the file byte for byte
    path2 = tmp_path / "ckpt2.bin"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    m = small_model()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(m, path)
    raw = path.read_bytes()

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(truncated)

    padded = tmp_path / "padded.bin"
    padded.write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(padded)

    stub = tmp_path / "stub.bin"
    stub.write_bytes(raw[:4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(stub)

    # a header length beyond the file is caught before anything is read
    huge = tmp_path / "huge.bin"
    huge.write_bytes(struct.pack("<Q", 2**62) + raw[8:])
    with pytest.raises(ValueError, match="header truncated"):
        load_checkpoint(huge)


def test_checkpoint_load_holds_parameters_once(tmp_path):
    # the file's bytes go straight into the parameters, not through a copy
    arch = Architecture(visual_dim=512, attr_dim=64, n_seen_classes=10,
                        structure_dim=512, latent_dim=32, common_hidden=256,
                        dec_visual_hidden=256, dec_semantic_hidden=64)
    m = Model(arch, Rng(0))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(m, path)
    nbytes = len(m.param_bytes())
    del m
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.param_bytes()) == nbytes
    assert peak < 1.5 * nbytes


def test_latent_helpers_mean_vs_sample():
    m = small_model()
    x = Rng(0).standard_normal(4, 7)
    mean1 = encode_test_features(m, x, Rng(1), use_mean=True)
    mean2 = encode_test_features(m, x, Rng(2), use_mean=True)
    assert np.array_equal(mean1, mean2)
    s1 = encode_test_features(m, x, Rng(1))
    s2 = encode_test_features(m, x, Rng(2))
    assert not np.array_equal(s1, s2)
