import hashlib
import threading
import weakref

import numpy as np
import pytest

from zsalign import (AblationFlags, Adam, Architecture, Model, Rng,
                     SynthConfig, TrainSchedule, batch_iter, fit,
                     save_checkpoint, schedule_weights, step_joint,
                     step_max_discrepancy, step_min_discrepancy,
                     synth_generate, write_curves)
from zsalign import gradcheck, losses, nn, optim, tensor, training
from zsalign.training import (CLS_GROUPS, CURVES_HEADER, ENC_GROUPS,
                              PHASE_PARTITIONS, ModelOptimizer,
                              TrainingDivergence, joint_terms, train_epoch)
from zsalign.model import GROUPS
from zsalign.tensor import node

SMALL_ARCH = dict(structure_dim=12, latent_dim=4, common_hidden=8,
                  dec_visual_hidden=8, dec_semantic_hidden=6)


def small_setup(seed=0):
    ds = synth_generate(SynthConfig(n_classes=6, n_seen=4,
                                    samples_per_class=20, visual_dim=16,
                                    attr_dim=8, proto_dim=4, seed=0))
    arch = Architecture(visual_dim=16, attr_dim=8, n_seen_classes=4,
                        **SMALL_ARCH)
    model = Model(arch, Rng(seed))
    sched = TrainSchedule(batch_size=10, swd_directions=8)
    return ds, model, sched


# ---- schedule -------------------------------------------------------------

def test_schedule_known_values():
    s = TrainSchedule()
    assert schedule_weights(s, 0).gamma == 0.0
    assert abs(schedule_weights(s, 90).gamma - 0.234) < 1e-12
    assert abs(schedule_weights(s, 1).gamma - 0.0026) < 1e-12
    assert schedule_weights(s, 21).l1 == 0.0
    assert abs(schedule_weights(s, 22).l1 - 0.044) < 1e-12
    assert abs(schedule_weights(s, 75).l1 - 2.376) < 1e-12
    assert abs(schedule_weights(s, 22).l2 - 11.88) < 1e-12
    assert schedule_weights(s, 22).l2 == schedule_weights(s, 22).l3


def test_schedule_constant_after_end():
    s = TrainSchedule()
    w_end = schedule_weights(s, 95)
    for e in (96, 150, 10_000):
        w = schedule_weights(s, e)
        assert (w.gamma, w.l1, w.l2, w.l3) == \
            (w_end.gamma, w_end.l1, w_end.l2, w_end.l3)


def test_schedule_nondecreasing():
    s = TrainSchedule()
    prev = schedule_weights(s, 0)
    for e in range(1, 120):
        w = schedule_weights(s, e)
        assert w.gamma >= prev.gamma
        assert w.l1 >= prev.l1
        assert w.l2 >= prev.l2
        prev = w


def test_schedule_rejects_negative_epoch():
    with pytest.raises(ValueError):
        schedule_weights(TrainSchedule(), -1)


# ---- freezing contracts ---------------------------------------------------

def frozen_groups(phase):
    if phase == "joint":
        return ()
    if phase == "max":
        return tuple(g for g in GROUPS if g not in CLS_GROUPS)
    return tuple(g for g in GROUPS if g not in ENC_GROUPS)


def test_phase_freezing_is_bitwise_over_random_batches():
    ds, model, sched = small_setup()
    opt = ModelOptimizer(model, sched)
    weights = schedule_weights(sched, 30)
    rng = Rng(9)
    checked = 0
    while checked < 100:
        for batch in batch_iter(ds, sched.batch_size, rng):
            phase = ("joint", "max", "min")[checked % 3]
            frozen = frozen_groups(phase)
            before = model.param_bytes(frozen)
            before_all = model.param_bytes()
            if phase == "joint":
                step_joint(model, batch, weights, opt, rng)
            elif phase == "max":
                step_max_discrepancy(model, batch, weights, opt, rng, sched)
            else:
                step_min_discrepancy(model, batch, weights, opt, rng, sched)
            assert model.param_bytes(frozen) == before
            assert model.param_bytes() != before_all
            checked += 1
            if checked == 100:
                break


def test_step_accounting_per_epoch():
    # B batches produce B joint steps, B classifier steps, and B*n encoder
    # steps, visible through each partition's Adam step counter
    ds, model, sched = small_setup()
    sched.inner_repeats = 2
    opt = ModelOptimizer(model, sched)
    train_epoch(model, ds, sched, 5, Rng(0), opt)
    n_batches = -(-len(ds.train_idx) // sched.batch_size)
    assert opt.adams["rest"].t == n_batches
    assert opt.adams["cls"].t == 2 * n_batches          # joint + max
    assert opt.adams["enc"].t == 3 * n_batches          # joint + 2 min


class PerGroupOptimizer:
    """Reference for ModelOptimizer: one Adam per parameter group. Each
    phase makes the groups it does not train constants on the tape, steps
    the groups it trains, and then makes every group trainable again."""

    PHASE_GROUPS = {"joint": GROUPS, "max": CLS_GROUPS, "min": ENC_GROUPS}

    def __init__(self, model, sched):
        self.adams = {
            g: Adam(getattr(model, g).params(), lr=sched.learning_rate,
                    beta1=sched.adam_beta1, beta2=sched.adam_beta2)
            for g in GROUPS}

    def begin(self, phase):
        for g, adam in self.adams.items():
            for p in adam.params:
                p.requires_grad = g in self.PHASE_GROUPS[phase]

    def step(self, phase):
        for g in self.PHASE_GROUPS[phase]:
            self.adams[g].step()
        self.begin("joint")


def test_partition_optimizer_bitwise_matches_per_group_oracle():
    ds, model, sched = small_setup()
    _, ref_model, _ = small_setup()
    sched.inner_repeats = 2
    weights = schedule_weights(sched, 30)
    opt, ref_opt = ModelOptimizer(model, sched), PerGroupOptimizer(ref_model,
                                                                   sched)
    batches = [b for epoch in range(4)
               for b in batch_iter(ds, sched.batch_size, Rng(epoch))][:24]
    phases = Rng(7).integers(0, 3, size=len(batches))
    start = model.param_bytes()
    real_step, stepped = opt.step, []

    def checked_step(phase):
        # a partition the phase does not train never receives a gradient
        for name, adam in opt.adams.items():
            if name not in PHASE_PARTITIONS[phase]:
                assert not adam.grad.any(), (phase, name)
        stepped.append(phase)
        real_step(phase)
        assert all(p.requires_grad for p in model.all_params()), phase

    opt.step = checked_step
    for i, (phase, batch) in enumerate(zip(phases, batches)):
        for m, o in ((model, opt), (ref_model, ref_opt)):
            if phase == 0:
                step_joint(m, batch, weights, o, Rng(100 + i))
            elif phase == 1:
                step_max_discrepancy(m, batch, weights, o, Rng(100 + i), sched)
            else:
                step_min_discrepancy(m, batch, weights, o, Rng(100 + i), sched)
        assert model.param_bytes() == ref_model.param_bytes(), f"step {i}"
        # every phase step leaves every gradient clear, frozen ones too
        assert not any(a.grad.any() for a in opt.adams.values()), f"step {i}"
    assert len(batches) == 24 and set(phases) == {0, 1, 2}
    assert set(stepped) == {"joint", "max", "min"}
    assert model.param_bytes() != start


@pytest.mark.parametrize("disable_sa,per_batch", [(False, 5), (True, 3)])
def test_adam_steps_per_batch(monkeypatch, disable_sa, per_batch):
    # joint: one step per partition; max: cls; min: enc
    ds, model, sched = small_setup()
    real, calls = Adam.step, []

    def counting(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(Adam, "step", counting)
    train_epoch(model, ds, sched, 30, Rng(0), ModelOptimizer(model, sched),
                AblationFlags(disable_sa=disable_sa))
    n_batches = -(-len(ds.train_idx) // sched.batch_size)
    assert len(calls) == per_batch * n_batches


@pytest.mark.parametrize("repeats,disable_sa,per_batch",
                         [(1, False, 2), (2, False, 3), (1, True, 1)])
def test_batch_encodes_once_per_encoder_state(monkeypatch, repeats,
                                              disable_sa, per_batch):
    # the joint step encodes, then one forward serves the classifier step
    # and the first encoder step; each later encoder step encodes afresh
    ds, model, sched = small_setup()
    sched.inner_repeats = repeats
    real_call, real_joint = nn.Mlp.__call__, training.step_joint
    real_encode, counts, shared = training.encode_structure, [], []

    def counting_call(self, x):
        if self is model.enc_visual:
            counts[-1] += 1
        return real_call(self, x)

    def recording_encode(*args):
        enc = real_encode(*args)
        shared.append([weakref.ref(s.data) for s in enc])
        return enc

    def checking_joint(*args, **kwargs):
        # no reference to an earlier batch's shared forward survives
        assert all(r() is None for refs in shared for r in refs)
        counts.append(0)
        return real_joint(*args, **kwargs)

    monkeypatch.setattr(nn.Mlp, "__call__", counting_call)
    monkeypatch.setattr(training, "encode_structure", recording_encode)
    monkeypatch.setattr(training, "step_joint", checking_joint)
    train_epoch(model, ds, sched, 30, Rng(0), ModelOptimizer(model, sched),
                AblationFlags(disable_sa=disable_sa))
    n_batches = -(-len(ds.train_idx) // sched.batch_size)
    assert counts == [per_batch] * n_batches
    assert len(shared) == (0 if disable_sa else repeats * n_batches)
    assert all(r() is None for refs in shared for r in refs)


def test_inner_repeat_reduces_discrepancy():
    ds, model, sched = small_setup()
    weights = schedule_weights(sched, 30)
    batch = next(batch_iter(ds, 20, Rng(0)))
    # warm the classifiers apart first
    opt = ModelOptimizer(model, sched)
    for _ in range(10):
        step_max_discrepancy(model, batch, weights, opt, Rng(1), sched)

    import copy
    state = {g: [p.data.copy() for p in getattr(model, g).params()]
             for g in GROUPS}

    def restore():
        for g in GROUPS:
            for p, saved in zip(getattr(model, g).params(), state[g]):
                p.data = saved.copy()

    def run(repeats):
        restore()
        o = ModelOptimizer(model, sched)
        last = None
        for _ in range(repeats):
            last = step_min_discrepancy(model, batch, weights, o, Rng(2),
                                        sched)["dis2"]
        return last

    one = run(1)
    three = run(3)
    assert three <= one


def test_max_step_pushes_classifiers_apart():
    ds, model, sched = small_setup()
    weights = schedule_weights(sched, 30)
    batch = next(batch_iter(ds, 20, Rng(0)))
    opt = ModelOptimizer(model, sched)
    vals = []
    for _ in range(10):
        terms = step_max_discrepancy(model, batch, weights, opt, Rng(1), sched)
        vals.append(-terms["dis1"])  # the raw discrepancy
    assert vals[-1] > vals[0]


# ---- epoch loop -----------------------------------------------------------

def test_fit_returns_full_curves():
    ds, model, sched = small_setup()
    sched.epochs = 3
    curves = fit(model, ds, sched, Rng(0))
    assert len(curves) == 3
    for row in curves:
        for key in ("epoch", "vae_x", "vae_a", "rec", "cls", "dis1", "dis2",
                    "da", "icoral", "gamma", "l1", "l2", "l3"):
            assert key in row
    assert curves[0]["gamma"] == 0.0
    assert abs(curves[2]["gamma"] - 2 * 0.0026) < 1e-12
    # every phase step hands each parameter back needing a gradient
    assert all(p.requires_grad for p in model.all_params())


def test_fit_deterministic():
    ds, _, sched = small_setup()
    sched.epochs = 2

    def run():
        _, model, _ = small_setup(seed=4)
        curves = fit(model, ds, sched, Rng(11))
        return model.param_bytes(), curves

    b1, c1 = run()
    b2, c2 = run()
    assert b1 == b2
    assert c1 == c2


# sha256 of curves.csv and of the checkpoint after 23 epochs of the
# criterion-8 geometry (`small_setup`, `fit` with Rng(1)), which span
# L1_START: epochs 0-21 train with a zero cross-reconstruction weight and
# epoch 22 with a positive one. Computed before the classifier and encoder
# steps shared one encoder forward, before a zero-weighted cross
# reconstruction was left out of the joint step's backward, and before a
# node's first gradient was stored as `g + 0`; each of those changes must
# keep these bytes.
PINNED_TRAINING = {
    "full": (
        AblationFlags(), 1,
        "ced7871954ea6d2d61ba85e3ba91807da387064dc0d9f1f8ac42bad566a5a725",
        "35a2dbba09499cf50ea2d4bfc7de74f5dbb86d033d8439636aff69d5e2b36901"),
    "no_sa": (
        AblationFlags(disable_sa=True), 1,
        "90174677205dee31a508c862f316e5cb213261855928ebbbb4849909191693f5",
        "255001b5904dfdaea716a9efc0063a4f6494f69d9b5a73522ce8f45856b58de2"),
    "no_da_icoral": (
        AblationFlags(disable_da_icoral=True), 1,
        "29f097ec0282a3298acf7f11c8ddcb7eb3825867c4bd592295afdf1eccde4202",
        "994a27749cfad3154ceb754c933f897fbbd015a24f246568ffe960ab008f57fc"),
    "no_icoral": (
        AblationFlags(disable_icoral=True), 1,
        "a090f309ae729d90b3985b4aee89d0dfdf1e573541cfc53a7935446f1685f864",
        "be96653863732e410a9eee2ec810308667d43a74e62c8fcea12a206922323a56"),
    "full_inner_repeats_2": (
        AblationFlags(), 2,
        "f0da00dc0c51d6952e150b4f3e2a734cf6ff30b096227d479dca9281c6e369ba",
        "1aae8fb7f2902e4cc6c21e405e602eb760ced3e5d60c1e7530676aa6c3c19b47"),
}


@pytest.mark.parametrize("case", PINNED_TRAINING)
def test_training_bytes_pinned(tmp_path, case):
    flags, repeats, curves_sha, checkpoint_sha = PINNED_TRAINING[case]
    ds, model, sched = small_setup()
    sched.epochs, sched.inner_repeats = 23, repeats
    curves = fit(model, ds, sched, Rng(1), flags)
    assert curves[21]["l1"] == 0.0 < curves[22]["l1"]
    write_curves(curves, tmp_path / "curves.csv")
    save_checkpoint(model, tmp_path / "checkpoint.bin")
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("curves.csv", "checkpoint.bin")}
    assert digest == {"curves.csv": curves_sha,
                      "checkpoint.bin": checkpoint_sha}


def test_fit_zero_epochs_leaves_model_untouched():
    ds, model, sched = small_setup()
    sched.epochs = 0
    before = model.param_bytes()
    curves = fit(model, ds, sched, Rng(0))
    assert curves == []
    assert model.param_bytes() == before


@pytest.mark.parametrize("field,value", [
    ("inner_repeats", 0), ("inner_repeats", -1), ("epochs", -3),
    ("batch_size", 0), ("swd_directions", 0), ("learning_rate", 0.0),
    ("learning_rate", -1e-3), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("adam_beta1", 1.0),
    ("adam_beta1", -0.1), ("adam_beta2", 1.0), ("adam_beta2", float("nan")),
])
def test_fit_rejects_invalid_schedule(field, value):
    # no silent rewrite: 0 inner repeats must not run one encoder step, and
    # negative epochs must not train nothing and report success
    ds, model, sched = small_setup()
    setattr(sched, field, value)
    before = model.param_bytes()
    with pytest.raises(ValueError, match=field):
        fit(model, ds, sched, Rng(0))
    assert model.param_bytes() == before


@pytest.mark.parametrize("field,value", [
    ("learning_rate", "x"), ("batch_size", 2.5), ("batch_size", True),
    ("swd_directions", "8"), ("adam_beta1", None), ("adam_beta2", False),
])
def test_fit_rejects_mistyped_schedule(field, value):
    ds, model, sched = small_setup()
    setattr(sched, field, value)
    before = model.param_bytes()
    with pytest.raises(TypeError, match=field):
        fit(model, ds, sched, Rng(0))
    assert model.param_bytes() == before


def test_train_epoch_rejects_invalid_inner_repeats():
    # train_epoch is public: called directly it must reject the schedule
    # itself rather than run no encoder step and fail on a missing term
    ds, model, sched = small_setup()
    sched.inner_repeats = 0
    before = model.param_bytes()
    with pytest.raises(ValueError, match="inner_repeats"):
        train_epoch(model, ds, sched, 0, Rng(0), ModelOptimizer(model, sched))
    assert model.param_bytes() == before


@pytest.mark.parametrize("field,value", [
    ("visual_dim", 9), ("attr_dim", 9), ("n_seen_classes", 3),
    ("n_seen_classes", 5),
], ids=["visual_dim", "attr_dim", "n_seen_classes3", "n_seen_classes5"])
def test_fit_validates_dimensions(field, value):
    # the dataset has 16-d features, 8-d attributes and 4 seen classes
    ds, _, sched = small_setup()
    arch = Architecture(**{"visual_dim": 16, "attr_dim": 8,
                           "n_seen_classes": 4, field: value}, **SMALL_ARCH)
    model = Model(arch, Rng(0))
    before = model.param_bytes()
    with pytest.raises(ValueError, match=field):
        fit(model, ds, sched, Rng(0))
    assert model.param_bytes() == before


def test_reconstruction_improves_over_training():
    ds, model, sched = small_setup()
    sched.epochs = 30
    curves = fit(model, ds, sched, Rng(0))
    early = np.mean([c["vae_x"] + c["vae_a"] for c in curves[:3]])
    late = np.mean([c["vae_x"] + c["vae_a"] for c in curves[-3:]])
    assert late < early


# ---- ablation gating ------------------------------------------------------

def test_disable_sa_zeroes_adversarial_terms():
    ds, model, sched = small_setup()
    sched.epochs = 2
    curves = fit(model, ds, sched, Rng(0), AblationFlags(disable_sa=True))
    for row in curves:
        assert row["dis1"] == 0.0
        assert row["dis2"] == 0.0
        assert row["l2"] == 0.0


def test_disable_da_icoral_zeroes_weight():
    ds, model, sched = small_setup()
    sched.epochs = 2
    curves = fit(model, ds, sched, Rng(0),
                 AblationFlags(disable_da_icoral=True))
    for row in curves:
        assert row["l3"] == 0.0


def test_disable_icoral_reports_zero_term():
    ds, model, sched = small_setup()
    sched.epochs = 2
    curves = fit(model, ds, sched, Rng(0), AblationFlags(disable_icoral=True))
    for row in curves:
        assert row["icoral"] == 0.0
        assert row["da"] != 0.0


def test_ablations_change_trajectory():
    ds, _, sched = small_setup()
    sched.epochs = 2

    def run(flags):
        _, model, _ = small_setup(seed=1)
        fit(model, ds, sched, Rng(2), flags)
        return model.param_bytes()

    full = run(AblationFlags())
    assert run(AblationFlags(disable_sa=True)) != full
    assert run(AblationFlags(disable_da_icoral=True)) != full
    assert run(AblationFlags(disable_icoral=True)) != full


# (n_seen, batch_size, training rows, last batch, unseen classes) of
# 6 classes at 13 samples each: 40 rows in batches of 13 end in a 1-row
# batch; 5 seen classes leave one unseen class; every batch has 1 row
SHORT_FOR_ICORAL = {"last_batch": (4, 13, 40, 1, 2),
                    "one_unseen": (5, 10, 50, 10, 1),
                    "batch_size_1": (4, 1, 40, 1, 2)}


def icoral_setup(n_seen, batch_size):
    ds = synth_generate(SynthConfig(n_classes=6, n_seen=n_seen,
                                    samples_per_class=13, visual_dim=16,
                                    attr_dim=8, proto_dim=4, seed=0))
    arch = Architecture(visual_dim=16, attr_dim=8, n_seen_classes=n_seen,
                        **SMALL_ARCH)
    sched = TrainSchedule(epochs=1, batch_size=batch_size, swd_directions=8)
    return ds, Model(arch, Rng(0)), sched


@pytest.mark.parametrize("flags", [AblationFlags(),
                                   AblationFlags(disable_da_icoral=True)],
                         ids=["full", "no_da_icoral"])
@pytest.mark.parametrize("case", sorted(SHORT_FOR_ICORAL))
def test_fit_rejects_batches_inverse_coral_cannot_use(monkeypatch, case,
                                                      flags):
    n_seen, batch_size, rows, last, unseen = SHORT_FOR_ICORAL[case]
    ds, model, sched = icoral_setup(n_seen, batch_size)
    calls = []
    monkeypatch.setattr(training, "step_joint",
                        lambda *args, **kwargs: calls.append(args))
    message = (f"{rows} training rows at batch_size {batch_size} leave a "
               f"last batch of {last}, with {unseen} unseen classes")
    with pytest.raises(ValueError, match=message):
        fit(model, ds, sched, Rng(0), flags)
    with pytest.raises(ValueError, match=message):
        train_epoch(model, ds, sched, 0, Rng(0), ModelOptimizer(model, sched),
                    flags)
    assert calls == []


@pytest.mark.parametrize("case", sorted(SHORT_FOR_ICORAL))
def test_no_icoral_variant_trains_batches_inverse_coral_cannot_use(case):
    n_seen, batch_size, _, _, _ = SHORT_FOR_ICORAL[case]
    ds, model, sched = icoral_setup(n_seen, batch_size)
    curves = fit(model, ds, sched, Rng(0), AblationFlags(disable_icoral=True))
    assert len(curves) == 1 and curves[0]["icoral"] == 0.0


VARIANTS = {"full": AblationFlags(),
            "no_sa": AblationFlags(disable_sa=True),
            "no_da_icoral": AblationFlags(disable_da_icoral=True),
            "no_icoral": AblationFlags(disable_icoral=True)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_runs_one_joint_step_per_batch(monkeypatch, variant):
    # every ablation goes through the module-level step_joint, the name
    # that profiling wrappers patch
    ds, model, sched = small_setup()
    real, calls = training.step_joint, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("with_icoral", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "step_joint", counting)
    train_epoch(model, ds, sched, 30, Rng(0), ModelOptimizer(model, sched),
                VARIANTS[variant])
    n_batches = -(-len(ds.train_idx) // sched.batch_size)
    assert len(calls) == n_batches
    assert set(calls) == {variant != "no_icoral"}


@pytest.mark.parametrize("with_icoral", (True, False))
def test_step_joint_reports_builder_terms(with_icoral):
    ds, model, sched = small_setup()
    weights = schedule_weights(sched, 30)
    batch = next(batch_iter(ds, sched.batch_size, Rng(0)))
    t = joint_terms(model, batch, weights.gamma, Rng(5), with_icoral)
    want = {name: float(t[name].data)
            for name in ("vae_x", "vae_a", "cls", "da")}
    want["rec"] = float((t["rec_x"] + t["rec_a"]).data)
    want["icoral"] = float(t["icoral"].data) if with_icoral else 0.0
    assert set(t) == {"vae_x", "vae_a", "rec_x", "rec_a", "cls", "da"} | \
        ({"icoral"} if with_icoral else set())

    rng = Rng(5)
    terms = step_joint(model, batch, weights, ModelOptimizer(model, sched),
                       rng, with_icoral=with_icoral)
    assert terms == want

    # the step draws the visual and semantic noise blocks, and the unseen
    # block only when the inverse-coral term is on
    ref = Rng(5)
    n, k = batch.x.shape[0], model.arch.latent_dim
    ref.standard_normal(n, k)
    ref.standard_normal(n, k)
    if with_icoral:
        ref.standard_normal(batch.unseen_attrs.shape[0], k)
    assert rng._gen.bit_generator.state == ref._gen.bit_generator.state


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("loss,phase", [("gaussian_w2", "joint"),
                                        ("sliced_wasserstein_discrepancy",
                                         "max")])
def test_non_finite_gradient_is_a_divergence_naming_the_step(
        monkeypatch, scale_backward, loss, phase):
    ds, model, sched = small_setup()
    sched.epochs = 1
    scale_backward(losses, loss, np.inf)
    real_step, calls = ModelOptimizer.step, []

    def recording(self, step_phase):
        calls.append((self, {name: (a.t, a.data.copy(), a.m.copy())
                             for name, a in self.adams.items()}))
        real_step(self, step_phase)

    monkeypatch.setattr(ModelOptimizer, "step", recording)
    with pytest.raises(TrainingDivergence,
                       match=f"non-finite gradient in the {phase} step") as e:
        fit(model, ds, sched, Rng(0))
    assert (e.value.epoch, e.value.batch) == (0, 0)
    # the first partition the step trains whose gradient is non-finite
    assert e.value.partition == {"joint": "enc", "max": "cls"}[phase]
    # checked before any partition is stepped: none moved
    opt, before = calls[-1]
    for name, adam in opt.adams.items():
        t, data, m = before[name]
        assert adam.t == t, name
        assert np.array_equal(adam.data, data), name
        assert np.array_equal(adam.m, m), name


def test_non_finite_gradient_in_any_trained_partition_moves_none():
    # only the last partition the joint step trains holds a NaN
    ds, model, sched = small_setup()
    opt = ModelOptimizer(model, sched)
    opt.adams["enc"].grad[...] = 1.0
    opt.adams["rest"].grad[0] = np.nan
    before = model.param_bytes()
    with pytest.raises(TrainingDivergence, match="non-finite gradient in "
                       "the joint step") as e:
        opt.step("joint")
    assert (e.value.term, e.value.partition) == ("gradient", "rest")
    assert model.param_bytes() == before
    assert [a.t for a in opt.adams.values()] == [0, 0, 0]


def reconstruction_calls(monkeypatch, poison=None):
    """Wrap `losses.l1_reconstruction`, which `joint_terms` calls for vae_x,
    vae_a, rec_x and rec_a in turn: record each result and the indices of
    the calls backpropagated through; call number `poison` returns NaN."""
    real, results, backprop = losses.l1_reconstruction, [], []

    def wrapped(x, recon):
        out, i = real(x, recon), len(results)
        results.append(float(out.data))
        data = np.full_like(out.data, np.nan) if i == poison else out.data
        return node(data, (out,), lambda g: (backprop.append(i),
                                             out._accumulate(g)))

    monkeypatch.setattr(losses, "l1_reconstruction", wrapped)
    return results, backprop


@pytest.mark.parametrize("epoch", [0, 21, 22])
def test_cross_reconstruction_backpropagated_only_at_positive_weight(
        monkeypatch, epoch):
    ds, model, sched = small_setup()
    weights = schedule_weights(sched, epoch)
    assert (weights.l1 > 0) == (epoch == 22)
    batch = next(batch_iter(ds, sched.batch_size, Rng(0)))
    results, backprop = reconstruction_calls(monkeypatch)
    terms = step_joint(model, batch, weights, ModelOptimizer(model, sched),
                       Rng(5))
    assert terms["rec"] == float(np.float32(results[2]) +
                                 np.float32(results[3]))
    assert sorted(backprop) == ([0, 1, 2, 3] if weights.l1 else [0, 1])


def test_zero_weighted_cross_reconstruction_is_still_checked(monkeypatch):
    ds, model, sched = small_setup()
    sched.epochs = 1
    assert schedule_weights(sched, 0).l1 == 0
    # the rec curve column is the mean of every batch's rec_x + rec_a
    results, _ = reconstruction_calls(monkeypatch)
    (row,) = fit(model, ds, sched, Rng(0))
    recs = [float(np.float32(results[i + 2]) + np.float32(results[i + 3]))
            for i in range(0, len(results), 4)]
    assert row["rec"] == sum(recs) / len(recs) > 0
    # a NaN in the forward of rec_x of the first joint step still diverges
    monkeypatch.undo()
    _, model, _ = small_setup()
    reconstruction_calls(monkeypatch, poison=2)
    with pytest.raises(TrainingDivergence, match="loss term 'rec' in the "
                       "joint step at epoch 0, batch 0") as e:
        fit(model, ds, sched, Rng(0))
    assert e.value.term == "rec"


def test_adam_overflow_is_a_divergence_naming_the_partition():
    ds, model, sched = small_setup()
    opt = ModelOptimizer(model, sched)
    # finite, but (1 - beta2) * g * g overflows float32 (not float64: see
    # tests/test_tensor.py::test_adam_overflow_raises)
    model.enc_visual.layers[0].w.grad[0, 0] = 1e21
    with pytest.raises(TrainingDivergence, match="Adam update of partition "
                       "'enc' in the min step") as e:
        opt.step("min")
    assert (e.value.term, e.value.partition) == ("update", "enc")


def test_adam_overflow_in_the_helpers_half_names_the_partition(monkeypatch,
                                                               capfd):
    if tensor._openblas_thread_setter() is None:
        pytest.skip("no OpenBLAS thread control found")
    # small chunks, so that the small model's 'enc' partition is halved
    monkeypatch.setattr(optim, "_CHUNK", 64)
    real, raised = optim._in_halves, []

    def spy(first, second):
        started = threading.Event()

        def watched():
            started.set()
            try:
                second()
            except FloatingPointError as e:
                raised.append(threading.current_thread().name)
                raise

        def after_second_starts():  # so that the helper takes the second
            started.wait(60)
            first()

        real(after_second_starts, watched)

    monkeypatch.setattr(optim, "_in_halves", spy)
    ds, model, sched = small_setup()
    opt = ModelOptimizer(model, sched)
    assert opt.adams["enc"].data.size >= optim.SPLIT_CHUNKS * 64
    opt.adams["enc"].grad[-1] = 1e21  # in the last chunk: the helper's half
    with tensor._one_blas_thread():
        with pytest.raises(TrainingDivergence, match="Adam update of "
                           "partition 'enc' in the min step") as e:
            opt.step("min")
    assert (e.value.term, e.value.partition) == ("update", "enc")
    assert raised == ["zsalign-half_0"]
    assert "Traceback" not in capfd.readouterr().err


def test_adam_overflow_in_training_names_epoch_and_batch(scale_backward):
    ds, model, sched = small_setup()
    sched.epochs = 1
    # finite classification gradients large enough to overflow the float32
    # Adam state of the encoders, the first partition the joint step updates
    scale_backward(losses, "softmax_cross_entropy", 1e22)
    with pytest.raises(TrainingDivergence, match="partition 'enc' in the "
                       "joint step at epoch 0, batch 0") as e:
        fit(model, ds, sched, Rng(0))
    assert (e.value.epoch, e.value.batch, e.value.partition) == (0, 0, "enc")


def test_gradient_suite_builds_adversarial_terms_from_training(monkeypatch):
    real, calls = training.swd, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(training, "swd", counting)
    model, batch = gradcheck._small_setup(0)
    terms = gradcheck.loss_terms(model, batch, 0)
    for name in ("dis1", "dis2"):
        calls.clear()
        terms[name]()
        assert len(calls) == 2, name


# ---- curves file ----------------------------------------------------------

def test_write_curves_format(tmp_path):
    ds, model, sched = small_setup()
    sched.epochs = 2
    curves = fit(model, ds, sched, Rng(0))
    path = tmp_path / "curves.csv"
    write_curves(curves, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CURVES_HEADER
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(i)
        assert len(cells) == len(CURVES_HEADER.split(","))
        for cell in cells[1:]:
            float(cell)
