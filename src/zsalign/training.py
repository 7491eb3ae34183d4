"""Annealing schedule, the three-phase adversarial alternation, and the
joint objective.

Per batch the loop runs:
  1. a joint step over every parameter group (VAE terms, cross
     reconstruction, classification, latent W2 + inverse-coral),
  2. a classifier step that maximizes the sliced Wasserstein discrepancy
     between the two classifiers (encoders/decoders frozen),
  3. `inner_repeats` encoder steps that minimize that discrepancy
     (classifiers frozen).
Steps 2 and 3 start from the same encoders, so one encoder forward
(`encode_structure`) serves step 2, as constants, and the first
repeat of step 3.

The loss graph is written once, in `joint_terms`, `classification_loss`
and `discrepancy`. The three steps build from them and descend through
one body, `_descend`; the finite-difference suite in `gradcheck.py`
builds from the same functions, so it checks the gradients of the graph
that trains.
"""

import math
from dataclasses import dataclass, asdict

from . import losses
from .model import GROUPS, check_fits_dataset
from .optim import Adam
from .tensor import (NonFiniteError, Tensor, _one_blas_thread, all_finite,
                     check_fields, softmax)

CLS_GROUPS = ("cls1", "cls2")
ENC_GROUPS = ("enc_visual", "enc_semantic")
# the ModelOptimizer partitions each training phase updates
PHASE_PARTITIONS = {"joint": ("enc", "cls", "rest"), "max": ("cls",),
                    "min": ("enc",)}

# annealing rates and end epochs; the weights stay constant afterwards
GAMMA_RATE, GAMMA_END = 0.0026, 90
L1_RATE, L1_START, L1_END = 0.044, 21, 75
L23_RATE, L23_END = 0.54, 22

LOSS_TERMS = ("vae_x", "vae_a", "rec", "cls", "dis1", "dis2", "da", "icoral")


class TrainingDivergence(RuntimeError):
    """A non-finite loss term, or a non-finite gradient (`term ==
    "gradient"`) or Adam update (`term == "update"`) of the
    `ModelOptimizer` partition `partition`, in the training step of
    `phase`."""

    def __init__(self, term, phase, epoch=None, batch=None, partition=None):
        self.term, self.phase, self.partition = term, phase, partition
        self.epoch, self.batch = epoch, batch
        what = {"gradient": "gradient",
                "update": f"Adam update of partition '{partition}'"}.get(
                    term, f"loss term '{term}'")
        where = "" if epoch is None else f" at epoch {epoch}, batch {batch}"
        super().__init__(f"non-finite {what} in the {phase} step{where}")


@dataclass
class TrainSchedule:
    epochs: int = 100
    batch_size: int = 50
    learning_rate: float = 1.5e-4
    swd_directions: int = 128
    inner_repeats: int = 1
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999

    def validate(self):
        check_fields(self, zero_ok=("epochs",))
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}")


@dataclass
class Weights:
    gamma: float
    l1: float
    l2: float
    l3: float


def schedule_weights(sched, epoch):
    """Piecewise-linear annealing; non-decreasing, constant after the end
    epochs (90 / 75 / 22)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    gamma = GAMMA_RATE * min(epoch, GAMMA_END)
    l1 = L1_RATE * max(0, min(epoch, L1_END) - L1_START)
    l23 = L23_RATE * min(epoch, L23_END)
    return Weights(gamma=gamma, l1=l1, l2=l23, l3=l23)


class ModelOptimizer:
    """One Adam per freezing partition: the task encoders (`enc`), the
    classifiers (`cls`) and the other groups (`rest`). It alone decides
    what a phase trains: `begin(phase)` makes each partition the phase
    does not train a constant on the tape (`requires_grad` off); `step`
    checks the trained ones' gradients for finite values, steps them and
    turns every flag back on. A divergence names the partition and may
    leave the flags as `begin` set them."""

    def __init__(self, model, sched):
        rest = tuple(g for g in GROUPS if g not in ENC_GROUPS + CLS_GROUPS)
        self.adams = {
            name: Adam(model.group_params(groups), lr=sched.learning_rate,
                       beta1=sched.adam_beta1, beta2=sched.adam_beta2)
            for name, groups in (("enc", ENC_GROUPS), ("cls", CLS_GROUPS),
                                 ("rest", rest))
        }

    def begin(self, phase):
        for name, adam in self.adams.items():
            for p in adam.params:
                p.requires_grad = name in PHASE_PARTITIONS[phase]

    def step(self, phase):
        names = PHASE_PARTITIONS[phase]
        for name in names:
            if not all_finite(self.adams[name].grad):
                raise TrainingDivergence("gradient", phase, partition=name)
        for name in names:
            try:
                self.adams[name].step()
            except NonFiniteError:
                raise TrainingDivergence("update", phase,
                                         partition=name) from None
        self.begin("joint")  # the joint step trains every partition


def _descend(opt, phase, terms, total):
    """The one step body: check each of `terms` (name -> scalar tensor) and
    then `total` for a finite value, backpropagate `total` and step the
    partitions `phase` trains. Returns the terms' values by name."""
    for name, t in (*terms.items(), ("total", total)):
        if not math.isfinite(float(t.data)):
            raise TrainingDivergence(name, phase)
    total.backward()
    opt.step(phase)
    return {name: float(t.data) for name, t in terms.items()}


# ---- the loss graph: one definition, built by the three steps and by the
# finite-difference suite in gradcheck.py ------------------------------------

def classification_loss(model, sx, sa, y):
    """Cross-entropy of both classifiers on both structure embeddings."""
    total = None
    for s in (sx, sa):
        for classifier in (model.cls1, model.cls2):
            term = losses.softmax_cross_entropy(classifier(s), y)
            total = term if total is None else total + term
    return total


def swd(model, s, dirs):
    """Sliced Wasserstein discrepancy between the two classifiers'
    predictions on the structure embedding `s`."""
    p1 = softmax(model.cls1(s))
    p2 = softmax(model.cls2(s))
    return losses.sliced_wasserstein_discrepancy(p1, p2, dirs)


def discrepancy(model, sx, sa, dirs):
    """The supervised adversarial discrepancy: `swd` on the visual plus on
    the semantic structure embedding. The classifier step maximizes it and
    the encoder step minimizes it."""
    return swd(model, sx, dirs) + swd(model, sa, dirs)


def joint_terms(model, batch, gamma, rng, with_icoral=True):
    """Unweighted term tensors of the joint objective. Noise is drawn from
    `rng` for the visual, then the semantic, then (only with the inverse
    coral term) the unseen-class latents."""
    x = Tensor(batch.x)
    a = Tensor(batch.a)
    sx = model.encode_visual(x)
    sa = model.encode_semantic(a)
    gx = model.encode_common(sx)
    ga = model.encode_common(sa)
    zx = model.reparameterize(gx, rng)
    za = model.reparameterize(ga, rng)
    terms = {
        "vae_x": losses.l1_reconstruction(x, model.dec_visual(zx)) +
        gamma * losses.kl_to_standard_normal(gx),
        "vae_a": losses.l1_reconstruction(a, model.dec_semantic(za)) +
        gamma * losses.kl_to_standard_normal(ga),
        "rec_x": losses.l1_reconstruction(x, model.dec_visual(za)),
        "rec_a": losses.l1_reconstruction(a, model.dec_semantic(zx)),
        "cls": classification_loss(model, sx, sa, batch.y),
        "da": losses.gaussian_w2(gx, ga),
    }
    if with_icoral:
        gu = model.encode_common(
            model.encode_semantic(Tensor(batch.unseen_attrs)))
        terms["icoral"] = losses.icoral(zx, model.reparameterize(gu, rng))
    return terms


def step_joint(model, batch, weights, opt, rng, with_icoral=True):
    """One Adam step of the full objective over all parameter groups;
    returns the loss terms. The adversarial discrepancy terms live in the
    two dedicated steps. While `weights.l1` is 0 the cross reconstruction
    `rec` is formed, checked and returned but left out of the total, so
    it is not backpropagated."""
    opt.begin("joint")
    t = joint_terms(model, batch, weights.gamma, rng, with_icoral)
    t["rec"] = t["rec_x"] + t["rec_a"]
    aligned = t["icoral"] + t["da"] if with_icoral else t["da"]
    total = t["vae_x"] + t["vae_a"]
    if weights.l1:  # at weight 0 the cross reconstruction passes back zeros
        total = total + weights.l1 * t["rec"]
    total = total + t["cls"] + weights.l3 * aligned
    terms = _descend(opt, "joint", {
        name: t[name] for name in ("vae_x", "vae_a", "rec", "cls", "da",
                                   "icoral") if name in t}, total)
    terms.setdefault("icoral", 0.0)
    return terms


def encode_structure(model, batch):
    """The structure embeddings `(sx, sa)` of the batch's visual features
    and attributes."""
    return (model.encode_visual(Tensor(batch.x)),
            model.encode_semantic(Tensor(batch.a)))


def step_max_discrepancy(model, batch, weights, opt, rng, sched, enc=None):
    """Update only the two classifiers: keep them accurate while pushing
    their predictions apart. Encoders and decoders are frozen. `enc`, if
    given, is `encode_structure` of the batch under the current encoders;
    the step reads only its values."""
    opt.begin("max")
    sx, sa = (Tensor(s.data) for s in enc or encode_structure(model, batch))
    dirs = rng.unit_directions(sched.swd_directions,
                               model.arch.n_seen_classes)
    cls = classification_loss(model, sx, sa, batch.y)
    dis1 = -discrepancy(model, sx, sa, dirs)
    return _descend(opt, "max", {"cls": cls, "dis1": dis1},
                    cls + weights.l2 * dis1)


def step_min_discrepancy(model, batch, weights, opt, rng, sched, enc=None):
    """`sched.inner_repeats` updates of only the two task-specific encoders
    to shrink the classifier discrepancy. Classifiers are frozen. `enc`,
    if given, is `encode_structure` of the batch built while the encoders
    were trainable and have not changed since; the first update
    backpropagates through it, and later updates encode afresh."""
    for _ in range(sched.inner_repeats):
        opt.begin("min")
        sx, sa = enc or encode_structure(model, batch)
        enc = None  # each update moves the encoders
        dirs = rng.unit_directions(sched.swd_directions,
                                   model.arch.n_seen_classes)
        dis2 = discrepancy(model, sx, sa, dirs)
        terms = _descend(opt, "min", {"dis2": dis2}, weights.l2 * dis2)
    return terms


@dataclass
class AblationFlags:
    disable_sa: bool = False
    disable_da_icoral: bool = False
    disable_icoral: bool = False

    def validate(self):
        check_fields(self)


def effective_weights(weights, flags):
    w = Weights(**asdict(weights))
    if flags.disable_sa:
        w.l2 = 0.0
    if flags.disable_da_icoral:
        w.l3 = 0.0
    return w


def train_epoch(model, ds, sched, epoch, rng, opt, flags=None):
    """One pass of shuffled mini-batches; per batch: joint step, classifier
    discrepancy maximization, encoder discrepancy minimization. Returns the
    epoch's curves row: the epoch, the mean loss terms and the weights."""
    # imported at call time, so that the tracer's patched data.batch_iter
    # (bench/tracing.py) is the one called
    from .data import batch_iter
    sched.validate()
    flags = flags or AblationFlags()
    # inverse CORAL takes covariances of each batch and of its unseen block
    rows, unseen = len(ds.train_idx), len(ds.unseen_classes)
    last = rows % sched.batch_size or sched.batch_size
    if not flags.disable_icoral and (last < 2 or unseen < 2):
        raise ValueError(
            f"inverse CORAL needs at least 2 rows per batch and 2 unseen "
            f"classes: {rows} training rows at batch_size {sched.batch_size} "
            f"leave a last batch of {last}, with {unseen} unseen classes")
    weights = effective_weights(schedule_weights(sched, epoch), flags)
    sums = dict.fromkeys(LOSS_TERMS, 0.0)
    n_batches = 0
    r_shuffle, r_step = rng.spawn(2)
    for bi, batch in enumerate(batch_iter(ds, sched.batch_size, r_shuffle)):
        try:
            terms = step_joint(model, batch, weights, opt, r_step,
                               with_icoral=not flags.disable_icoral)
            if not flags.disable_sa:
                # the classifier step trains only `cls`, so one forward of
                # the trainable encoders serves it and the first encoder step
                opt.begin("min")
                enc = encode_structure(model, batch)
                terms["dis1"] = step_max_discrepancy(
                    model, batch, weights, opt, r_step, sched, enc)["dis1"]
                terms["dis2"] = step_min_discrepancy(
                    model, batch, weights, opt, r_step, sched, enc)["dis2"]
                del enc  # free the forward before the next batch's
        except TrainingDivergence as e:
            raise TrainingDivergence(e.term, e.phase, epoch, bi,
                                     e.partition) from None
        for k, v in terms.items():
            sums[k] += v
        n_batches += 1
    if n_batches == 0:
        raise ValueError("empty training split")
    return {"epoch": epoch, **{t: sums[t] / n_batches for t in LOSS_TERMS},
            **asdict(weights)}


def fit(model, ds, sched, rng, flags=None, progress=None):
    """Run the full schedule; returns one `train_epoch` row per epoch.
    Every product runs at one OpenBLAS thread (`tensor._one_blas_thread`),
    so the bytes do not depend on the configured count."""
    check_fits_dataset(model.arch, ds)
    sched.validate()
    opt = ModelOptimizer(model, sched)
    curves = []
    epoch_rngs = rng.spawn(max(sched.epochs, 1))
    with _one_blas_thread():
        for epoch in range(sched.epochs):
            row = train_epoch(model, ds, sched, epoch, epoch_rngs[epoch],
                              opt, flags)
            curves.append(row)
            if progress is not None:
                progress(row)
    return curves


# the curves.csv columns after the epoch: loss terms, then annealing weights
CURVE_COLUMNS = LOSS_TERMS + tuple(Weights.__dataclass_fields__)
CURVES_HEADER = ",".join(("epoch",) + CURVE_COLUMNS)


def write_curves(curves, path):
    lines = [CURVES_HEADER]
    for row in curves:
        lines.append(",".join([str(int(row["epoch"]))] +
                              [f"{row[key]:.6f}" for key in CURVE_COLUMNS]))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
