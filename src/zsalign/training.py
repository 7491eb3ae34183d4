"""Annealing schedule, the three-phase adversarial alternation, and the
joint objective.

Per batch the loop runs:
  1. a joint step over every parameter group (VAE terms, cross
     reconstruction, classification, latent W2 + inverse-coral),
  2. a classifier step that maximizes the sliced Wasserstein discrepancy
     between the two classifiers (encoders/decoders frozen),
  3. `inner_repeats` encoder steps that minimize that discrepancy
     (classifiers frozen).

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
from .tensor import NonFiniteError, Tensor, check_fields, softmax

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
    """A non-finite loss term, or (`term == "gradient"`) a non-finite
    gradient after backward, in the training step of `phase`."""

    def __init__(self, term, phase, epoch=None, batch=None):
        self.term, self.phase = term, phase
        self.epoch, self.batch = epoch, batch
        what = "gradient" if term == "gradient" else f"loss term '{term}'"
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
    classifiers (`cls`) and every other group (`rest`). `step(phase)`
    updates the partitions that phase trains and then clears every model
    gradient, so the frozen partitions stay bitwise untouched. The groups
    of a partition are always stepped together, so they share one Adam
    step count."""

    def __init__(self, model, sched):
        self.model = model
        rest = tuple(g for g in GROUPS if g not in ENC_GROUPS + CLS_GROUPS)
        self.adams = {
            name: Adam(model.group_params(groups), lr=sched.learning_rate,
                       beta1=sched.adam_beta1, beta2=sched.adam_beta2)
            for name, groups in (("enc", ENC_GROUPS), ("cls", CLS_GROUPS),
                                 ("rest", rest))
        }

    def step(self, phase):
        for name in PHASE_PARTITIONS[phase]:
            self.adams[name].step()
        self.model.zero_grads()


def _descend(opt, phase, terms, total):
    """The one step body: check each of `terms` (name -> scalar tensor) and
    then `total` for a finite value, backpropagate `total` and step the
    partitions `phase` trains. Returns the terms' values by name."""
    for name, t in (*terms.items(), ("total", total)):
        if not math.isfinite(float(t.data)):
            raise TrainingDivergence(name, phase)
    try:
        total.backward()
    except NonFiniteError:
        raise TrainingDivergence("gradient", phase) from None
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
    two dedicated steps."""
    t = joint_terms(model, batch, weights.gamma, rng, with_icoral)
    t["rec"] = t["rec_x"] + t["rec_a"]
    aligned = t["icoral"] + t["da"] if with_icoral else t["da"]
    total = t["vae_x"] + t["vae_a"] + weights.l1 * t["rec"] + t["cls"] + \
        weights.l3 * aligned
    terms = _descend(opt, "joint", {
        name: t[name] for name in ("vae_x", "vae_a", "rec", "cls", "da",
                                   "icoral") if name in t}, total)
    terms.setdefault("icoral", 0.0)
    return terms


def step_max_discrepancy(model, batch, weights, opt, rng, sched):
    """Update only the two classifiers: keep them accurate while pushing
    their predictions apart. Encoders and decoders are frozen."""
    sx = model.encode_visual(Tensor(batch.x)).detach()
    sa = model.encode_semantic(Tensor(batch.a)).detach()
    dirs = rng.unit_directions(sched.swd_directions,
                               model.arch.n_seen_classes)
    cls = classification_loss(model, sx, sa, batch.y)
    dis1 = -discrepancy(model, sx, sa, dirs)
    return _descend(opt, "max", {"cls": cls, "dis1": dis1},
                    cls + weights.l2 * dis1)


def step_min_discrepancy(model, batch, weights, opt, rng, sched):
    """`sched.inner_repeats` updates of only the two task-specific encoders
    to shrink the classifier discrepancy. Classifiers are frozen."""
    for _ in range(sched.inner_repeats):
        sx = model.encode_visual(Tensor(batch.x))
        sa = model.encode_semantic(Tensor(batch.a))
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
    weights = effective_weights(schedule_weights(sched, epoch), flags)
    sums = dict.fromkeys(LOSS_TERMS, 0.0)
    n_batches = 0
    r_shuffle, r_step = rng.spawn(2)
    for bi, batch in enumerate(batch_iter(ds, sched.batch_size, r_shuffle)):
        try:
            terms = step_joint(model, batch, weights, opt, r_step,
                               with_icoral=not flags.disable_icoral)
            if not flags.disable_sa:
                terms["dis1"] = step_max_discrepancy(
                    model, batch, weights, opt, r_step, sched)["dis1"]
                terms["dis2"] = step_min_discrepancy(
                    model, batch, weights, opt, r_step, sched)["dis2"]
        except TrainingDivergence as e:
            raise TrainingDivergence(e.term, e.phase, epoch, bi) from None
        for k, v in terms.items():
            sums[k] += v
        n_batches += 1
    if n_batches == 0:
        raise ValueError("empty training split")
    return {"epoch": epoch, **{t: sums[t] / n_batches for t in LOSS_TERMS},
            **asdict(weights)}


def fit(model, ds, sched, rng, flags=None, progress=None):
    """Run the full schedule; returns one `train_epoch` row per epoch."""
    check_fits_dataset(model.arch, ds)
    sched.validate()
    opt = ModelOptimizer(model, sched)
    curves = []
    epoch_rngs = rng.spawn(max(sched.epochs, 1))
    for epoch in range(sched.epochs):
        row = train_epoch(model, ds, sched, epoch, epoch_rngs[epoch], opt,
                          flags)
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
