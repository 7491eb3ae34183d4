"""Span tracing and counters for the traced benchmark run.

The wrappers are installed from here, around the public functions of each
layer, patched at the name the caller looks up; nothing inside `src/`
changes. They are installed only for the traced unit of a `--trace 1`
run, so the timed runs execute the unmodified program.
"""

import collections
import contextlib
import functools
import time

import zsalign.data
import zsalign.evaluation
import zsalign.losses
import zsalign.nn
import zsalign.optim
import zsalign.tensor
import zsalign.training

# (span name, owner, attribute): the name each caller looks the function up by
WRAPPED = (
    ("training.step_joint", zsalign.training, "step_joint"),
    ("training.step_max_discrepancy", zsalign.training,
     "step_max_discrepancy"),
    ("training.step_min_discrepancy", zsalign.training,
     "step_min_discrepancy"),
    ("tensor.backward", zsalign.tensor.Tensor, "backward"),
    ("nn.Mlp", zsalign.nn.Mlp, "__call__"),
    ("losses.l1_reconstruction", zsalign.losses, "l1_reconstruction"),
    ("losses.kl_to_standard_normal", zsalign.losses, "kl_to_standard_normal"),
    ("losses.softmax_cross_entropy", zsalign.losses, "softmax_cross_entropy"),
    ("losses.softmax_cross_entropy", zsalign.evaluation,
     "softmax_cross_entropy"),
    ("losses.sliced_wasserstein_discrepancy", zsalign.losses,
     "sliced_wasserstein_discrepancy"),
    ("losses.gaussian_w2", zsalign.losses, "gaussian_w2"),
    ("losses.icoral", zsalign.losses, "icoral"),
    ("evaluation.synthesize_latents", zsalign.evaluation,
     "synthesize_latents"),
    ("evaluation.train_softmax_classifier", zsalign.evaluation,
     "train_softmax_classifier"),
    ("evaluation.per_class_top1", zsalign.evaluation, "per_class_top1"),
)

# spans the harness opens itself, around its own calls into the layers
HARNESS_SPANS = (
    "data.synth_generate", "data.save_dataset", "model.Model",
    "model.save_checkpoint", "data.load_dataset", "model.load_checkpoint",
    "training.fit", "evaluation.czsl_eval", "evaluation.gzsl_eval",
)

SPANS = tuple(dict.fromkeys(
    HARNESS_SPANS + tuple(name for name, _, _ in WRAPPED) +
    ("data.batch_iter", "optim.Adam.step")))

STEPS = ("training.step_joint", "training.step_max_discrepancy",
         "training.step_min_discrepancy")
NOT_FORWARD = ("tensor.backward", "optim.Adam.step")

# counted while tracing; the per-batch figures divide the part counted
# inside training.fit by the number of joint steps (one per batch)
COUNTERS = {"tensor.nodes": "count", "tensor.accumulate_calls": "count",
            "tensor.matmul_flops": "flop_computed",
            "optim.param_bytes_updated": "byte_computed"}


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory
    and summarized when the run ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.fit_counts = collections.Counter()

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        before = collections.Counter(self.counts)
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)
            if name == "training.fit":
                self.fit_counts.update(self.counts - before)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def summary(self):
        """Per-layer metrics: `<span>.s`, `.self_s`, `.calls` for every span
        name, the forward time of each training step, and the counters."""
        child = [0.0] * len(self.spans)
        not_forward = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name in NOT_FORWARD:
                    not_forward[parent] += end - start
        total = collections.defaultdict(float)
        own = collections.defaultdict(float)
        forward = collections.defaultdict(float)
        calls = collections.Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if name in STEPS:
                forward[name] += end - start - not_forward[i]
        out = {}
        for name in SPANS:
            out[f"{name}.s"] = (total[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        for name in STEPS:
            out[f"{name}.forward_s"] = (forward[name], "s")
        batches = calls["training.step_joint"]
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name], unit)
            out[f"{name}_per_batch"] = (
                self.fit_counts[name] / batches if batches else 0.0, unit)
        return out

    def steps_within_fit(self):
        """(sum of training.step_* spans nested under training.fit, total
        training.fit time)."""
        fits = {i for i, s in enumerate(self.spans) if s[0] == "training.fit"}
        steps = 0.0
        for name, start, end, parent in self.spans:
            if name in STEPS:
                while parent >= 0 and parent not in fits:
                    parent = self.spans[parent][3]
                if parent >= 0:
                    steps += end - start
        fit = sum(self.spans[i][2] - self.spans[i][1] for i in fits)
        return steps, fit


@contextlib.contextmanager
def installed(tracer):
    """Patch the wrappers and counters in; restore the originals on exit."""
    Tensor = zsalign.tensor.Tensor
    Adam = zsalign.optim.Adam
    counts = tracer.counts
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for name, owner, attr in WRAPPED:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    init, accumulate, matmul = (Tensor.__init__, Tensor._accumulate,
                                Tensor.__matmul__)
    adam_step, batch_iter = Adam.step, zsalign.data.batch_iter

    def counted_init(self, *args, **kwargs):
        counts["tensor.nodes"] += 1
        init(self, *args, **kwargs)

    def counted_accumulate(self, g):
        counts["tensor.accumulate_calls"] += 1
        accumulate(self, g)

    def counted_matmul(self, other):
        # computed from operand shapes: 2*m*k*n per forward matmul
        m, k = self.data.shape
        n = (other.data if isinstance(other, Tensor) else other).shape[1]
        counts["tensor.matmul_flops"] += 2 * m * k * n
        return matmul(self, other)

    def traced_adam_step(self):
        counts["optim.param_bytes_updated"] += sum(
            p.data.nbytes for p in self.params)
        idx = tracer.begin("optim.Adam.step")
        try:
            adam_step(self)
        finally:
            tracer.end(idx)

    def traced_batch_iter(*args, **kwargs):
        # one span per wait for the next batch, the final empty wait included
        it = batch_iter(*args, **kwargs)
        while True:
            idx = tracer.begin("data.batch_iter")
            try:
                batch = next(it)
            except StopIteration:
                return
            finally:
                tracer.end(idx)
            yield batch

    patch(Tensor, "__init__", counted_init)
    patch(Tensor, "_accumulate", counted_accumulate)
    patch(Tensor, "__matmul__", counted_matmul)
    patch(Adam, "step", traced_adam_step)
    patch(zsalign.data, "batch_iter", traced_batch_iter)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
