"""The benchmark workloads and the operations they time.

Every workload runs the same user journey through the public API, the
`zsalign synth` / `train` / `eval` path:

  set-up  synth_generate -> save_dataset, Model -> save_checkpoint
  train   load_dataset, load_checkpoint, fit (timed per epoch), write
          curves and the trained checkpoint
  eval    repeated: load_dataset, load_checkpoint, czsl_eval, gzsl_eval
          (timed)

A unit is train then eval of the trained checkpoint, or, on paper_eval,
eval of the initial checkpoint then train, so that the process's peak
resident set is read before it has ever trained. What differs is the
geometry, and with it the layer that dominates:

  bench_fit   the acceptance-suite geometry; tape overhead (tensor,
              training glue, nn, losses) dominates the epochs
  paper_fit   the default 12.6M-parameter Architecture on CUB-like data,
              several short epochs; Adam and BLAS dominate
  paper_eval  the same paper-scale model and data, CZSL/GZSL at default
              counts: ~14k tiny classifier steps plus forward-only encodes
              dominate; then one short epoch
"""

import contextlib
import hashlib
import os
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from zsalign import (Architecture, EvalCounts, Model, Rng, SynthConfig,
                     TrainingDivergence, TrainSchedule, czsl_eval, fit,
                     gzsl_eval, load_checkpoint, load_dataset, save_checkpoint,
                     save_dataset, synth_generate, write_curves)

# CUB-like: 200 classes (150 seen / 50 unseen), 2048-d visual, 312-d
# attributes; 2 training images per seen class keep an epoch short
CUB_LIKE = dict(n_classes=200, n_seen=150, samples_per_class=4,
                visual_dim=2048, attr_dim=312, train_fraction=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict                   # SynthConfig fields except the seed
    arch: dict                    # Architecture fields beyond the data dims
    sched: dict                   # TrainSchedule fields
    czsl: EvalCounts = None       # None: the library's default counts
    gzsl: EvalCounts = None
    evals: int = 1                # evaluations per unit
    eval_initial: bool = False    # evaluate the initial checkpoint first


WORKLOADS = {w.name: w for w in (
    # tests/test_acceptance.py: BENCH_SYNTH (its seed aside), BENCH_ARCH,
    # 32 SWD directions, batch 50
    Workload("bench_fit",
             synth=dict(sample_noise=0.5, proto_dim=8),
             arch=dict(structure_dim=128, latent_dim=64, common_hidden=64,
                       dec_visual_hidden=64, dec_semantic_hidden=32),
             sched=dict(epochs=10, swd_directions=32)),
    Workload("paper_fit", synth=CUB_LIKE, arch={},
             sched=dict(epochs=3, swd_directions=128),
             czsl=EvalCounts(unseen=20, seen=0),
             gzsl=EvalCounts(unseen=20, seen=10), evals=2),
    Workload("paper_eval", synth=CUB_LIKE, arch={},
             sched=dict(epochs=1, swd_directions=128), eval_initial=True),
)}


def _fewer(counts):
    return counts and EvalCounts(unseen=min(counts.unseen, 5),
                                 seen=min(counts.seen, 5))


def tiny(w):
    """The same workload with its dimensions and counts shrunk so that it
    runs in about a second (smoke test). Everything else it sets is kept:
    its other data and schedule fields, default or reduced evaluation
    counts, evaluations per unit and unit order."""
    return replace(
        w, synth=dict(w.synth, n_classes=6, n_seen=4, samples_per_class=10,
                      visual_dim=16, attr_dim=8, proto_dim=4),
        arch=dict(w.arch, structure_dim=12, latent_dim=4, common_hidden=8,
                  dec_visual_hidden=8, dec_semantic_hidden=6),
        sched=dict(w.sched, epochs=min(w.sched["epochs"], 2), batch_size=10,
                   swd_directions=8),
        czsl=_fewer(w.czsl), gzsl=_fewer(w.gzsl))


@dataclass(frozen=True)
class Seeds:
    data: int
    model: int
    train: int
    eval: int

    @classmethod
    def derive(cls, seed):
        return cls(*(int(s) for s in
                     np.random.SeedSequence(seed).generate_state(4)))


def no_span(name):
    return contextlib.nullcontext()


def sha256_files(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def setup(w, seeds, workdir, span=no_span):
    """Generate the inputs and write them where the unit reads them.
    Returns the sha256 of the written files."""
    data_dir = os.path.join(workdir, "data")
    ckpt = os.path.join(workdir, "init.bin")
    with span("data.synth_generate"):
        ds = synth_generate(SynthConfig(**w.synth, seed=seeds.data))
    with span("data.save_dataset"):
        save_dataset(ds, data_dir)
    arch = Architecture(visual_dim=ds.visual_dim, attr_dim=ds.attr_dim,
                        n_seen_classes=len(ds.seen_classes), **w.arch)
    with span("model.Model"):
        model = Model(arch, Rng(seeds.model))
    with span("model.save_checkpoint"):
        save_checkpoint(model, ckpt)
    return sha256_files(*(os.path.join(data_dir, name)
                          for name in sorted(os.listdir(data_dir))), ckpt)


@dataclass
class UnitResult:
    epoch_s: list = field(default_factory=list)
    train_rows: int = 0           # rows per epoch
    eval_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0
    peak_rss_mb: float = 0.0      # the process's, when the evals end

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)


def _finite_percent(x):
    return bool(np.isfinite(x)) and 0.0 <= x <= 100.0


def _load(workdir, ckpt, span):
    with span("data.load_dataset"):
        ds = load_dataset(os.path.join(workdir, "data"))
    with span("model.load_checkpoint"):
        model = load_checkpoint(ckpt)
    return ds, model


def _train(w, seeds, workdir, res, span):
    """`zsalign train`: load the initial checkpoint, fit, write curves.csv
    and the trained checkpoint. Returns False if training diverged."""
    ds, model = _load(workdir, os.path.join(workdir, "init.bin"), span)
    sched = TrainSchedule(**w.sched)
    last = [time.perf_counter()]

    def progress(row):
        now = time.perf_counter()
        res.epoch_s.append(now - last[0])
        last[0] = now

    try:
        with span("training.fit"):
            curves = fit(model, ds, sched, Rng(seeds.train),
                         progress=progress)
    except TrainingDivergence as e:
        res.attempted += len(res.epoch_s) + 1
        res.fail(str(e))
        return False
    res.train_rows = len(ds.train_idx)
    res.attempted += len(curves)
    for row in curves:
        if not all(np.isfinite(v) for v in row.values()):
            res.fail(f"non-finite curves row {row['epoch']}")
    curves_path = os.path.join(workdir, "curves.csv")
    trained = os.path.join(workdir, "trained.bin")
    write_curves(curves, curves_path)
    save_checkpoint(model, trained)
    res.checkpoint_bytes = os.path.getsize(trained)
    res.digests.update(curves=sha256_files(curves_path),
                       checkpoint=sha256_files(trained))
    return True


def _evaluate(w, seeds, workdir, ckpt, res, span):
    """`zsalign eval` (without its latents dump), `w.evals` times: load the
    dataset and the checkpoint, then CZSL and GZSL; every repeat must
    reproduce the first one's metrics bytes."""
    for _ in range(w.evals):
        r_czsl, r_gzsl = Rng(seeds.eval).spawn(2)
        t0 = time.perf_counter()
        ds, model = _load(workdir, ckpt, span)
        with span("evaluation.czsl_eval"):
            rep_c = czsl_eval(model, ds, w.czsl, rng=r_czsl)
        with span("evaluation.gzsl_eval"):
            rep_g = gzsl_eval(model, ds, w.gzsl, rng=r_gzsl)
        res.eval_s.append(time.perf_counter() - t0)
        res.attempted += 2
        for rep, values in ((rep_c, [rep_c.acc]),
                            (rep_g, [rep_g.u, rep_g.s, rep_g.h])):
            if not all(_finite_percent(v) for v in
                       values + list(rep.per_class.values())):
                res.fail(f"{rep.protocol} accuracy not in [0, 100]")
        metrics = (rep_c.to_json() + "\n" + rep_g.to_json() + "\n").encode()
        digest = hashlib.sha256(metrics).hexdigest()
        if res.digests.setdefault("metrics", digest) != digest:
            res.fail("repeated evaluation changed the metrics JSON")
        res.quality = {"czsl_acc": rep_c.acc, "gzsl_u": rep_g.u,
                       "gzsl_s": rep_g.s, "gzsl_h": rep_g.h}
        del ds, model
    res.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_unit(w, seeds, workdir, span=no_span):
    """Train then evaluate the trained checkpoint or, with `w.eval_initial`,
    evaluate the initial checkpoint then train; the outputs are checked
    and digested."""
    res = UnitResult()
    if w.eval_initial:
        _evaluate(w, seeds, workdir, os.path.join(workdir, "init.bin"), res,
                  span)
        _train(w, seeds, workdir, res, span)
    elif _train(w, seeds, workdir, res, span):
        _evaluate(w, seeds, workdir, os.path.join(workdir, "trained.bin"),
                  res, span)
    return res
