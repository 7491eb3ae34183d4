"""Train the two partially-aligned VAEs on a small dataset and watch the
loss terms and annealing weights evolve.

Per batch the loop takes three steps: a joint step over the whole model,
a classifier step that pushes the two classifiers' predictions apart, and
an encoder step that pulls them back together.
"""

import os
import tempfile

from zsalign import (Architecture, Model, Rng, SynthConfig, TrainSchedule,
                     fit, synth_generate, write_curves)

ds = synth_generate(SynthConfig(n_classes=10, n_seen=7, samples_per_class=50,
                                visual_dim=64, attr_dim=16, proto_dim=8,
                                sample_noise=0.4, seed=0))

arch = Architecture(visual_dim=ds.visual_dim, attr_dim=ds.attr_dim,
                    n_seen_classes=len(ds.seen_classes),
                    structure_dim=64, latent_dim=16, common_hidden=32,
                    dec_visual_hidden=32, dec_semantic_hidden=16)
model = Model(arch, Rng(0))
sched = TrainSchedule(epochs=30, batch_size=32, swd_directions=16)


def show(row):
    if row["epoch"] % 5 == 0:
        print(f"epoch {row['epoch']:3d}  vae_x {row['vae_x']:8.3f}  "
              f"rec {row['rec']:8.3f}  cls {row['cls']:6.3f}  "
              f"da {row['da']:6.3f}  gamma {row['gamma']:.4f}  "
              f"l1 {row['l1']:.3f}  l2 {row['l2']:.2f}")


curves = fit(model, ds, sched, Rng(1), progress=show)

first, last = curves[0], curves[-1]
print(f"\nreconstruction: {first['vae_x']:.2f} -> {last['vae_x']:.2f}")
print(f"classification: {first['cls']:.3f} -> {last['cls']:.3f}")

path = os.path.join(tempfile.mkdtemp(prefix="zsalign_demo_"), "curves.csv")
write_curves(curves, path)
print(f"full per-epoch table in {path}")
