"""Generate a small heterogeneous-domain dataset and look at its geometry.

Two views of the same class structure: visual features are a noisy tanh
map of per-class prototypes, class attributes a noiseless softplus map of
the same prototypes through a different random projection.
"""

import os
import tempfile

import numpy as np

from zsalign import SynthConfig, synth_generate, save_dataset, load_dataset

cfg = SynthConfig(n_classes=10, n_seen=7, samples_per_class=50,
                  visual_dim=64, attr_dim=16, proto_dim=8,
                  sample_noise=0.4, seed=0)
ds = synth_generate(cfg)

print(f"{ds.n_samples} samples, {ds.n_classes} classes "
      f"({len(ds.seen_classes)} seen / {len(ds.unseen_classes)} unseen)")
print(f"visual {ds.visual_dim}-d, attributes {ds.attr_dim}-d")
print(f"splits: {len(ds.train_idx)} train, {len(ds.test_seen_idx)} "
      f"test-seen, {len(ds.test_unseen_idx)} test-unseen")

# classes should be separable in visual space: nearest class mean
means = np.stack([
    ds.features[ds.train_idx][ds.labels[ds.train_idx] == c].mean(axis=0)
    for c in ds.seen_classes])
x = ds.features[ds.test_seen_idx]
pred = np.argmin(((x[:, None] - means[None]) ** 2).sum(axis=2), axis=1)
acc = np.mean(ds.seen_classes[pred] == ds.labels[ds.test_seen_idx])
print(f"nearest-class-mean accuracy on seen test split: {100 * acc:.1f}%")

# attribute vectors are pairwise distinct across classes
gaps = [np.abs(ds.attributes[i] - ds.attributes[j]).max()
        for i in range(ds.n_classes) for j in range(i + 1, ds.n_classes)]
print(f"smallest attribute gap between two classes: {min(gaps):.3f}")

# round trip through the on-disk container
with tempfile.TemporaryDirectory() as tmp:
    save_dataset(ds, os.path.join(tmp, "dataset"))
    back = load_dataset(os.path.join(tmp, "dataset"))
print("container round trip bitwise equal:",
      np.array_equal(back.features, ds.features))
