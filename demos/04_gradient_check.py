"""Verify every loss term's analytic gradient against finite differences.

Each of the nine terms is rebuilt on a tiny float64 model with fixed
noise and projection directions, then every parameter is perturbed both
ways and the central difference compared to the backward pass.
"""

import time

from zsalign import losses
from zsalign.gradcheck import run_gradcheck
from zsalign.tensor import node

t0 = time.time()
results = run_gradcheck(seed=0)
width = max(len(name) for name, _, _ in results)
for name, err, passed in results:
    print(f"{name:<{width}}  rel_err {err:.3e}  "
          f"{'pass' if passed else 'FAIL'}")
print(f"\n{sum(p for _, _, p in results)}/{len(results)} terms passed "
      f"in {time.time() - t0:.1f}s")

# the checker must also notice a wrong gradient: make the backward pass of
# the latent W2 loss ('da') 5% too large, in the graph that trains, and
# confirm the check fails
real_w2 = losses.gaussian_w2


def faulty_w2(gx, ga):
    out = real_w2(gx, ga)
    return node(out.data, (out,), lambda g: out._accumulate(1.05 * g))


losses.gaussian_w2 = faulty_w2
try:
    results = run_gradcheck(seed=0)
finally:
    losses.gaussian_w2 = real_w2
corrupted = dict((name, passed) for name, _, passed in results)
print(f"\nwith an injected fault in 'da': "
      f"{'detected' if not corrupted['da'] else 'MISSED'}")
