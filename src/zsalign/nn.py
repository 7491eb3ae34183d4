"""MLP building blocks on top of the autodiff tensor."""

import numpy as np

from .tensor import Tensor, as_tensor, node

ACTIVATIONS = ("relu", "identity")


def glorot_uniform(fan_in, fan_out, rng, dtype=np.float32):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out), dtype=dtype)


class Linear:
    """`x @ w + b`, then a ReLU if asked: the tape's `@` node, and one node
    over `(product, b)` whose backward masks the gradient once and passes it
    to the product, and its column sums to `b`. The bias and the ReLU act
    in place on the product's array, which the product's backward never
    reads, so a layer holds one activation array."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float32):
        """Glorot-uniform weights drawn from `rng`, or zeros if it is None."""
        w = (glorot_uniform(in_dim, out_dim, rng, dtype) if rng is not None
             else np.zeros((in_dim, out_dim), dtype=dtype))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros((1, out_dim), dtype=dtype), requires_grad=True)

    def __call__(self, x, relu=False):
        z, b = x @ self.w, self.b
        h = z.data
        h += b.data
        if relu:
            mask = h > 0
            h *= mask

        def backward(g):
            gz = g * mask if relu else g
            if z.requires_grad:
                z._accumulate(gz)
            if b.requires_grad:
                b._accumulate(gz.sum(axis=0, keepdims=True))

        return node(h, (z, b), backward)

    def params(self):
        return [self.w, self.b]


class Mlp:
    """A stack of affine layers with per-layer 'relu' or 'identity'."""

    def __init__(self, widths, activations, rng, dtype=np.float32):
        if len(activations) != len(widths) - 1:
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation '{a}'")
        self.layers = [Linear(widths[i], widths[i + 1], rng, dtype)
                       for i in range(len(widths) - 1)]
        self.activations = list(activations)

    def __call__(self, x):
        x = as_tensor(x)
        in_dim = self.layers[0].w.shape[0]
        if x.shape[1] != in_dim:
            raise ValueError(
                f"input has {x.shape[1]} columns, layer expects {in_dim}")
        for layer, act in zip(self.layers, self.activations):
            x = layer(x, act == "relu")
        return x

    def params(self):
        return [p for layer in self.layers for p in layer.params()]
