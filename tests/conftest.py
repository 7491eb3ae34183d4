import pytest

from zsalign.tensor import node


@pytest.fixture
def scale_backward(monkeypatch):
    """`scale_backward(module, name, factor)` replaces the function
    `module.name` by one that returns the same value but passes its
    gradient back scaled by `factor`: a fault in the backward pass of a real
    loss, inside the graph that trains."""

    def install(module, name, factor):
        real = getattr(module, name)

        def faulty(*args):
            out = real(*args)
            return node(out.data, (out,),
                        lambda g: out._accumulate(g * factor))

        monkeypatch.setattr(module, name, faulty)

    return install
