import json
import struct

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


@pytest.fixture
def with_header():
    """`with_header(raw, edit)`: the checkpoint bytes `raw` with its JSON
    header replaced by `edit(header)` and the header length updated."""

    def rewrite(raw, edit):
        (hlen,) = struct.unpack("<Q", raw[:8])
        hbytes = json.dumps(edit(json.loads(raw[8:8 + hlen]))).encode("utf-8")
        return struct.pack("<Q", len(hbytes)) + hbytes + raw[8 + hlen:]

    return rewrite
