import numpy as np
import pytest

from zsalign import Rng
from zsalign.rng import _BLOCK


def reference(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [
    (2 * _BLOCK // 1000 + 31, 1000),   # rows straddle blocks, short last one
    (1, _BLOCK + 123),                 # one row wider than a block
    (0, 4),
])
def test_uniform_equals_one_whole_array_draw(shape, dtype):
    rng, ref = Rng(11), reference(11)
    got = rng.uniform(-0.3, 0.7, shape, dtype=dtype)
    want = ref.uniform(-0.3, 0.7, shape).astype(dtype)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()
    # the stream stands where the whole-array draw leaves it
    assert (rng.uniform(0.0, 1.0, (3,), dtype=np.float64).tobytes()
            == ref.uniform(0.0, 1.0, 3).tobytes())
