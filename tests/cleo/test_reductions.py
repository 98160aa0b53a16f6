"""The per-event reductions vs the ``ndarray`` methods they stand in for.

``mean_of``, ``std_of`` and ``max_of`` must return the same bits as
``.mean()``, ``.std()`` and ``.max()``: same dtype, same value, same sign of
zero.  Lengths run past numpy's 8-element pairwise-sum threshold and its
128-element block, and the arrays are contiguous or a strided column of an
``(n, 3)`` block, which is how the CLEO path reads its tracks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleo.reductions import max_of, mean_of, std_of

PAIRS = ((mean_of, "mean"), (std_of, "std"), (max_of, "max"))


@st.composite
def track_columns(draw):
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    n = draw(st.integers(1, 200))
    finfo = np.finfo(dtype)
    # Extreme magnitudes: finite values whose sums and squares overflow,
    # and values whose squares underflow.
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3, float(finfo.tiny), float(finfo.max) / 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = (np.clip(rng.normal(0.0, 1.0, size=(n, 3)), -4.0, 4.0) * scale).astype(dtype)
    shape = draw(st.sampled_from(["plain", "constant", "negative zero"]))
    if shape == "constant":
        block[:] = block[0]  # zero spread
    elif shape == "negative zero":
        block[:: draw(st.integers(1, 3))] = -0.0
    column = block[:, draw(st.integers(0, 2))]
    return np.ascontiguousarray(column) if draw(st.booleans()) else column


@given(values=track_columns())
@settings(max_examples=600, deadline=None)
def test_each_helper_returns_the_methods_bits(values):
    with np.errstate(over="ignore", invalid="ignore"):
        for helper, method in PAIRS:
            got = helper(values)
            expected = getattr(values, method)()
            assert type(got) is type(expected), method
            assert got.tobytes() == expected.tobytes(), (method, got, expected)


def test_lengths_across_the_pairwise_thresholds():
    """Every length 1-200 once, float32 and float64, contiguous and strided."""
    rng = np.random.default_rng(43)
    for dtype in (np.float32, np.float64):
        for n in range(1, 201):
            block = rng.normal(0.0, 30.0, size=(n, 3)).astype(dtype)
            for values in (block[:, 1], np.ascontiguousarray(block[:, 1])):
                for helper, method in PAIRS:
                    assert helper(values).tobytes() == getattr(values, method)().tobytes()


def test_negative_zero_reduces_as_numpy_does():
    """numpy's sum of ``[-0.0]`` is ``+0.0`` but its max is ``-0.0``."""
    for dtype in (np.float32, np.float64):
        values = np.array([-0.0], dtype=dtype)
        for helper, method in PAIRS:
            assert helper(values).tobytes() == getattr(values, method)().tobytes()
        assert not np.signbit(mean_of(values)) and np.signbit(max_of(values))
