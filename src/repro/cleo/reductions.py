"""The reductions the CLEO path takes over one event's few tracks.

Every event carries 1-12 tracks, and reconstruction, post-reconstruction
and analysis each reduce them a handful of times.  ``ndarray.mean()``,
``.std()`` and ``.max()`` spend several microseconds in numpy's Python
wrapper (``numpy/_core/_methods.py``) around well under one of arithmetic,
so at this grain the wrapper, not the arithmetic, sets the events/s.

Each helper returns the same bits as the ``ndarray`` method it names, for
a non-empty 1-D float array of any length or stride:

- the sum is the same ``np.add.reduce`` (numpy's pairwise sum, in the
  array's dtype);
- numpy divides that sum by an ``np.intp`` count in float64 and casts the
  quotient back to the array's dtype, which is what a Python float
  division followed by the same cast does;
- the standard deviation squares the deviations from that mean in the
  array's dtype and takes the square root of their mean.  A float32
  square root taken in double precision and rounded once is correctly
  rounded (53 >= 2 * 24 + 2 bits), so ``math.sqrt`` gives ``np.sqrt``'s
  bits.

Callers refuse an event with no tracks before they reduce its arrays.
"""

from __future__ import annotations

import math

import numpy as np


def mean_of(values: np.ndarray) -> np.generic:
    """``values.mean()``."""
    total = np.add.reduce(values)
    return total.dtype.type(float(total) / values.size)


def std_of(values: np.ndarray) -> np.generic:
    """``values.std()``: the population (ddof 0) standard deviation."""
    deviations = values - mean_of(values)
    deviations *= deviations
    variance = mean_of(deviations)
    return variance.dtype.type(math.sqrt(variance))


def max_of(values: np.ndarray) -> np.generic:
    """``values.max()``."""
    return np.maximum.reduce(values)
