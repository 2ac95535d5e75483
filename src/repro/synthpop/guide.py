"""Weighted draws through a guide table: inverse-CDF sampling that
returns ``np.searchsorted(cdf, u, side="right")`` without a binary
search.

Both population generators route visits to locations with probability
proportional to attractiveness: one uniform ``u`` per draw, answered by
the first index ``i`` with ``cdf[i] > u``.  A binary search over a
tens-of-thousands-entry CDF costs ~15 dependent random reads per draw;
a guide table (Chen & Asau) replaces it with one read of a precomputed
bucket start and a few forward steps:

* ``M`` is the largest power of two ``<= len(cdf)``, and
  ``guide[j] = searchsorted(cdf, j / M, "right")`` for ``j`` in
  ``0..M``.  Both ``u * M`` and ``j / M`` are exact for a power-of-two
  ``M``, so ``j = floor(u * M)`` puts ``u`` in ``[j / M, (j + 1) / M)``
  and the answer in ``[guide[j], guide[j + 1]]``;
* from ``guide[j]`` each step advances while ``cdf[i] <= u``; it stops
  at the first ``cdf[i] > u``, the answer, because ``cdf`` does not
  decrease.  An ``inf`` after the last entry stops a row at
  ``len(cdf)``.

On attractiveness CDFs about 70% of draws stop at ``guide[j]`` and
almost all within two steps, so two steps run over every row and the
rest over the rows still open; rows open after :data:`MAX_STEPS` more
finish in ``np.searchsorted``, so one dominant weight (every other
entry in one bucket) costs no more than the search.  The table is
``M + 1`` int32 entries where the pool fits: about half the CDF's
bytes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GuideTable", "check_weights"]

#: Forward steps over the open rows before they fall back to
#: ``np.searchsorted``.
MAX_STEPS = 16


def check_weights(weights: np.ndarray) -> None:
    """Raise ``ValueError`` where ``Generator.choice(p=...)`` would:
    an empty pool, a negative or non-finite weight, or no weight at all.

    >>> check_weights(np.array([1.0, -1.0]))
    Traceback (most recent call last):
    ...
    ValueError: weights must be non-negative
    """
    if weights.size == 0:
        raise ValueError("cannot draw from an empty pool")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    if not weights.sum() > 0:
        raise ValueError("weights must not all be zero")


class GuideTable:
    """``np.searchsorted(cdf, u, "right")`` for uniforms ``u`` in
    ``[0, 1]``, through a guide table over a non-decreasing ``cdf``.

    >>> cdf = np.array([0.1, 0.1, 0.5, 0.75, 1.0])
    >>> u = np.array([0.0, 0.1, 0.3, 0.75, 0.9999])
    >>> GuideTable(cdf).search(u).tolist(), np.searchsorted(cdf, u, "right").tolist()
    ([0, 2, 2, 4, 4], [0, 2, 2, 4, 4])
    """

    __slots__ = ("cdf", "guide", "scale")

    def __init__(self, cdf: np.ndarray):
        n = cdf.shape[0]
        m = 1 << (n.bit_length() - 1)
        guide = np.searchsorted(cdf, np.arange(m + 1) / m, side="right")
        self.guide = guide.astype(np.int32) if n < 2**31 else guide
        self.cdf = np.append(cdf, np.inf)
        self.scale = float(m)

    def search(self, u: np.ndarray) -> np.ndarray:
        cdf = self.cdf
        i = self.guide[(u * self.scale).astype(np.intp)].astype(np.intp)
        i += cdf[i] <= u
        i += cdf[i] <= u
        rows = np.flatnonzero(cdf[i] <= u)
        for _ in range(MAX_STEPS):
            if rows.size == 0:
                return i
            i[rows] += 1
            rows = rows[cdf[i[rows]] <= u[rows]]
        i[rows] = np.searchsorted(cdf, u[rows], side="right")
        return i
