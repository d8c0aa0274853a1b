"""Equi-width histograms for selectivity estimation.

The uniform min/max assumption in
:meth:`~repro.optimizer.query.FilterPredicate.selectivity` is the
System R default; real optimizers refine it with histograms.  An
:class:`EquiWidthHistogram` over a numeric column answers range and
equality selectivities with per-bucket resolution, degrading gracefully
to the uniform assumption inside a bucket.
"""

import math

import numpy as np

from repro.common.errors import CatalogError


def extremes(values):
    """``(min, max)`` of a non-empty numpy array, as Python scalars.

    Each is the *first* element equal to the extreme, as Python's
    ``min`` and ``max`` return it, so the sign of a zero extreme is
    the first zero's whichever zero numpy's reduction returns.
    """
    low, high = values.min(), values.max()
    return (values[(values == low).argmax()].item(),
            values[(values == high).argmax()].item())


class EquiWidthHistogram:
    """Fixed-width bucket histogram over numeric values.

    Parameters
    ----------
    values:
        Numeric samples (the column's values): a numpy array, or any
        iterable (its ``None`` entries are dropped).  Counted as
        float64.
    buckets:
        Bucket count; clamped to at least 1.
    """

    def __init__(self, values, buckets=32):
        if not isinstance(values, np.ndarray):
            values = [v for v in values if v is not None]
        values = np.asarray(values, dtype=np.float64)
        self.total = len(values)
        self.buckets = max(1, int(buckets))
        if not self.total:
            self.low = self.high = None
            self.counts = [0] * self.buckets
            self.width = 0.0
            return
        self.low, self.high = low, high = extremes(values)
        span = high - low
        if span <= 0:
            self.width = 0.0
            self.counts = [self.total] + [0] * (self.buckets - 1)
            return
        self.width = width = span / self.buckets
        # int((v - low) / width), clamped to the last bucket.
        index = ((values - low) / width).astype(np.int64)
        np.minimum(index, self.buckets - 1, out=index)
        self.counts = np.bincount(index, minlength=self.buckets).tolist()

    def _check_nonempty(self):
        if self.total == 0:
            raise CatalogError("histogram built over an empty column")

    def bucket_of(self, value):
        """Index of the bucket containing ``value`` (clamped)."""
        self._check_nonempty()
        if self.width == 0.0:
            return 0
        index = int((value - self.low) / self.width)
        return min(self.buckets - 1, max(0, index))

    # ------------------------------------------------------------------
    # Selectivity estimates
    # ------------------------------------------------------------------
    def selectivity_le(self, value):
        """Estimated fraction of values ``<= value``."""
        self._check_nonempty()
        if value < self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        if self.width == 0.0:
            return 1.0
        index = self.bucket_of(value)
        below = sum(self.counts[:index])
        bucket_low = self.low + index * self.width
        fraction = (value - bucket_low) / self.width
        partial = self.counts[index] * min(1.0, max(0.0, fraction))
        return (below + partial) / self.total

    def selectivity_ge(self, value):
        """Estimated fraction of values ``>= value``.

        ``1 - le + eq`` can slightly exceed 1 because the equality
        share is itself an estimate; clamp to [0, 1].
        """
        raw = (1.0 - self.selectivity_le(value)
               + self.selectivity_eq(value))
        return min(1.0, max(0.0, raw))

    def selectivity_eq(self, value):
        """Estimated fraction of values ``== value``.

        Uniform-within-bucket: the bucket's mass spread over its width
        gives a density; a point predicate gets the bucket share
        divided by an assumed per-bucket distinct count (bucket count
        itself when unknown).
        """
        self._check_nonempty()
        if self.low is None or not self.low <= value <= self.high:
            return 0.0
        if self.width == 0.0:
            return 1.0 if value == self.low else 0.0
        index = self.bucket_of(value)
        bucket_fraction = self.counts[index] / self.total
        # Assume ~sqrt(count) distinct values per bucket -- a standard
        # pragmatic compromise without a distinct-count sketch.
        distinct = max(1.0, math.sqrt(self.counts[index]))
        return bucket_fraction / distinct

    def selectivity(self, op, value):
        """Dispatch on a comparison operator string."""
        if op == "=":
            return self.selectivity_eq(value)
        if op in ("<", "<="):
            return self.selectivity_le(value)
        if op in (">", ">="):
            return self.selectivity_ge(value)
        raise CatalogError("unsupported histogram operator %r" % (op,))

    def __repr__(self):
        return "EquiWidthHistogram(%d values, %d buckets, [%r, %r])" % (
            self.total, self.buckets, self.low, self.high,
        )
