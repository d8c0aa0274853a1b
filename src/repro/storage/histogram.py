"""Equi-width histograms for selectivity estimation.

The uniform min/max assumption in
:meth:`~repro.optimizer.query.FilterPredicate.selectivity` is the
System R default; real optimizers refine it with histograms.  An
:class:`EquiWidthHistogram` over a numeric column answers range and
equality selectivities with per-bucket resolution, degrading gracefully
to the uniform assumption inside a bucket.
"""

import math

from repro.common.errors import CatalogError


class EquiWidthHistogram:
    """Fixed-width bucket histogram over numeric values.

    Parameters
    ----------
    values:
        Numeric samples (the column's values).
    buckets:
        Bucket count; clamped to at least 1.
    """

    def __init__(self, values, buckets=32):
        values = [float(v) for v in values if v is not None]
        self.total = len(values)
        self.buckets = max(1, int(buckets))
        if not values:
            self.low = self.high = None
            self.counts = [0] * self.buckets
            self.width = 0.0
            return
        self.low = min(values)
        self.high = max(values)
        span = self.high - self.low
        if span <= 0:
            self.width = 0.0
            self.counts = [self.total] + [0] * (self.buckets - 1)
            return
        self.width = width = span / self.buckets
        self.counts = counts = [0] * self.buckets
        low = self.low
        last = self.buckets - 1
        for value in values:
            index = int((value - low) / width)
            counts[index if index < last else last] += 1

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
