"""The storage layer's set-up as plain Python loops.

ANALYZE, the equi-width histogram and the score-index sort read typed
columns in numpy passes (``repro.storage.stats``,
``repro.storage.histogram``, ``repro.storage.columns.stable_order``).
This module keeps what they compute written value by value, the way
the engine computed it before: ``tests/test_storage_reference.py``
asserts that both agree field for field, Python types included.
"""

import math
from array import array


def reference_histogram(values, buckets=32):
    """``(total, buckets, low, high, width, counts)`` of the histogram."""
    values = [float(v) for v in values if v is not None]
    total = len(values)
    buckets = max(1, int(buckets))
    if not values:
        return (0, buckets, None, None, 0.0, [0] * buckets)
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return (total, buckets, low, high, 0.0,
                [total] + [0] * (buckets - 1))
    width = span / buckets
    counts = [0] * buckets
    last = buckets - 1
    for value in values:
        index = int((value - low) / width)
        counts[index if index < last else last] += 1
    return (total, buckets, low, high, width, counts)


def reference_column_stats(values, histogram_buckets=32):
    """``(count, distinct, minimum, maximum, histogram)`` of a column.

    ``values`` is a column buffer (``array`` or degraded ``list``);
    ``histogram`` is :func:`reference_histogram`'s tuple or ``None``.
    """
    typed = isinstance(values, array)
    values = (values.tolist() if typed
              else [v for v in values if v is not None])
    count = len(values)
    distinct = len(set(values))
    if count == 0:
        return (0, 0, None, None, None)
    numeric = typed or all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in values)
    if not numeric:
        return (count, distinct, min(values), max(values), None)
    finite = [v for v in values
              if not isinstance(v, float) or math.isfinite(v)]
    if not finite:
        return (count, distinct, None, None, None)
    histogram = None
    if histogram_buckets:
        histogram = reference_histogram(finite, histogram_buckets)
    return (count, distinct, min(finite), max(finite), histogram)


def reference_order(keys, descending):
    """Heap positions stably sorted by ``keys`` (a column buffer)."""
    return sorted(range(len(keys)), key=keys.__getitem__,
                  reverse=descending)
