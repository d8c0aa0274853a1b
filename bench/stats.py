"""Order statistics the benchmark reports."""

def percentile(values, q):
    """``q``-quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
