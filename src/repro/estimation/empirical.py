"""Distribution-free depth estimation from empirical score profiles.

The closed forms of Section 4 assume uniform (or sum-of-uniform) score
distributions; `tests/test_extensions.py::test_model_robustness` shows
they break on skewed scores (zipf).  But Theorems 1 and 2 themselves
are distribution-free -- only the *score gap profile* ``delta(i)``
enters.  Real systems have that
profile at hand: it is exactly what a descending score index stores.

This module re-runs the paper's minimisation numerically over empirical
gap profiles:

    minimise  delta_L(cL) + delta_R(cR)
    subject   s * cL * cR >= k

then inverts the profiles for the Theorem 2 depths.  The estimator is
valid for any score distribution and needs no parametric fit -- the
profiles can come from the full index, or from a sampled prefix.
"""

import bisect
import math

from repro.common.errors import EstimationError
from repro.estimation.depths import DepthEstimate


class ScoreProfile:
    """The empirical gap profile of one ranked input.

    Parameters
    ----------
    scores:
        Scores in descending order (ties allowed).  Typically the key
        column of a :class:`~repro.storage.index.SortedIndex`, or a
        prefix sample of it.
    total:
        Actual input cardinality when ``scores`` is a sample prefix;
        defaults to ``len(scores)``.  Depths beyond the sampled prefix
        extrapolate the last observed gap linearly.
    """

    def __init__(self, scores, total=None):
        scores = [float(s) for s in scores]
        if not scores:
            raise EstimationError("score profile needs at least one score")
        if any(a < b - 1e-12 for a, b in zip(scores, scores[1:])):
            raise EstimationError("scores must be non-increasing")
        self._top = scores[0]
        # deltas[i] = gap at depth i+1 (0 at the top), non-decreasing.
        self._deltas = [self._top - s for s in scores]
        self.total = int(total) if total is not None else len(scores)
        if self.total < len(scores):
            raise EstimationError("total below the sampled prefix size")

    @classmethod
    def from_index(cls, index, prefix=None):
        """Build a profile from a descending SortedIndex."""
        entries = index.entries()
        scores = [score for score, _row in entries]
        if prefix is not None:
            return cls(scores[:prefix], total=len(scores))
        return cls(scores)

    def __len__(self):
        return self.total

    def delta(self, depth):
        """Gap at (possibly fractional) ``depth`` >= 1."""
        if depth < 1:
            raise EstimationError("depth must be >= 1")
        depth = min(depth, float(self.total))
        index = int(math.ceil(depth)) - 1
        if index < len(self._deltas):
            return self._deltas[index]
        # Extrapolate past the sampled prefix with the mean slab.
        last = self._deltas[-1]
        slab = last / max(1, len(self._deltas) - 1)
        return last + slab * (depth - len(self._deltas))

    def depth_for_gap(self, gap):
        """Smallest depth whose gap reaches ``gap`` (Theorem 2 inverse)."""
        if gap <= 0:
            return 1.0
        # Tolerance so float noise in score subtraction does not push
        # the inverse one step too deep.
        position = bisect.bisect_left(self._deltas, gap - 1e-12)
        if position < len(self._deltas):
            return float(position + 1)
        last = self._deltas[-1]
        slab = last / max(1, len(self._deltas) - 1)
        if slab <= 0:
            return float(self.total)
        extra = (gap - last) / slab
        return min(float(self.total), len(self._deltas) + extra)


def empirical_depths_from_catalog(catalog, left_table, left_index,
                                  right_table, right_index, left_key,
                                  right_key, k, prefix=None):
    """Empirical depths straight from two catalog indexes.

    ``prefix`` optionally restricts each profile to the index's top
    ``prefix`` entries (a cheap sample), extrapolating the tail.
    """
    left = catalog.table(left_table)
    right = catalog.table(right_table)
    selectivity = catalog.join_selectivity(
        left_table, left_key, right_table, right_key,
    )
    if selectivity <= 0:
        raise EstimationError("estimated join selectivity is zero")
    return empirical_top_k_depths(
        ScoreProfile.from_index(left.get_index(left_index),
                                prefix=prefix),
        ScoreProfile.from_index(right.get_index(right_index),
                                prefix=prefix),
        k, selectivity,
    )


def empirical_top_k_depths(left_profile, right_profile, k, selectivity,
                           grid=64):
    """Numerically minimised top-k depths over empirical profiles.

    Searches ``cL`` on a logarithmic grid subject to Theorem 1 and the
    input sizes, evaluates ``delta = delta_L(cL) + delta_R(cR)`` at
    each candidate, and inverts both profiles at the best ``delta``.

    Returns a :class:`~repro.estimation.depths.DepthEstimate`.
    """
    if k < 1:
        raise EstimationError("k must be >= 1")
    if not 0.0 < selectivity <= 1.0:
        raise EstimationError("selectivity must be in (0, 1]")
    m_left = len(left_profile)
    m_right = len(right_profile)
    if selectivity * m_left * m_right < k:
        # The join cannot hold k results in expectation; the best an
        # operator can do is read everything.
        return DepthEstimate(
            float(m_left), float(m_right),
            float(m_left), float(m_right), clamped=True,
        )
    # Feasible cL range: cR = k/(s*cL) must fit the right input.
    c_left_min = max(1.0, k / (selectivity * m_right))
    c_left_max = float(m_left)
    if c_left_min > c_left_max:
        c_left_min = c_left_max
    best = None
    log_low = math.log(c_left_min)
    log_high = math.log(max(c_left_min, c_left_max))
    steps = max(2, grid)
    for step in range(steps + 1):
        log_c = log_low + (log_high - log_low) * step / steps
        c_left = math.exp(log_c)
        c_right = min(float(m_right), k / (selectivity * c_left))
        delta = (left_profile.delta(max(1.0, c_left))
                 + right_profile.delta(max(1.0, c_right)))
        if best is None or delta < best[0]:
            best = (delta, c_left, c_right)
    delta, c_left, c_right = best
    d_left = left_profile.depth_for_gap(delta)
    d_right = right_profile.depth_for_gap(delta)
    # Theorem 2 requires reading at least to the any-k prefix itself.
    d_left = min(float(m_left), max(d_left, c_left))
    d_right = min(float(m_right), max(d_right, c_right))
    return DepthEstimate(c_left, c_right, d_left, d_right)
