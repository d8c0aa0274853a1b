"""Depth estimation closed forms (Sections 4.1-4.3).

Terminology (Figure 9):

* ``cL, cR`` -- *any-k depths*: reading the top ``cL`` of L and ``cR``
  of R yields an expected ``k`` valid join results (Theorem 1:
  ``s * cL * cR >= k``).
* ``dL, dR`` -- *top-k depths*: reading the top ``dL`` / ``dR`` suffices
  to produce the *top* ``k`` join results (Theorem 2:
  ``delta(dL), delta(dR) >= delta(cL) + delta(cR)``).

The estimators below pick the ``cL, cR`` minimising ``dL, dR``:

* :func:`any_k_depths_uniform` / :func:`top_k_depths_uniform` -- two
  uniform inputs with average decrement slabs ``x`` and ``y``.
* :func:`top_k_depths` (mode ``"worst"``) -- Equations 2-5: left input
  is the result of rank-joining ``l`` uniform relations (a ``u_l``
  distribution), right input ``u_r``; strict upper bounds.
* :func:`top_k_depths_average` -- the average-case formulas from the
  end of Section 4.3.

All inputs assume score components normalised so each leaf relation has
``n`` tuples with uniform scores over ``[0, n]`` (unit decrement slab);
this is the normalisation the paper's analysis uses, and
:meth:`repro.optimizer.plans.RankJoinPlan.depth_estimate` performs it
for real plans.
"""

import math

from repro.common.errors import EstimationError
from repro.estimation.distributions import log_factorial


class DepthEstimate:
    """Estimated depths for one rank-join operator.

    Attributes
    ----------
    c_left, c_right:
        Any-k depths (may be fractional; callers ceil when needed).
    d_left, d_right:
        Top-k depths.
    clamped:
        True when a depth was clamped to its input's cardinality.
    """

    __slots__ = ("c_left", "c_right", "d_left", "d_right", "clamped")

    def __init__(self, c_left, c_right, d_left, d_right, clamped=False):
        self.c_left = c_left
        self.c_right = c_right
        self.d_left = d_left
        self.d_right = d_right
        self.clamped = clamped

    def clamp(self, max_left=None, max_right=None):
        """Return a copy with depths clamped to input cardinalities."""
        c_left, c_right = self.c_left, self.c_right
        d_left, d_right = self.d_left, self.d_right
        clamped = self.clamped
        if max_left is not None and d_left > max_left:
            d_left = float(max_left)
            clamped = True
        if max_right is not None and d_right > max_right:
            d_right = float(max_right)
            clamped = True
        if max_left is not None:
            c_left = min(c_left, float(max_left))
        if max_right is not None:
            c_right = min(c_right, float(max_right))
        return DepthEstimate(c_left, c_right, d_left, d_right, clamped)

    def as_tuple(self):
        """Return ``(d_left, d_right)``."""
        return (self.d_left, self.d_right)

    def __repr__(self):
        return ("DepthEstimate(c=(%.1f, %.1f), d=(%.1f, %.1f)%s)"
                % (self.c_left, self.c_right, self.d_left, self.d_right,
                   ", clamped" if self.clamped else ""))


def _check(k, s):
    if k <= 0:
        raise EstimationError("k must be positive, got %r" % (k,))
    if not 0.0 < s <= 1.0:
        raise EstimationError("selectivity must be in (0, 1], got %r" % (s,))


def any_k_depths_uniform(k, s, x=1.0, y=1.0):
    """Minimising any-k depths for two uniform inputs (Section 4.3).

    Minimise ``delta = x*cL + y*cR`` subject to ``s*cL*cR >= k``:
    ``cL = sqrt(y*k / (x*s))`` and ``cR = sqrt(x*k / (y*s))``.

    ``x`` and ``y`` are the average decrement slabs of L and R.
    """
    _check(k, s)
    if x <= 0 or y <= 0:
        raise EstimationError("slabs must be positive (x=%r, y=%r)" % (x, y))
    c_left = math.sqrt(y * k / (x * s))
    c_right = math.sqrt(x * k / (y * s))
    return c_left, c_right


def top_k_depths_uniform(k, s, x=1.0, y=1.0):
    """Top-k depths for two uniform inputs (Section 4.3).

    ``dL = cL + (y/x)*cR`` and ``dR = cR + (x/y)*cL``, which for the
    minimising ``cL, cR`` collapse to ``dL = 2*cL`` and ``dR = 2*cR``
    (and to ``2*sqrt(k/s)`` when ``x == y``).
    """
    c_left, c_right = any_k_depths_uniform(k, s, x, y)
    d_left = c_left + (y / x) * c_right
    d_right = c_right + (x / y) * c_left
    return DepthEstimate(c_left, c_right, d_left, d_right)


def _slab_coefficients(n, l, r, m_left, m_right):
    """Return ``(a_L, a_R)`` where ``delta_X(c) = (a_X * c)**(1/x)``.

    From Equation 1 applied to an input stream of ``m_X`` elements
    drawn from ``u_x`` over ``[0, x*n]``: the score gap at depth ``c``
    is ``(x! * c * n**x / m_X)**(1/x)``, i.e. ``a_X = x! n**x / m_X``.
    The paper's closed forms are the special case ``m_X = n`` (exact
    for its video workload, where every intermediate result again has
    ``n`` tuples because feature relations key-join on object id).
    """
    if m_left is None:
        m_left = n
    if m_right is None:
        m_right = n
    if m_left <= 0 or m_right <= 0:
        raise EstimationError("stream cardinalities must be positive")
    a_left = math.exp(
        log_factorial(l) + l * math.log(n) - math.log(m_left)
    )
    a_right = math.exp(
        log_factorial(r) + r * math.log(n) - math.log(m_right)
    )
    return a_left, a_right


def top_k_depths_streams(k, s, n, l=1, r=1, m_left=None, m_right=None):
    """Worst-case top-k depths for arbitrary input-stream cardinalities.

    Generalises Equations 2-5: minimise
    ``delta = (a_L c_L)**(1/l) + (a_R c_R)**(1/r)`` subject to
    ``s c_L c_R >= k`` and apply Theorem 2
    (``d_X = delta**x / a_X``).  With ``m_left = m_right = n`` this
    reproduces the paper's formulas exactly.
    """
    _check(k, s)
    if l < 1 or r < 1:
        raise EstimationError("l and r must be >= 1 (got %r, %r)" % (l, r))
    if n is None or n <= 0:
        raise EstimationError("n must be positive, got %r" % (n,))
    a_left, a_right = _slab_coefficients(n, l, r, m_left, m_right)
    # Stationarity of the Lagrangian gives
    # c_L**(1/l + 1/r) = (l/r) * (a_R k / s)**(1/r) / a_L**(1/l).
    exponent = 1.0 / l + 1.0 / r
    log_c_left = (
        math.log(l) - math.log(r)
        + (math.log(a_right) + math.log(k) - math.log(s)) / r
        - math.log(a_left) / l
    ) / exponent
    c_left = math.exp(log_c_left)
    c_right = k / (s * c_left)
    delta = ((a_left * c_left) ** (1.0 / l)
             + (a_right * c_right) ** (1.0 / r))
    d_left = delta ** l / a_left
    d_right = delta ** r / a_right
    return DepthEstimate(c_left, c_right, d_left, d_right)


def top_k_depths_average_streams(k, s, n, l=1, r=1, m_left=None,
                                 m_right=None):
    """Average-case top-k depths for arbitrary stream cardinalities.

    The full join output ``G`` has ``m_G = s * m_L * m_R`` samples from
    ``u_{l+r}``; the top-k'th output score (Equation 1) sets the score
    slack ``Delta``, and ``d_X = Delta**x / a_X``.  Reduces to the
    paper's average-case formulas for ``m_left = m_right = n``.
    """
    _check(k, s)
    if l < 1 or r < 1:
        raise EstimationError("l and r must be >= 1 (got %r, %r)" % (l, r))
    if n is None or n <= 0:
        raise EstimationError("n must be positive, got %r" % (n,))
    a_left, a_right = _slab_coefficients(n, l, r, m_left, m_right)
    if m_left is None:
        m_left = n
    if m_right is None:
        m_right = n
    total = l + r
    log_m_g = math.log(s) + math.log(m_left) + math.log(m_right)
    log_delta = (
        log_factorial(total) + math.log(k) + total * math.log(n) - log_m_g
    ) / total
    delta = math.exp(log_delta)
    d_left = delta ** l / a_left
    d_right = delta ** r / a_right
    c_left, c_right = any_k_depths(k, s, n=n, l=l, r=r)
    return DepthEstimate(c_left, c_right, d_left, d_right)


def any_k_depths(k, s, n=None, l=1, r=1):
    """General minimising any-k depths, Equations 2 and 3.

    Left input is a ``u_l`` stream, right a ``u_r`` stream, each leaf
    relation holding ``n`` tuples.  ``n`` is only needed when
    ``l != r``; the symmetric case cancels it.

    Returns ``(cL, cR)``.
    """
    _check(k, s)
    if l < 1 or r < 1:
        raise EstimationError("l and r must be >= 1 (got %r, %r)" % (l, r))
    if l != r and n is None:
        raise EstimationError("n is required when l != r")
    if n is None:
        n = 1.0  # Cancels out when l == r.
    if n <= 0:
        raise EstimationError("n must be positive, got %r" % (n,))
    log_k = math.log(k)
    log_n = math.log(n)
    log_s = math.log(s)
    rl = r * l
    # Equation 2:
    # cL**(r+l) = (r!)**l k**l n**(r-l) l**(rl) / (s**l (l!)**r r**(rl))
    log_c_left = (
        l * log_factorial(r) + l * log_k + (r - l) * log_n
        + rl * math.log(l) - l * log_s - r * log_factorial(l)
        - rl * math.log(r)
    ) / (r + l)
    # Equation 3 (swap l and r):
    log_c_right = (
        r * log_factorial(l) + r * log_k + (l - r) * log_n
        + rl * math.log(r) - r * log_s - l * log_factorial(r)
        - rl * math.log(l)
    ) / (r + l)
    return math.exp(log_c_left), math.exp(log_c_right)


def top_k_depths(k, s, n=None, l=1, r=1):
    """Worst-case top-k depths, Equations 2-5.

    ``dL = cL * (1 + r/l)**l`` and ``dR = cR * (1 + l/r)**r`` with
    ``cL, cR`` from :func:`any_k_depths`.  These are strict upper
    bounds under the ``u_l`` / ``u_r`` score model.
    """
    c_left, c_right = any_k_depths(k, s, n=n, l=l, r=r)
    d_left = c_left * (1.0 + r / l) ** l
    d_right = c_right * (1.0 + l / r) ** r
    return DepthEstimate(c_left, c_right, d_left, d_right)


def top_k_depths_average(k, s, n=None, l=1, r=1):
    """Average-case top-k depths (end of Section 4.3).

    ``dL**(l+r) = ((l+r)!)**l k**l n**(r-l) / ((l!)**(l+r) s**l)`` and
    symmetrically for ``dR``.  Derived from the score of the top-k'th
    tuple of the *output* ``u_{l+r}`` distribution; tighter than the
    worst case and the better default inside the optimizer.

    The any-k depths reported alongside are the Equation 2/3 values so
    the result is interchangeable with :func:`top_k_depths`.
    """
    _check(k, s)
    if l < 1 or r < 1:
        raise EstimationError("l and r must be >= 1 (got %r, %r)" % (l, r))
    if l != r and n is None:
        raise EstimationError("n is required when l != r")
    if n is None:
        n = 1.0
    if n <= 0:
        raise EstimationError("n must be positive, got %r" % (n,))
    log_k = math.log(k)
    log_n = math.log(n)
    log_s = math.log(s)
    total = l + r
    log_d_left = (
        l * log_factorial(total) + l * log_k + (r - l) * log_n
        - total * log_factorial(l) - l * log_s
    ) / total
    log_d_right = (
        r * log_factorial(total) + r * log_k + (l - r) * log_n
        - total * log_factorial(r) - r * log_s
    ) / total
    c_left, c_right = any_k_depths(k, s, n=n, l=l, r=r)
    return DepthEstimate(
        c_left, c_right, math.exp(log_d_left), math.exp(log_d_right),
    )
