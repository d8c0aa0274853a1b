"""Probabilistic input-cardinality (depth) estimation for rank-joins.

Implements Section 4 of the paper:

* :mod:`repro.estimation.distributions` -- the score model: sums of
  ``j`` independent uniforms (``u_j``), including Equation 1 for the
  expected score at a given rank.
* :mod:`repro.estimation.depths` -- any-k depths (Theorem 1), top-k
  depths (Theorem 2), and the minimised closed forms: the uniform
  two-relation case, the general worst-case Equations 2-5, and the
  average-case formulas.

Algorithm ``Propagate`` (Figure 8) -- pushing the user's ``k`` down a
rank-join plan -- runs on the optimizer's plan nodes
(:meth:`repro.optimizer.plans.Plan.propagate_depths`), whose
``cost(k)`` charges each input for exactly the depth these formulas
estimate.
"""

from repro.estimation.depths import (
    DepthEstimate,
    any_k_depths,
    any_k_depths_uniform,
    top_k_depths,
    top_k_depths_average,
    top_k_depths_uniform,
)
from repro.estimation.distributions import (
    expected_delta_at_depth,
    expected_score_at_rank,
    sum_uniform_cdf,
    sum_uniform_mean,
)

__all__ = [
    "DepthEstimate",
    "any_k_depths",
    "any_k_depths_uniform",
    "expected_delta_at_depth",
    "expected_score_at_rank",
    "sum_uniform_cdf",
    "sum_uniform_mean",
    "top_k_depths",
    "top_k_depths_average",
    "top_k_depths_uniform",
]
