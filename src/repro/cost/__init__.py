"""Cost model for ranking plans.

Implements the costing side of Section 3.3:

* :mod:`repro.cost.model` -- page-based I/O + CPU cost formulas for
  scans, external sort, and the traditional join methods (the
  "traditional cost formulas" the paper plugs in), priced by a named
  :class:`~repro.cost.model.CostProfile` (``PAPER_2004`` or
  ``IN_MEMORY``).  Plans are costed
  by the optimizer's own plan nodes (:mod:`repro.optimizer.plans`),
  whose ``cost(k)`` charges these formulas.
* :mod:`repro.cost.crossover` -- the ``k*`` analysis: the value of
  ``k`` at which a rank-join plan and a sort plan cost the same.
* :mod:`repro.cost.buffer` -- the ``dL * dR * s`` buffer-size upper
  bound (Section 5.3).
"""

from repro.cost.buffer import buffer_upper_bound
from repro.cost.crossover import find_k_star
from repro.cost.model import (
    IN_MEMORY,
    PAPER_2004,
    CostModel,
    CostProfile,
    CostProfileVersion,
)

__all__ = [
    "CostModel",
    "CostProfile",
    "CostProfileVersion",
    "IN_MEMORY",
    "PAPER_2004",
    "buffer_upper_bound",
    "find_k_star",
]
