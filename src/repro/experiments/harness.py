"""Measured-vs-estimated experiment machinery (Section 5).

Builds instrumented rank-join plans over synthetic ranked relations,
executes them for a requested ``k``, and pairs every measured depth /
buffer size with the model's estimates -- the raw material of
Figures 13, 14, and 15, and of the Figure 4 depth-propagation example.
"""

from repro.common.errors import EstimationError
from repro.cost.buffer import buffer_upper_bound
from repro.cost.model import PAPER_2004, CostModel
from repro.data.generators import generate_ranked_table
from repro.estimation.depths import (
    any_k_depths_uniform,
    top_k_depths,
    top_k_depths_average,
)
from repro.operators.hrjn import HRJN
from repro.operators.scan import IndexScan
from repro.operators.topk import Limit
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.plans import AccessPlan, RankJoinPlan
from repro.optimizer.properties import OrderProperty
from repro.optimizer.query import JoinPredicate


def realized_selectivity(left_table, right_table, left_column,
                         right_column):
    """Exact equi-join selectivity computed by key-count convolution."""
    left_counts = {}
    for row in left_table.scan():
        key = row[left_column]
        left_counts[key] = left_counts.get(key, 0) + 1
    matches = 0
    right_cardinality = 0
    for row in right_table.scan():
        right_cardinality += 1
        matches += left_counts.get(row[right_column], 0)
    denominator = left_table.cardinality * right_cardinality
    if denominator == 0:
        return 0.0
    return matches / denominator


class DepthMeasurement:
    """One (k, selectivity) measurement against all three estimates."""

    __slots__ = ("k", "selectivity", "actual", "any_k", "top_k", "average",
                 "buffer_actual", "buffer_actual_bound",
                 "buffer_estimated_bound")

    def __init__(self, k, selectivity, actual, any_k, top_k, average,
                 buffer_actual, buffer_actual_bound,
                 buffer_estimated_bound):
        self.k = k
        self.selectivity = selectivity
        self.actual = actual
        self.any_k = any_k
        self.top_k = top_k
        self.average = average
        self.buffer_actual = buffer_actual
        self.buffer_actual_bound = buffer_actual_bound
        self.buffer_estimated_bound = buffer_estimated_bound

    def __repr__(self):
        return ("DepthMeasurement(k=%d, s=%.4g, actual=%s, any=%s, top=%s)"
                % (self.k, self.selectivity, self.actual,
                   tuple(round(v) for v in self.any_k),
                   tuple(round(v) for v in self.top_k)))


def make_ranked_pair(cardinality, selectivity, seed=0,
                     distribution="uniform"):
    """Two generated ranked relations L and R with score indexes."""
    left = generate_ranked_table(
        "L", cardinality, selectivity=selectivity,
        distribution=distribution, seed=seed,
    )
    right = generate_ranked_table(
        "R", cardinality, selectivity=selectivity,
        distribution=distribution, seed=seed + 104729,
    )
    return left, right


def _require_k_rows(rows, k):
    """A run that returned fewer than ``k`` rows exhausted its inputs."""
    if len(rows) < k:
        raise EstimationError(
            "join produced only %d results for k=%d; enlarge the workload"
            % (len(rows), k)
        )


def measure_depths(cardinality, selectivity, k, seed=0,
                   strategy="alternate"):
    """Run a two-input HRJN for top-``k`` and compare with estimates.

    The estimates are fed the *realized* selectivity, isolating
    depth-estimation error from selectivity-estimation error exactly as
    the paper's experiments do.
    """
    if k < 1:
        raise EstimationError("k must be >= 1, got %r" % (k,))
    left, right = make_ranked_pair(cardinality, selectivity, seed=seed)
    s_real = realized_selectivity(left, right, "L.key", "R.key")
    if s_real == 0.0:
        raise EstimationError(
            "generated workload produced an empty join; "
            "increase cardinality or selectivity"
        )
    rank_join = HRJN(
        IndexScan(left, left.get_index("L_score_idx")),
        IndexScan(right, right.get_index("R_score_idx")),
        "L.key", "R.key", "L.score", "R.score",
        strategy=strategy, name="HRJN",
    )
    _require_k_rows(list(Limit(rank_join, k)), k)
    actual = rank_join.depths
    any_k = any_k_depths_uniform(k, s_real)
    top_k = top_k_depths(k, s_real)
    average = top_k_depths_average(k, s_real)
    return DepthMeasurement(
        k=k,
        selectivity=s_real,
        actual=actual,
        any_k=any_k,
        top_k=(top_k.d_left, top_k.d_right),
        average=(average.d_left, average.d_right),
        buffer_actual=rank_join.stats.max_buffer,
        buffer_actual_bound=buffer_upper_bound(
            actual[0], actual[1], s_real,
        ),
        buffer_estimated_bound=buffer_upper_bound(
            top_k.d_left, top_k.d_right, s_real,
        ),
    )


def build_hrjn_pipeline(tables, keys, scores, k, strategy="alternate"):
    """Build and run a left-deep HRJN pipeline over ranked ``tables``.

    Parameters
    ----------
    tables:
        List of :class:`~repro.storage.table.Table`, each with a
        descending score index named ``<name>_<score>_idx``.
    keys / scores:
        Qualified join-key and score columns, aligned with ``tables``.
    k:
        Ranked results to pull from the top operator.

    Returns ``(rows, [HRJN operators bottom-up])``.  Raises
    :class:`EstimationError` when the pipeline yields fewer than ``k``
    rows: its inputs were exhausted, so the depths are not a top-k run's.
    """
    if len(tables) < 2:
        raise EstimationError("pipeline needs at least two tables")
    scans = []
    for table, score in zip(tables, scores):
        index_name = "%s_%s_idx" % (table.name, score.split(".")[1])
        scans.append(IndexScan(table, table.get_index(index_name)))
    joins = []
    current = scans[0]
    current_score = scores[0]
    for level, (scan, key, score) in enumerate(
            zip(scans[1:], keys[1:], scores[1:]), start=1):
        name = "HRJN%d" % (level,)
        join = HRJN(
            current, scan, keys[level - 1], key,
            _combined_score_accessor(current_score),
            score, strategy=strategy, name=name,
            output_score_column="_score_%s" % (name,),
        )
        joins.append(join)
        current = join
        current_score = join.output_score_column
    rows = list(Limit(current, k))
    _require_k_rows(rows, k)
    return rows, joins


def _combined_score_accessor(score_column):
    """ScoreSpec-friendly accessor for a (possibly computed) column."""
    from repro.operators.base import ScoreSpec

    if isinstance(score_column, str):
        return ScoreSpec.column(score_column)
    return score_column


def pipeline_plan(cardinality, selectivities):
    """The optimizer's plan node for a left-deep HRJN pipeline.

    ``T0 join T1 join ...`` over ``len(selectivities) + 1`` sorted score
    indexes of ``cardinality`` rows each; join ``i`` (``HRJN<i>``, the
    operator :func:`build_hrjn_pipeline` names) has selectivity
    ``selectivities[i - 1]`` and ranks on the sum of the scores below
    it.  The rank joins estimate worst-case depths.  Returns the top
    :class:`~repro.optimizer.plans.RankJoinPlan`, whose
    ``propagate_depths(k)`` is Algorithm Propagate over the pipeline.
    """
    model = CostModel(PAPER_2004)

    def ranked(i):
        return AccessPlan(model, "T%d" % (i,), cardinality,
                          order=OrderProperty.on("T%d.score" % (i,)),
                          index_name="T%d_score_idx" % (i,))

    plan = ranked(0)
    score = ScoreExpression.single("T0.score")
    for i, selectivity in enumerate(selectivities, start=1):
        right = ScoreExpression.single("T%d.score" % (i,))
        combined = score.combine(right)
        plan = RankJoinPlan(
            model, "hrjn", plan, ranked(i),
            [JoinPredicate("T%d.key" % (i - 1,), "T%d.key" % (i,))],
            selectivity, score, right, combined, estimation_mode="worst",
        )
        score = combined
    return plan


def pipeline_estimates(plan, k):
    """``[(required_k, DepthEstimate), ...]`` per rank join, bottom-up.

    Algorithm Propagate over a :func:`pipeline_plan` asked for ``k``.
    """
    return [(required, estimate)
            for _plan, required, estimate in reversed(plan.propagate_depths(k))
            if estimate is not None]


def measure_pipeline_depths(cardinality, selectivity, k, inputs=3, seed=0):
    """Figure 4-style experiment: measured vs propagated depths.

    Builds a left-deep pipeline of ``inputs`` ranked relations, runs it
    for top-``k``, then propagates ``k`` down the matching worst-case
    :func:`pipeline_plan` (with realized selectivities) and returns
    per-operator records::

        [(operator_name, (actual_dl, actual_dr), DepthEstimate,
          required_k), ...]

    ordered bottom-up (innermost rank-join first).  The estimate's
    ``d_left``/``d_right`` are the top-k depths and ``c_left``/
    ``c_right`` the any-k depths at the operator's required ``k``.
    """
    tables = []
    keys = []
    scores = []
    for i in range(inputs):
        name = "T%d" % (i,)
        tables.append(generate_ranked_table(
            name, cardinality, selectivity=selectivity, seed=seed + i,
        ))
        keys.append("%s.key" % (name,))
        scores.append("%s.score" % (name,))
    _rows, joins = build_hrjn_pipeline(tables, keys, scores, k)
    plan = pipeline_plan(cardinality, [
        max(realized_selectivity(tables[i - 1], tables[i],
                                 keys[i - 1], keys[i]), 1e-12)
        for i in range(1, inputs)
    ])
    return [
        (join.name, join.depths, estimate, required)
        for join, (required, estimate)
        in zip(joins, pipeline_estimates(plan, k))
    ]
